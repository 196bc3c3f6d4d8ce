"""Constructive certificates for polynomials nonnegative on the half-line.

A polynomial s with s(x) >= 0 for x >= 0 splits as

    s(x) = a1(x)^2 + a2(x)^2 + x * (a3(x)^2 + a4(x)^2)

with deg a1, a2 <= deg s and deg a3, a4 <= deg s - 1.  The construction goes
through the factorization of s: negative real roots feed the pair (1, 1/|z|),
conjugate pairs are rewritten with the collision-robust split

    (1 - x/z)(1 - x/conj(z)) = [((x - Re z v 0)^2 + (Re z ^ 0)^2 + (Im z)^2)
                                 + x * (-2 (Re z ^ 0))] / |z|^2

whose two brackets stay nonnegative through real/complex root collisions.
Each factor is written as a pair (P, Q) of complex linear polynomials with
|P|^2 + x |Q|^2 equal to it, and the pairs are multiplied with a
norm-composition law.

The engine is written once against a small basis-operations protocol; the
public operation runs it in the monomial basis, while the weight pipeline
runs it on shifted Chebyshev coefficient arrays, which stay well
conditioned at the degrees the large scales need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _mono

from .poly import Poly, cluster_roots, poly_eval, _raw_roots

CLUSTER_TOL = 1e-6        # merge radius for multiple-root recovery
PRE_NEG_TOL = 1e-10       # allowed relative dip below zero on validation grids
RESIDUAL_TOL = 1e-8       # certificate soundness target, relative to max |s|


class NotNonnegativeError(ValueError):
    """Input fails a nonnegativity precondition."""


@dataclass(frozen=True)
class SosQuadruple:
    a1: Poly
    a2: Poly
    a3: Poly
    a4: Poly

    def reconstruct_at(self, x):
        x = np.asarray(x, dtype=float)
        return (
            poly_eval(self.a1, x) ** 2
            + poly_eval(self.a2, x) ** 2
            + x * (poly_eval(self.a3, x) ** 2 + poly_eval(self.a4, x) ** 2)
        )


def certificate_residual(s: Poly, quad: SosQuadruple, grid) -> float:
    """max |s - reconstruction| / max |s| over the grid."""
    sv = poly_eval(s, grid)
    return float(np.max(np.abs(quad.reconstruct_at(grid) - sv)) / np.max(np.abs(sv)))


# ---------------------------------------------------------------------------
# basis operations
# ---------------------------------------------------------------------------

class _MonomialOps:
    """Coefficient arrays in the monomial basis."""

    mul = staticmethod(lambda a, b: np.convolve(a, b))
    val = staticmethod(lambda a, x: _mono.polyval(x, a))

    @staticmethod
    def mulx(a):
        return np.concatenate([[0.0], a])

    @staticmethod
    def der(a):
        return a[1:] * np.arange(1, len(a)) if len(a) > 1 else np.zeros(1)

    roots = staticmethod(_raw_roots)

    @staticmethod
    def linear(c0, c1):
        return np.array([c0, c1])


def _aberth_refine(a, z, maxit: int = 24):
    """Simultaneous (Aberth) refinement of all roots of a Chebyshev series,
    driven by Clenshaw evaluation; joint corrections stay stable on root
    clusters where independent Newton steps oscillate."""
    da = _cheb.chebder(a)
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(maxit):
            pv = _cheb.chebval(z, a)
            dv = _cheb.chebval(z, da)
            w = pv / np.where(dv == 0, 1e-300, dv)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            corr = w / (1.0 - w * np.sum(1.0 / diff, axis=1))
            ok = np.isfinite(corr)
            z = np.where(ok, z - corr, z)
            if np.max(np.abs(np.where(ok, corr, 0.0)) / (1.0 + np.abs(z))) < 1e-14:
                break
    return z


class _ChebyshevShiftedOps:
    """Chebyshev coefficients in T_k(2x - 1): basis interval [0, 1].

    Intermediate normalization then tracks suprema over the active interval,
    which keeps long composition chains conditioned where the certificate is
    actually used.
    """

    mul = staticmethod(_cheb.chebmul)
    val = staticmethod(lambda a, x: _cheb.chebval(2.0 * np.asarray(x) - 1.0, a))

    @staticmethod
    def mulx(a):
        # x = (u + 1)/2 in the internal variable u
        return 0.5 * _padd(_cheb.chebmulx(a), a)

    @staticmethod
    def der(a):
        return 2.0 * _cheb.chebder(a) if len(a) > 1 else np.zeros(1)

    @staticmethod
    def roots(a):
        u = _aberth_refine(a, _cheb.chebroots(a))
        return (u + 1.0) / 2.0

    @staticmethod
    def linear(c0, c1):
        # c0 + c1 x = (c0 + c1/2) T0 + (c1/2) T1(u)
        return np.array([c0 + 0.5 * c1, 0.5 * c1])


MONOMIAL = _MonomialOps()
CHEB_SHIFTED = _ChebyshevShiftedOps()


def _padd(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.result_type(a, b))
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def _trim_tail(a: np.ndarray, ref: float, tol: float = 1e-14) -> np.ndarray:
    nz = np.nonzero(np.abs(a) > tol * ref)[0]
    if len(nz) == 0:
        return np.zeros(1)
    return np.array(a[: nz[-1] + 1])


# ---------------------------------------------------------------------------
# root bookkeeping
# ---------------------------------------------------------------------------

def _newton_extremum(ops, a, x0: float) -> float:
    da = ops.der(a)
    d2a = ops.der(da)
    x = x0
    for _ in range(50):
        d2v = ops.val(d2a, x)
        if d2v == 0:
            break
        step = ops.val(da, x) / d2v
        x -= step
        if abs(step) < 1e-14 * (1.0 + abs(x)):
            break
    return x


def _classify_candidates(ops, a):
    """Root classifications at escalating cluster radii.

    Roots that should be degenerate can scatter far when the degeneracy is
    deep relative to coefficient noise; re-merging them at a coarser radius
    reproduces the polynomial within that same noise.  Every radius that
    yields a pairable classification is offered, and the caller keeps the
    candidate whose certificate fits best.
    """
    out, err = [], None
    roots = ops.roots(a)
    seen = set()
    for boost in (1.0, 10.0, 100.0, 1000.0):
        clusters = cluster_roots(roots, CLUSTER_TOL * boost)
        key = tuple(sorted((round(z.real, 12), round(z.imag, 12), m)
                           for z, m in clusters))
        if key in seen:
            continue
        seen.add(key)
        reals, cx = [], []
        for z, mult in clusters:
            if z.imag == 0:
                reals.append((z.real, mult))
            elif z.imag > 0:
                cx.append((z, mult))
        try:
            reals = _pair_odd_reals(ops, reals, a)
        except NotNonnegativeError as exc:
            err = exc
            continue
        out.append((reals, cx))
    if not out:
        raise err
    return out


def _pair_odd_reals(ops, reals, a):
    """Force even multiplicity where nonnegativity demands it.

    Rounding splits a double root into two simple ones; leftover odd clusters
    are paired greedily by position and replaced by a double root at the
    local extremum.  Negative real roots are left untouched (legal simple
    roots on the half-line).
    """
    fixed, odd = [], []
    for r, mult in reals:
        if mult % 2 == 0 or r < 0:
            fixed.append((r, mult))
        else:
            if mult > 1:
                fixed.append((r, mult - 1))
            odd.append(r)
    odd.sort()
    if len(odd) % 2:
        raise NotNonnegativeError(
            f"real root of odd multiplicity at {odd} violates nonnegativity"
        )
    for i in range(0, len(odd), 2):
        ra, rb = odd[i], odd[i + 1]
        if abs(rb - ra) > 0.05 * (1.0 + abs(ra)):
            raise NotNonnegativeError(
                f"odd-multiplicity real roots at {ra:.6g} and {rb:.6g} cannot pair"
            )
        m = _newton_extremum(ops, a, 0.5 * (ra + rb))
        if not np.isfinite(m) or abs(m - 0.5 * (ra + rb)) > max(abs(rb - ra), 1e-12):
            m = 0.5 * (ra + rb)
        fixed.append((m, 2))
    return fixed


# ---------------------------------------------------------------------------
# composition laws (intermediate results renormalized against overflow)
# ---------------------------------------------------------------------------

def _quaternion_compose(ops, u, v):
    """Compose (P, Q), (P~, Q~) with complex coefficients such that

        |P_new|^2 + x |Q_new|^2 = (|P|^2 + x |Q|^2)(|P~|^2 + x |Q~|^2)

    via P_new = P P~ - x Q conj(Q~), Q_new = P Q~ + Q conj(P~); the cross
    terms cancel identically (coefficient conjugation, real variable)."""
    P = _padd(ops.mul(u[0], v[0]), -ops.mulx(ops.mul(u[1], np.conj(v[1]))))
    Q = _padd(ops.mul(u[0], v[1]), ops.mul(u[1], np.conj(v[0])))
    m = max(np.max(np.abs(P)), np.max(np.abs(Q)), 1e-300)
    return P / m, Q / m


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _certificate_engine(ops, s, pos_grid):
    """One-pass certificate: complex P, Q with s = |P|^2 + x |Q|^2 on R.

    Factors of s are mapped to linear complex pieces (negative real root z:
    (1, 1/sqrt|z|); conjugate pair z: ((x - Re z v 0) + i sqrt((Re z ^ 0)^2 +
    (Im z)^2), sqrt(-2 (Re z ^ 0)))/|z| ...) and multiplied with the
    norm-composition law, so no refactorization of intermediate polynomials
    is ever needed.  Splitting P and Q into real and imaginary parts gives
    the four-square certificate directly.
    """
    sv = ops.val(s, pos_grid)
    smax = np.max(np.abs(sv))
    if ops.val(s, 0.0) <= 0.0:
        raise NotNonnegativeError(f"s(0) = {ops.val(s, 0.0):.3g} must be positive")
    if np.min(sv) < -PRE_NEG_TOL * smax:
        raise NotNonnegativeError(
            f"s dips to {np.min(sv):.3g} on the validation grid (scale {smax:.3g})"
        )
    if len(s) == 1:
        return (np.array([np.sqrt(float(s[0]))], dtype=complex),
                np.zeros(1, dtype=complex))
    best = None
    for reals, cx in _classify_candidates(ops, s):
        P = np.ones(1, dtype=complex)
        Q = np.zeros(1, dtype=complex)
        for r, mult in sorted(reals):
            if r < 0:
                f = (np.ones(1, dtype=complex),
                     np.array([1.0 / np.sqrt(abs(r))], dtype=complex))
                for _ in range(mult):
                    P, Q = _quaternion_compose(ops, (P, Q), f)
            elif r == 0:
                raise NotNonnegativeError("root at the origin; strip it first")
            else:
                f = (ops.linear(1.0, -1.0 / r).astype(complex),
                     np.zeros(1, dtype=complex))
                for _ in range(mult // 2):
                    P, Q = _quaternion_compose(ops, (P, Q), f)
        for z, mult in sorted(cx, key=lambda zm: (zm[0].real, zm[0].imag)):
            re, im, az = z.real, z.imag, abs(z)
            rp, rn = max(re, 0.0), min(re, 0.0)
            f = (
                ops.linear((-rp + 1j * math.hypot(rn, im)) / az, 1.0 / az),
                np.array([np.sqrt(-2.0 * rn) / az], dtype=complex),
            )
            for _ in range(mult):
                P, Q = _quaternion_compose(ops, (P, Q), f)
        i0 = int(np.argmax(np.abs(sv)))
        x0 = pos_grid[i0]
        den = abs(ops.val(P, x0)) ** 2 + x0 * abs(ops.val(Q, x0)) ** 2
        factor = sv[i0] / den
        if factor <= 0:
            continue
        root = np.sqrt(factor)
        P, Q = P * root, Q * root
        rec = (np.abs(ops.val(P, pos_grid)) ** 2
               + pos_grid * np.abs(ops.val(Q, pos_grid)) ** 2)
        resid = float(np.max(np.abs(rec - sv)))
        if best is None or resid < best[0]:
            best = (resid, P, Q)
        if resid <= 1e-13 * smax:
            break
    if best is None:
        raise NotNonnegativeError("inconsistent sign while scaling the certificate")
    _, P, Q = best
    # conjugation fixes the rotational ambiguity: imaginary leads nonnegative
    if len(P) and P[-1].imag < 0:
        P = np.conj(P)
    if len(Q) and Q[-1].imag < 0:
        Q = np.conj(Q)
    return P, Q


# ---------------------------------------------------------------------------
# public operation (monomial basis)
# ---------------------------------------------------------------------------

def _root_scale(coeffs: np.ndarray) -> float:
    """Fujiwara-style root-modulus bound, capped for grid construction."""
    c = np.abs(np.asarray(coeffs, float))
    n = len(c) - 1
    if n == 0:
        return 1.0
    with np.errstate(divide="ignore"):
        scale = 2.0 * max((c[n - k] / c[n]) ** (1.0 / k) for k in range(1, n + 1))
    return float(min(scale, 1e6))


def _sign_normalized(p: Poly) -> Poly:
    """Flip sign so the leading coefficient is nonnegative (squares unchanged)."""
    if p.coeffs[-1] < 0:
        return Poly(-p.coeffs)
    return p


def sos_decompose(s: Poly) -> SosQuadruple:
    """Half-line certificate s = a1^2 + a2^2 + x*(a3^2 + a4^2).

    Roots at the origin are stripped first, so monomials like s = x work; the
    reduced polynomial must be nonnegative on the half-line (up to
    PRE_NEG_TOL relative, checked on a validation grid).
    """
    c = np.array(s.coeffs)
    mx = np.max(np.abs(c))
    if mx == 0.0:
        z = Poly(np.zeros(1))
        return SosQuadruple(z, z, z, z)
    m0 = 0
    while m0 < len(c) - 1 and abs(c[m0]) <= 1e-13 * mx:
        m0 += 1
    c = c[m0:]
    grid = np.linspace(0.0, max(4.0 * _root_scale(c), 1e-6), 2001)
    P, Q = _certificate_engine(MONOMIAL, c, grid)
    p1, q1 = np.real(P), np.imag(P)
    p2, q2 = np.real(Q), np.imag(Q)
    e, rem = divmod(m0, 2)
    xe = np.zeros(e + 1)
    xe[e] = 1.0
    if rem == 0:
        quad = (
            np.convolve(xe, p1), np.convolve(xe, q1),
            np.convolve(xe, p2), np.convolve(xe, q2),
        )
    else:
        # s = x^(2e+1) * r = (x^(e+1))^2 * b2-part + x * (x^e)^2 * b1-part
        xe1 = np.zeros(e + 2)
        xe1[e + 1] = 1.0
        quad = (
            np.convolve(xe1, p2), np.convolve(xe1, q2),
            np.convolve(xe, p1), np.convolve(xe, q1),
        )
    a1, a2, a3, a4 = (_sign_normalized(Poly(arr)) for arr in quad)
    return SosQuadruple(a1=a1, a2=a2, a3=a3, a4=a4)


# ---------------------------------------------------------------------------
# Chebyshev entry point for the weight pipeline
# ---------------------------------------------------------------------------

def halfline_certificate_cheb(w_coeffs: np.ndarray, vmax: float):
    """Certificate pieces for s(y) given by Chebyshev coefficients on [-1, 1]
    with s >= 0 for y >= 0, active interval [0, 1], and s(0) > 0.

    Returns four coefficient arrays (A1, A2, A3, A4) in the shifted basis
    T_k(2y - 1) with s(y) = A1^2 + A2^2 + y (A3^2 + A4^2); degree(A1,2) <=
    deg s and degree(A3,4) <= deg s - 1.  Runs the one-pass complex
    composition, so the only root-finding happens on s itself; validation
    and probe grids stay on the active interval, where positivity is a value
    statement (outside it is carried by the factor structure).
    """
    s = _trim_tail(np.asarray(w_coeffs, dtype=float), vmax)
    # re-express on the active interval: exact for polynomials of this degree
    if len(s) > 1:
        shifted = _cheb.chebinterpolate(
            lambda u: _cheb.chebval((np.asarray(u) + 1.0) / 2.0, s), len(s) - 1
        )
    else:
        shifted = np.array(s, dtype=float)
    # nonnegativity at +infinity needs a positive leading coefficient; a
    # noise-scale negative lead would force a lone far real root
    while len(shifted) > 1 and shifted[-1] <= 0.0:
        if abs(shifted[-1]) > 1e-10 * vmax:
            break
        shifted = shifted[:-1]
    grid = np.linspace(0.0, 1.01, 3001)
    P, Q = _certificate_engine(CHEB_SHIFTED, shifted, grid)
    return np.real(P), np.imag(P), np.real(Q), np.imag(Q)
