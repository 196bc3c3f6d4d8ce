"""Constructive certificates for polynomials nonnegative on the half-line.

A polynomial s of degree n with s(y) >= 0 for y >= 0 splits as

    s(y) = a1(y)^2 + a2(y)^2 + y * (a3(y)^2 + a4(y)^2)

with deg a1, a2 <= n/2 and deg a3, a4 <= (n - 1)/2 (Polya-Szego).  The
construction goes through the even polynomial p(z) = s(z^2), which is
nonnegative on the whole real line and so equals |h(z)|^2 for the spectral
factor h(z) = prod (z - w): one root w of p from each conjugate pair, taken
in the closed upper half-plane.  The even and odd parts of h,

    h(z) = P(z^2) + z Q(z^2),

give s(y) = |P(y)|^2 + y |Q(y)|^2 for y >= 0, and the real and imaginary
parts of P and Q are the four squares.  The only root finding is on s itself.

The public operation runs the construction in the monomial basis; the
weight pipeline runs it on Chebyshev coefficients over the active interval
[0, 1], which stay well conditioned at the degrees the large scales need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _mono

from .poly import Poly, poly_eval

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


def _trim_tail(a: np.ndarray, ref: float, tol: float = 1e-14) -> np.ndarray:
    nz = np.nonzero(np.abs(a) > tol * ref)[0]
    if len(nz) == 0:
        return np.zeros(1)
    return np.array(a[: nz[-1] + 1])


# ---------------------------------------------------------------------------
# the spectral factor
# ---------------------------------------------------------------------------

def _factor_roots(r):
    """Roots of the spectral factor h of p(z) = s(z^2), from the roots r of s.

    Each root of s contributes the root of p among +-sqrt(r) that lies in
    the closed upper half-plane.  Positive real roots of s are double roots
    that rounding has split: sorted, each adjacent pair is replaced by its
    midpoint m, and h takes both sqrt(m) and -sqrt(m).
    """
    r = np.asarray(r, dtype=complex)
    w = np.sqrt(r)
    w = np.where(w.imag < 0, -w, w)
    on_axis = w.imag == 0
    pos = np.sort(r[on_axis].real)
    if len(pos) % 2:
        raise NotNonnegativeError(
            f"real root of odd multiplicity among {pos} violates nonnegativity")
    mid = np.sqrt(0.5 * (pos[0::2] + pos[1::2]))
    return np.concatenate([w[~on_axis], mid, -mid])


def _monomial_split(w):
    """(P, Q) with prod(z - w) = P(z^2) + z Q(z^2), monomial coefficients."""
    h = _mono.polyfromroots(w)
    return h[0::2], h[1::2]


def _chebyshev_split(w):
    """(P, Q) with prod(z - w) = P(z^2) + z Q(z^2), P and Q in T_j(2y - 1).

    With u = 2z^2 - 1, T_2j(z) = T_j(u) and T_2j+1(z) = z V_j(u), where
    V_0 = 1 and V_j = 2 T_j - V_j-1; collecting the V_j gives the
    alternating tail sums below.
    """
    h = _cheb.chebfromroots(w)
    h = h / np.max(np.abs(h))   # the T_n coefficient is 2^(1-n); keep |h|^2 in range
    odd = h[1::2]
    alt = (-1.0) ** np.arange(len(odd))
    tail = alt * np.cumsum((alt * odd)[::-1])[::-1]
    Q = 2.0 * tail
    Q[0] = tail[0]
    return h[0::2], Q


def _certificate_engine(s, roots, split, val, grid):
    """Complex P, Q with s = |P|^2 + y |Q|^2 for y >= 0.

    roots(s) gives the roots of s, split(w) the even and odd parts of
    prod(z - w) and val(a, y) evaluates a coefficient array; s must be
    positive at 0 and nonnegative on the validation grid.  The product is
    scaled to s where |s| peaks on the grid.
    """
    sv = val(s, grid)
    smax = np.max(np.abs(sv))
    s0 = val(s, 0.0)
    if s0 <= 0.0:
        raise NotNonnegativeError(f"s(0) = {s0:.3g} must be positive")
    if np.min(sv) < -PRE_NEG_TOL * smax:
        raise NotNonnegativeError(
            f"s dips to {np.min(sv):.3g} on the validation grid (scale {smax:.3g})"
        )
    if len(s) == 1:
        return (np.array([np.sqrt(float(s[0]))], dtype=complex),
                np.zeros(1, dtype=complex))
    P, Q = split(_factor_roots(roots(s)))
    i0 = int(np.argmax(np.abs(sv)))
    y0 = grid[i0]
    factor = sv[i0] / (abs(val(P, y0)) ** 2 + y0 * abs(val(Q, y0)) ** 2)
    if not np.isfinite(factor) or factor <= 0:
        raise NotNonnegativeError("inconsistent sign while scaling the certificate")
    root = np.sqrt(factor)
    return P * root, Q * root


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
    P, Q = _certificate_engine(c, _mono.polyroots, _monomial_split,
                               lambda a, y: _mono.polyval(y, a), grid)
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
    deg s / 2 and degree(A3,4) <= (deg s - 1) / 2.  The validation grid
    stays on the active interval, where positivity is a value statement
    (outside it is carried by the spectral factor).
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
    P, Q = _certificate_engine(
        shifted, lambda a: (_cheb.chebroots(a) + 1.0) / 2.0, _chebyshev_split,
        lambda a, y: _cheb.chebval(2.0 * np.asarray(y) - 1.0, a), grid)
    return np.real(P), np.imag(P), np.real(Q), np.imag(Q)
