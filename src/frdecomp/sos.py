"""Constructive certificates for polynomials nonnegative on the half-line.

A polynomial s of degree n with s(y) >= 0 for y >= 0 splits as

    s(y) = a1(y)^2 + a2(y)^2 + y * (a3(y)^2 + a4(y)^2)

with deg a1, a2 <= n/2 and deg a3, a4 <= (n - 1)/2 (Polya-Szego).

Everything runs on Chebyshev coefficients over the active interval [0, 1],
in the shifted basis T_k(2y - 1), which stays well conditioned at the
degrees the large scales need.  Two routes build the four squares, and both
pass through the same two gates:

* prepare_halfline trims s, re-expresses it on [0, 1] and checks it on a
  3,001-point grid of [0, 1.01]; a dip below -PRE_NEG_TOL of its size
  raises NotNonnegativeError.
* check_residual compares the four squares with s coefficient by
  coefficient; a residual above RESIDUAL_TOL of the size of s raises
  CertificateError.

The root route (halfline_certificate_cheb) works for any such s.  It goes
through the even polynomial p(z) = s(z^2), which is nonnegative on the whole
real line and so equals |h(z)|^2 for the spectral factor h(z) = prod (z - w):
one root w of p from each conjugate pair, taken in the closed upper
half-plane.  The even and odd parts of h,

    h(z) = P(z^2) + z Q(z^2),

give s(y) = |P(y)|^2 + y |Q(y)|^2 for y >= 0, and the real and imaginary
parts of P and Q are the four squares.  The only root finding is on s
itself.  Where clustered roots of s leave the residual above REFINE_TOL, a
few Newton steps on the four squares bring it down (Wilson, SIAM J. Numer.
Anal. 6:1, 1969).

The half-shift route belongs to a caller that knows the four squares in
closed form: weights.aj_family builds them at large scales from the
transform of the bump profile, with no roots, and passes them through the
same two gates.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as _cheb

PRE_NEG_TOL = 1e-10       # allowed relative dip below zero on validation grids
RESIDUAL_TOL = 1e-8       # certificate soundness target, relative to the size of s
REFINE_TOL = 1e-11        # coefficient residual, relative, that triggers Newton steps
ROUNDING_FLOOR = 64.0 * np.finfo(float).eps   # relative size of rounding noise

_Y = np.array([0.5, 0.5])  # y = (1 + T_1(2y - 1)) / 2 in the shifted basis


class NotNonnegativeError(ValueError):
    """Input fails a nonnegativity precondition."""


class CertificateError(RuntimeError):
    """A certificate misses RESIDUAL_TOL against its input."""


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


def cheb_from_third_kind(v):
    """Coefficients in T_j of sum_j v[j] V_j, for the third-kind Chebyshev
    polynomials V_0 = 1, V_j = 2 T_j - V_j-1, i.e. V_j(cos x) =
    cos((j + 1/2) x) / cos(x / 2); collecting the T_j gives alternating
    tail sums."""
    alt = (-1.0) ** np.arange(len(v))
    tail = alt * np.cumsum((alt * v)[::-1])[::-1]
    out = 2.0 * tail
    out[0] = tail[0]
    return out


def _chebyshev_split(w):
    """(P, Q) with prod(z - w) = P(z^2) + z Q(z^2), P and Q in T_j(2y - 1).

    With u = 2z^2 - 1, T_2j(z) = T_j(u) and T_2j+1(z) = z V_j(u).
    """
    h = _cheb.chebfromroots(w)
    h = h / np.max(np.abs(h))   # the T_n coefficient is 2^(1-n); keep |h|^2 in range
    return h[0::2], cheb_from_third_kind(h[1::2])


# ---------------------------------------------------------------------------
# coefficient residual and Newton refinement
# ---------------------------------------------------------------------------

def _residual(s, pieces):
    """Coefficients of s - (a1^2 + a2^2 + y (a3^2 + a4^2)), length >= len(s)."""
    a1, a2, a3, a4 = (_cheb.chebmul(a, a) for a in pieces)
    rec = _cheb.chebadd(_cheb.chebadd(a1, a2),
                        _cheb.chebmul(_Y, _cheb.chebadd(a3, a4)))
    r = _cheb.chebsub(s, rec)
    return np.concatenate([r, np.zeros(max(len(s) - len(r), 0))])


def _mul_matrix(a, rows, cols):
    """M with M @ b = chebmul(a, b)[:rows] for b of length cols.

    From T_i T_k = (T_(i+k) + T_|i-k|) / 2.
    """
    ext = np.zeros(max(rows + cols, len(a)))
    ext[:len(a)] = a
    i = np.arange(rows)[:, None]
    k = np.arange(cols)[None, :]
    M = 0.5 * (ext[np.abs(i - k)] + ext[i + k])
    diag = np.arange(1, min(rows, cols))
    M[diag, diag] += 0.5 * ext[0]
    M[0, 1:] *= 0.5
    return M


def _refine(s, pieces):
    """Up to three minimum-norm Newton steps on the four squares, kept while
    the coefficient residual decreases and stops once it is at the rounding
    floor of s."""
    best = list(pieces)
    r = _residual(s, best)
    err = np.sum(np.abs(r))
    floor = ROUNDING_FLOOR * np.sum(np.abs(s))
    for _ in range(3):
        if err <= floor:
            break
        # d(a^2) = 2 a da on the squares, d(y a^2) = 2 (y a) da on the slot
        factors = best[:2] + [_cheb.chebmul(_Y, a) for a in best[2:]]
        J = np.hstack([2.0 * _mul_matrix(f, len(r), len(a))
                       for f, a in zip(factors, best)])
        step = np.linalg.lstsq(J, r, rcond=None)[0]
        cuts = np.cumsum([len(a) for a in best])[:-1]
        trial = [a + d for a, d in zip(best, np.split(step, cuts))]
        r_trial = _residual(s, trial)
        err_trial = np.sum(np.abs(r_trial))
        if not err_trial < err:
            break
        best, r, err = trial, r_trial, err_trial
    return best


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------

def on_active_interval(a) -> np.ndarray:
    """Chebyshev coefficients on [-1, 1] re-expressed in the shifted basis
    T_k(2y - 1) of y in [0, 1]; exact for polynomials of this degree."""
    if len(a) == 1:
        return np.array(a, dtype=float)
    return _cheb.chebinterpolate(
        lambda u: _cheb.chebval((np.asarray(u) + 1.0) / 2.0, a), len(a) - 1)


def prepare_halfline(w_coeffs: np.ndarray, vmax: float):
    """The input s of either route, checked for nonnegativity.

    s(y) is given by Chebyshev coefficients on [-1, 1] and vmax is its size.
    Returns (s, y_peak, s_peak): s in the shifted basis T_k(2y - 1) with its
    noise-scale tail and negative lead dropped, and the point of the
    validation grid (3,001 points of [0, 1.01]) where |s| peaks, with its
    value.  The grid stays on the active interval, where positivity is a
    value statement; a dip below -PRE_NEG_TOL of the peak raises
    NotNonnegativeError.
    """
    shifted = on_active_interval(_trim_tail(np.asarray(w_coeffs, dtype=float), vmax))
    # nonnegativity at +infinity needs a positive leading coefficient; a
    # noise-scale negative lead would force a lone far real root
    while len(shifted) > 1 and shifted[-1] <= 0.0:
        if abs(shifted[-1]) > 1e-10 * vmax:
            break
        shifted = shifted[:-1]
    grid = np.linspace(0.0, 1.01, 3001)
    sv = _cheb.chebval(2.0 * grid - 1.0, shifted)
    i0 = int(np.argmax(np.abs(sv)))
    if np.min(sv) < -PRE_NEG_TOL * abs(sv[i0]):
        raise NotNonnegativeError(
            f"s dips to {np.min(sv):.3g} on the validation grid (scale {abs(sv[i0]):.3g})"
        )
    return shifted, float(grid[i0]), float(sv[i0])


def check_residual(s: np.ndarray, pieces) -> tuple:
    """The four squares, once their coefficient residual against s (in the
    shifted basis) is within RESIDUAL_TOL of sum |s|; CertificateError
    otherwise."""
    scale = np.sum(np.abs(s))
    err = np.sum(np.abs(_residual(s, pieces)))
    if err > RESIDUAL_TOL * scale:
        raise CertificateError(
            f"certificate residual {err / scale:.3g} exceeds {RESIDUAL_TOL:g} "
            f"at degree {len(s) - 1}")
    return tuple(pieces)


def halfline_certificate_cheb(w_coeffs: np.ndarray, vmax: float):
    """The root route: certificate pieces for s(y) given by Chebyshev
    coefficients on [-1, 1] with s >= 0 for y >= 0, active interval [0, 1],
    and s(0) > 0.

    Returns four coefficient arrays (A1, A2, A3, A4) in the shifted basis
    T_k(2y - 1) with s(y) = A1^2 + A2^2 + y (A3^2 + A4^2); degree(A1,2) <=
    deg s / 2 and degree(A3,4) <= (deg s - 1) / 2.  Positivity outside the
    validation grid is carried by the spectral factor.  s(0) must exceed
    64 eps times the sum of the absolute shifted coefficients, so that a
    root at the origin is rejected whatever its rounding.  The product is
    scaled to s where |s| peaks on the grid; when its residual is above
    REFINE_TOL, it is refined and passed through check_residual.
    """
    shifted, y0, s_peak = prepare_halfline(w_coeffs, vmax)
    scale = np.sum(np.abs(shifted))
    s0 = _cheb.chebval(-1.0, shifted)
    if s0 <= ROUNDING_FLOOR * scale:
        raise NotNonnegativeError(f"s(0) = {s0:.3g} must be positive")
    if len(shifted) == 1:
        return (np.array([np.sqrt(float(shifted[0]))]),
                np.zeros(1), np.zeros(1), np.zeros(1))
    roots = (_cheb.chebroots(shifted) + 1.0) / 2.0
    P, Q = _chebyshev_split(_factor_roots(roots))
    u0 = 2.0 * y0 - 1.0
    factor = s_peak / (abs(_cheb.chebval(u0, P)) ** 2
                       + y0 * abs(_cheb.chebval(u0, Q)) ** 2)
    if not np.isfinite(factor) or factor <= 0:
        raise NotNonnegativeError("inconsistent sign while scaling the certificate")
    P, Q = P * np.sqrt(factor), Q * np.sqrt(factor)
    pieces = [np.real(P), np.imag(P), np.real(Q), np.imag(Q)]
    if np.sum(np.abs(_residual(shifted, pieces))) > REFINE_TOL * scale:
        # below REFINE_TOL the residual is already inside RESIDUAL_TOL
        return check_residual(shifted, _refine(shifted, pieces))
    return tuple(pieces)
