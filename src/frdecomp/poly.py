"""Real polynomials in the monomial basis: evaluation, affine composition, roots.

Coefficients are stored ascending (coeffs[k] multiplies x**k).  The degree of a
polynomial is determined up to a relative zero tolerance: trailing coefficients
below ZERO_TOL * max|coeff| are discarded on construction, so rounding debris
from Chebyshev sums does not inflate degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_TOL = 1e-14          # relative trailing-coefficient tolerance for degree
ROOT_SNAP_IMAG = 1e-9     # |Im z| below this (relative) snaps a root to the real axis
ROOT_MAX_ITER = 500
ROOT_CONV_TOL = 1e-13


class RootFindingError(RuntimeError):
    """Raised when neither Aberth iteration nor the companion fallback converges."""


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    mx = np.max(np.abs(c))
    if mx == 0.0:
        return np.zeros(1)
    nz = np.nonzero(np.abs(c) > ZERO_TOL * mx)[0]
    if len(nz) == 0:
        return np.zeros(1)
    return np.array(c[: nz[-1] + 1])


@dataclass(frozen=True)
class Poly:
    """Real univariate polynomial, ascending monomial coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return poly_eval(self, x)

    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0.0


def poly_eval(p: Poly, x):
    """Horner evaluation; accepts scalars or arrays."""
    c = p.coeffs if isinstance(p, Poly) else np.asarray(p, float)
    x = np.asarray(x)
    acc = np.full(x.shape, c[-1], dtype=np.result_type(c.dtype, x.dtype))
    for k in range(len(c) - 2, -1, -1):
        acc = acc * x + c[k]
    return acc if acc.shape else acc[()]


def poly_compose_affine(p: Poly, a: float, b: float) -> Poly:
    """Coefficients of x -> p(a + b*x), by Horner in the affine argument.

    Intermediate arrays are kept untrimmed; only the result goes through the
    degree tolerance.
    """
    arg = np.array([a, b])
    acc = np.array([p.coeffs[-1]])
    for k in range(len(p.coeffs) - 2, -1, -1):
        acc = np.convolve(acc, arg)
        acc[0] += p.coeffs[k]
    return Poly(acc)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _aberth(c: np.ndarray, maxit: int = ROOT_MAX_ITER):
    """Simultaneous (Aberth-Ehrlich) iteration.  Returns roots or None on stall."""
    c = np.asarray(c, dtype=complex)
    c = c / np.max(np.abs(c))
    n = len(c) - 1
    with np.errstate(divide="ignore"):
        fuji = 2.0 * max(
            np.abs(c[n - k] / c[n]) ** (1.0 / k) for k in range(1, n + 1)
        )
    radius = min(fuji, 1.0 + np.max(np.abs(c[:-1]) / np.abs(c[-1])))
    # unevenly spread initial points; breaks symmetric stalls
    z = radius * 0.7 * np.exp(2j * np.pi * (np.arange(n) + 0.35) / n)
    z *= 0.9 + 0.2 * np.linspace(0.0, 1.0, n)
    dc = c[1:] * np.arange(1, n + 1)
    with np.errstate(all="ignore"):
        for _ in range(maxit):
            pv = _horner_complex(c, z)
            dv = _horner_complex(dc, z)
            w = pv / np.where(dv == 0, 1e-300, dv)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            corr = w / (1.0 - w * np.sum(1.0 / diff, axis=1))
            if not np.all(np.isfinite(corr)):
                return None
            z = z - corr
            if np.max(np.abs(corr) / (1.0 + np.abs(z))) < ROOT_CONV_TOL:
                return z
    return None


def _horner_complex(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full_like(z, c[-1])
    for k in range(len(c) - 2, -1, -1):
        acc = acc * z + c[k]
    return acc


def _companion_roots(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    c = c / np.max(np.abs(c))
    n = len(c) - 1
    A = np.zeros((n, n))
    if n > 1:
        A[1:, :-1] = np.eye(n - 1)
    A[:, -1] = -c[:-1] / c[-1]
    return np.linalg.eigvals(A)


def _newton_polish(c: np.ndarray, z: np.ndarray, iters: int = 3) -> np.ndarray:
    """Guarded Newton polish: a step is kept only if it shrinks |p|.

    At (near-)multiple roots the derivative is noise-level and raw Newton
    steps can catapult an already-converged iterate far away; the monotone
    guard makes polishing strictly safe.
    """
    c = np.asarray(c, dtype=complex)
    z = np.asarray(z, dtype=complex)
    dc = c[1:] * np.arange(1, len(c))
    pv = np.abs(_horner_complex(c, z))
    for _ in range(iters):
        dv = _horner_complex(dc, z)
        cand = z - _horner_complex(c, z) / np.where(dv == 0, 1e-300, dv)
        pc = np.abs(_horner_complex(c, cand))
        better = pc < pv
        z = np.where(better, cand, z)
        pv = np.where(better, pc, pv)
    return z


def _raw_roots(coeffs: np.ndarray) -> np.ndarray:
    """All complex roots of a trimmed coefficient vector (deg >= 1).

    Variable is rescaled for balance; companion-matrix eigenvalues come
    first (they resolve tight root clusters far more reliably than
    simultaneous iteration started from scratch), then a guarded Newton
    polish.  Aberth iteration is the fallback if the eigensolver fails.
    """
    c = np.asarray(coeffs, dtype=float)
    n = len(c) - 1
    if n == 1:
        return np.array([-c[0] / c[1]], dtype=complex)
    # balance the variable: x = r*y with r from the outermost coefficient ratio
    with np.errstate(divide="ignore", over="ignore"):
        r = abs(c[0] / c[n]) ** (1.0 / n) if c[0] != 0 else 1.0
    if not np.isfinite(r) or r == 0.0:
        r = 1.0
    cb = c * r ** np.arange(n + 1)
    cb = cb / np.max(np.abs(cb))
    try:
        # eigenvalues are backward-stable as a configuration; polishing them
        # one by one can collapse tight pairs and is deliberately avoided
        z = _companion_roots(cb)
    except np.linalg.LinAlgError:
        z = _aberth(cb)
        if z is None:
            raise RootFindingError("root iteration did not converge; rescale the input")
        z = _newton_polish(cb, z, iters=1)
    if not np.all(np.isfinite(z)):
        raise RootFindingError("root iteration did not converge; rescale the input")
    return z * r


def cluster_roots(roots: np.ndarray, tol: float):
    """Snap near-real roots, merge clusters within tol*(1+|z|); returns (center, count).

    A cluster whose centroid sits within the cluster tolerance of the real
    axis is snapped onto it: such a cluster either mixes conjugate partners
    (its exact centroid is real) or is a collision-tight conjugate pair, for
    which the real double root is the continuous limit.
    """
    roots = np.array(roots, dtype=complex)
    snap = np.abs(roots.imag) < ROOT_SNAP_IMAG * (1.0 + np.abs(roots))
    roots = np.where(snap, roots.real + 0.0j, roots)
    used = np.zeros(len(roots), dtype=bool)
    clusters = []
    order = np.argsort(np.abs(roots), kind="stable")
    for i in order:
        if used[i]:
            continue
        grp = [i]
        used[i] = True
        for j in order:
            if not used[j] and abs(roots[j] - roots[i]) < tol * (1.0 + abs(roots[i])):
                grp.append(j)
                used[j] = True
        center = np.mean(roots[grp])
        if abs(center.imag) < tol * (1.0 + abs(center)):
            center = center.real + 0.0j
        clusters.append((center, len(grp)))
    return clusters
