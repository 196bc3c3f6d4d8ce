"""Real polynomials in the monomial basis: evaluation and affine composition.

Coefficients are stored ascending (coeffs[k] multiplies x**k).  The degree of a
polynomial is determined up to a relative zero tolerance: trailing coefficients
below ZERO_TOL * max|coeff| are discarded on construction, so rounding debris
from Chebyshev sums does not inflate degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_TOL = 1e-14          # relative trailing-coefficient tolerance for degree


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
