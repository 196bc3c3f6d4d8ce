import numpy as np
import pytest

from numpy.polynomial import chebyshev as npcheb

from frdecomp.poly import Poly, poly_compose_affine, poly_eval


def _cheb_T(k):
    """T_k in the monomial basis."""
    return Poly(npcheb.cheb2poly(np.eye(k + 1)[k]))


def test_eval_constant():
    assert poly_eval(Poly(np.array([1.0])), 7.3) == 1.0


def test_eval_quadratic():
    p = Poly(np.array([-1.0, 0.0, 2.0]))
    assert poly_eval(p, 0.5) == pytest.approx(-0.5, abs=1e-15)


def test_eval_chebyshev_identity():
    p = _cheb_T(8)
    x = np.cos(0.3)
    assert poly_eval(p, x) == pytest.approx(np.cos(2.4), abs=1e-12)


def test_eval_matches_naive_power_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.uniform(-1, 1, size=rng.integers(1, 12))
        p = Poly(c)
        for x in rng.uniform(-1, 1, size=5):
            naive = sum(ci * x ** i for i, ci in enumerate(p.coeffs))
            assert poly_eval(p, x) == pytest.approx(naive, rel=1e-12, abs=1e-12)


def test_chebyshev_16_trig():
    # Horner at degree 16, where the monomial coefficients reach 2^15 and
    # cancel to O(1)
    p = _cheb_T(16)
    for theta in np.linspace(0.1, 3.0, 10):
        assert poly_eval(p, np.cos(theta)) == pytest.approx(
            np.cos(16 * theta), abs=1e-10
        )


def test_compose_affine_basic():
    p = Poly(np.array([0.0, 1.0]))
    out = poly_compose_affine(p, 3.0, -1.0)
    assert np.allclose(out.coeffs, [3.0, -1.0])


def test_compose_affine_identity():
    p = Poly(np.array([0.3, -2.0, 1.1, 0.7]))
    out = poly_compose_affine(p, 0.0, 1.0)
    assert np.allclose(out.coeffs, p.coeffs)


def test_compose_affine_square():
    p = Poly(np.array([0.0, 0.0, 1.0]))
    out = poly_compose_affine(p, 1.0, 2.0)
    assert poly_eval(out, 0.7) == pytest.approx(5.76, abs=1e-12)


def test_compose_affine_inverse_property():
    rng = np.random.default_rng(3)
    p = Poly(rng.uniform(-1, 1, size=9))
    a, b = 0.7, -1.3
    back = poly_compose_affine(poly_compose_affine(p, a, b), -a / b, 1.0 / b)
    assert np.allclose(back.coeffs, p.coeffs, rtol=1e-10, atol=1e-12)
