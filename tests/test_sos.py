import numpy as np
import pytest

from numpy.polynomial import chebyshev as npcheb

from frdecomp.poly import Poly, poly_eval
from frdecomp.sos import (
    NotNonnegativeError,
    certificate_residual,
    halfline_certificate_cheb,
    sos_decompose,
)


def _cheb_certificate(mono):
    """halfline_certificate_cheb for s(y) = sum mono[k] y^k; returns the four
    pieces and their evaluation at y on the shifted basis T_k(2y - 1)."""
    s = npcheb.poly2cheb(np.asarray(mono, dtype=float))
    pieces = halfline_certificate_cheb(s, float(np.sum(np.abs(mono))))
    return pieces, lambda k, y: npcheb.chebval(2.0 * y - 1.0, pieces[k])


def _random_halfline_nonneg(rng, max_factors=4, min_sep=0.0):
    """Product of (x + r), (x^2 + bx + c) with c > b^2/4, and squares.

    min_sep > 0 keeps the squared-factor roots separated; without it the
    draw can stack near-coincident squares whose root data is intrinsically
    ill-conditioned in double precision.
    """
    c = np.array([rng.uniform(0.2, 2.0)])
    used = []
    for _ in range(rng.integers(1, max_factors + 1)):
        kind = rng.integers(0, 3)
        if kind == 0:
            c = np.convolve(c, [rng.uniform(0.05, 3.0), 1.0])
        elif kind == 1:
            b = rng.uniform(-2.0, 2.0)
            c = np.convolve(c, [b * b / 4 + rng.uniform(0.05, 2.0), b, 1.0])
        else:
            for _ in range(64):
                r = rng.uniform(0.05, 2.5)
                if all(abs(r - u) >= min_sep for u in used):
                    break
            used.append(r)
            lin = np.array([-r, 1.0])
            c = np.convolve(c, np.convolve(lin, lin))
    return Poly(c)


def test_halfline_single_negative_root():
    # s = 1 + x: the negative root feeds the x-slot alone
    quad = sos_decompose(Poly(np.array([1.0, 1.0])))
    assert sorted(abs(a.coeffs[0]) for a in (quad.a1, quad.a2)) == pytest.approx([0.0, 1.0])
    assert sorted(abs(a.coeffs[0]) for a in (quad.a3, quad.a4)) == pytest.approx([0.0, 1.0])
    assert all(a.degree == 0 for a in (quad.a1, quad.a2, quad.a3, quad.a4))


def test_halfline_pure_imaginary_pair():
    # s = 1 + y^2 through the pipeline's shifted Chebyshev engine: p(z) =
    # 1 + z^4 has the spectral factor h = z^2 - i sqrt(2) z - 1, whose even
    # and odd parts give 1 + y^2 = (y - 1)^2 + 2y
    pieces, val = _cheb_certificate([1.0, 0.0, 1.0])
    ys = np.linspace(0.0, 1.0, 101)
    square = val(0, ys) ** 2 + val(1, ys) ** 2
    slot = val(2, ys) ** 2 + val(3, ys) ** 2
    assert np.max(np.abs(square + ys * slot - (1.0 + ys ** 2))) < 1e-12
    assert np.max(np.abs(square - (ys - 1.0) ** 2)) < 1e-12
    assert np.max(np.abs(slot - 2.0)) < 1e-12
    degs = [len(a) - 1 for a in pieces]
    assert degs[0] <= 1 and degs[1] <= 1 and degs[2] <= 0 and degs[3] <= 0


def test_halfline_mixed_expansion_oracle():
    mono = np.convolve([2.0, -2.0, 1.0], [3.0, 1.0])
    pieces, val = _cheb_certificate(mono)
    ys = np.linspace(0.0, 1.0, 400)
    rec = val(0, ys) ** 2 + val(1, ys) ** 2 + ys * (val(2, ys) ** 2 + val(3, ys) ** 2)
    ref = np.polynomial.polynomial.polyval(ys, mono)
    assert np.max(np.abs(rec - ref)) < 1e-10 * np.max(np.abs(ref))
    degs = [len(np.trim_zeros(a, "b")) - 1 for a in pieces]
    assert degs[0] <= 3 and degs[1] <= 3 and degs[2] <= 2 and degs[3] <= 2


def test_halfline_rejects_zero_at_origin():
    # the engine needs s(0) > 0; sos_decompose strips origin roots before it,
    # the pipeline entry point does not
    with pytest.raises(NotNonnegativeError, match="must be positive"):
        _cheb_certificate([0.0, 1.0, 1.0])


def test_halfline_rejects_negative():
    with pytest.raises(NotNonnegativeError):
        sos_decompose(Poly(np.array([1.0, -5.0, 1.0])))  # dips below 0 on x >= 0


def test_sos_pure_square_plus_one():
    # the spectral factor of 1 + x^4 gives 1 + x^2 = (x - 1)^2 + 2x
    s = Poly(np.array([1.0, 0.0, 1.0]))
    quad = sos_decompose(s)
    xs = np.linspace(0.0, 4.0, 100)
    assert certificate_residual(s, quad, xs) < 1e-12
    assert quad.a1.degree <= 1 and quad.a2.degree <= 1
    assert quad.a3.degree == 0 and quad.a4.degree == 0
    square = poly_eval(quad.a1, xs) ** 2 + poly_eval(quad.a2, xs) ** 2
    slot = poly_eval(quad.a3, xs) ** 2 + poly_eval(quad.a4, xs) ** 2
    assert np.max(np.abs(square - (xs - 1.0) ** 2)) < 1e-12
    assert np.max(np.abs(slot - 2.0)) < 1e-12


def test_sos_monomial_x():
    quad = sos_decompose(Poly(np.array([0.0, 1.0])))
    assert quad.a1.is_zero() and quad.a2.is_zero()
    vals = sorted([abs(v) for v in (quad.a3.coeffs[0], quad.a4.coeffs[0])])
    assert vals == pytest.approx([0.0, 1.0], abs=1e-12)


def test_sos_weight_polynomial(gff3):
    from frdecomp.weights import vt_polynomial

    v8 = vt_polynomial(8.0, gff3.params, gff3.profile)
    c = gff3.params.two_b_gamma
    s = Poly(np.array(v8.coeffs) * 0.0)
    # certificate of v_8((2B) - x) on the half-line
    from frdecomp.poly import poly_compose_affine

    s = poly_compose_affine(v8, c, -1.0)
    quad = sos_decompose(s)
    xs = np.linspace(0.0, c, 1000)
    assert certificate_residual(s, quad, xs) < 1e-8
    n = s.degree
    assert quad.a1.degree <= n and quad.a2.degree <= n
    assert quad.a3.degree <= n - 1 and quad.a4.degree <= n - 1


def test_sos_randomized_property():
    # randomized soundness: nonnegative-by-construction inputs, degrees <= 24
    rng = np.random.default_rng(42)
    xs = np.linspace(0.0, 8.0, 300)
    n_cases = 10_000
    worst = 0.0
    for _ in range(n_cases):
        s = _random_halfline_nonneg(rng, min_sep=0.05)
        quad = sos_decompose(s)
        worst = max(worst, certificate_residual(s, quad, xs))
    assert worst < 1e-8, f"worst residual {worst:.3e}"


def test_sos_randomized_degenerate_degradation():
    # unrestricted draws can stack nearly coincident squared factors whose
    # roots are ill-conditioned; the certificate should degrade gracefully,
    # never catastrophically
    rng = np.random.default_rng(42)
    xs = np.linspace(0.0, 8.0, 300)
    residuals = []
    for _ in range(2000):
        s = _random_halfline_nonneg(rng)
        quad = sos_decompose(s)
        residuals.append(certificate_residual(s, quad, xs))
    residuals = np.array(residuals)
    assert residuals.max() < 1e-4, f"worst residual {residuals.max():.3e}"
    assert np.median(residuals) < 1e-12


def test_sos_parameter_stability_across_collision():
    # s_u = ((x-1)^2 + u)^2 (x+3): a quadruple tangency at u = 0 where roots
    # move between the real axis (u < 0) and conjugate pairs (u > 0); the
    # input stays nonnegative throughout, and the reconstructed values must
    # vary continuously in u even when certificate branches swap
    xs = np.array([0.3, 0.7, 1.0, 1.9])
    last = None
    for u in np.linspace(-0.04, 0.04, 41):
        q = np.array([1.0 + u, -2.0, 1.0])  # (x-1)^2 + u
        s = Poly(np.convolve(np.convolve(q, q), [3.0, 1.0]))
        quad = sos_decompose(s)
        vals = quad.reconstruct_at(xs)
        scale = np.max(np.abs(poly_eval(s, xs)))
        assert np.max(np.abs(vals - poly_eval(s, xs))) < 1e-6 * scale
        if last is not None:
            assert np.max(np.abs(vals - last)) < 0.05
        last = vals
