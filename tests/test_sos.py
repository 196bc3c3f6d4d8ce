import numpy as np
import pytest

from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as npmono

from frdecomp.sos import (
    NotNonnegativeError,
    cheb_from_third_kind,
    halfline_certificate_cheb,
)


def _cheb_certificate(mono):
    """halfline_certificate_cheb for s(y) = sum mono[k] y^k; returns the four
    pieces and their evaluation at y on the shifted basis T_k(2y - 1)."""
    s = npcheb.poly2cheb(np.asarray(mono, dtype=float))
    pieces = halfline_certificate_cheb(s, float(np.sum(np.abs(mono))))
    return pieces, lambda k, y: npcheb.chebval(2.0 * y - 1.0, pieces[k])


def _scaled_certificate(mono, xs, span=8.0):
    """Certificate of s(x) = sum mono[k] x^k through s(span * y), whose
    active interval y in [0, 1] is x in [0, span]; returns the reconstruction
    at xs and s at xs."""
    mono = np.asarray(mono, dtype=float)
    _, val = _cheb_certificate(mono * span ** np.arange(len(mono)))
    y = np.asarray(xs, dtype=float) / span
    rec = val(0, y) ** 2 + val(1, y) ** 2 + y * (val(2, y) ** 2 + val(3, y) ** 2)
    ref = npmono.polyval(xs, mono)
    return rec, ref


def _residual(mono, xs):
    rec, ref = _scaled_certificate(mono, xs)
    return float(np.max(np.abs(rec - ref)) / np.max(np.abs(ref)))


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
    return c


def test_cheb_from_third_kind_matches_closed_form():
    # V_j(cos x) = cos((j + 1/2) x) / cos(x / 2), the basis of the half-shift
    # certificates and of the odd part of the spectral factor
    rng = np.random.default_rng(3)
    v = rng.standard_normal(40)
    x = np.linspace(0.0, 3.0, 301)
    want = np.cos(np.outer(x, np.arange(40) + 0.5)) @ v / np.cos(0.5 * x)
    got = npcheb.chebval(np.cos(x), cheb_from_third_kind(v))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(v))


def test_halfline_single_negative_root():
    # s = 1 + y: the negative root feeds the y-slot alone
    pieces, _ = _cheb_certificate([1.0, 1.0])
    assert all(len(np.trim_zeros(a, "b")) <= 1 for a in pieces)
    assert sorted(abs(a[0]) for a in pieces[:2]) == pytest.approx([0.0, 1.0])
    assert sorted(abs(a[0]) for a in pieces[2:]) == pytest.approx([0.0, 1.0])


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
    # s(0) must clear 64 eps of the coefficient scale: a root at the origin
    # is rejected however rounding leaves s(0) after the re-expression on
    # [0, 1] (+1.1e-16 for y, 0 for y + y^2, -1.1e-16 for y^2)
    for mono in ([0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]):
        with pytest.raises(NotNonnegativeError, match="must be positive"):
            _cheb_certificate(mono)


def test_halfline_rejects_negative():
    with pytest.raises(NotNonnegativeError):
        _cheb_certificate([1.0, -5.0, 1.0])  # dips below 0 on y >= 0


def test_halfline_rejects_shallow_dip():
    # s(y) = (y - 1/2)^2 - 1e-8 is positive at 0 and its roots factor
    # cleanly, so only the validation grid sees the dip; without it the
    # engine would fit a certificate and fail on its residual instead
    with pytest.raises(NotNonnegativeError, match="dips"):
        _cheb_certificate([0.25 - 1e-8, -1.0, 1.0])


def test_sos_randomized_property():
    # randomized soundness: nonnegative-by-construction inputs, degrees <= 24
    rng = np.random.default_rng(42)
    xs = np.linspace(0.0, 8.0, 300)
    n_cases = 10_000
    worst = 0.0
    for _ in range(n_cases):
        s = _random_halfline_nonneg(rng, min_sep=0.05)
        worst = max(worst, _residual(s, xs))
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
        residuals.append(_residual(s, xs))
    residuals = np.array(residuals)
    assert residuals.max() < 1e-4, f"worst residual {residuals.max():.3e}"
    assert np.median(residuals) < 1e-12


def test_sos_parameter_stability_across_collision():
    # s_u = ((x-1)^2 + u)^2 (x+3): a fourfold tangency at u = 0 where roots
    # move between the real axis (u < 0) and conjugate pairs (u > 0); the
    # input stays nonnegative throughout, and the reconstructed values must
    # vary continuously in u even when certificate branches swap
    xs = np.array([0.3, 0.7, 1.0, 1.9])
    last = None
    for u in np.linspace(-0.04, 0.04, 41):
        q = np.array([1.0 + u, -2.0, 1.0])  # (x-1)^2 + u
        s = np.convolve(np.convolve(q, q), [3.0, 1.0])
        vals, ref = _scaled_certificate(s, xs)
        assert np.max(np.abs(vals - ref)) < 1e-6 * np.max(np.abs(ref))
        if last is not None:
            assert np.max(np.abs(vals - last)) < 0.05
        last = vals
