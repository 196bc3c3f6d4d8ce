import math
import os

import numpy as np
import pytest

from frdecomp.lattice import (
    BoxOverflowError,
    LatticeField,
    ModelSpec,
    apply_R,
    apply_cheb_in_w,
    channel_norms_spectral,
    delta_field,
    flatten_cycling,
    greens_reconstruct,
    kernel_slice,
    lag_class,
    load_slice_bank,
    log_simpson_grid,
    save_slice_bank,
    slice_autocorr,
)
from frdecomp.oracle import dense_functional_calculus
from frdecomp.weights import wbar_value


def _apply_m(spec, u):
    """M = -Delta_d as the Chebyshev series (c/2)(T_0 - T_1) in W = Id - 2M/c."""
    return apply_cheb_in_w(spec, [spec.c / 2.0, -spec.c / 2.0], u)


def _dense_column(spec, F, n):
    """F(M) delta_0 on the periodic n^d box, centred like a box of radius n // 2."""
    dense = dense_functional_calculus(spec, F, n)
    centre = np.ravel_multi_index((n // 2,) * spec.d, (n,) * spec.d)
    return dense[:, centre].reshape((n,) * spec.d)


def _random_interior_field(rng, spec, R, margin=2):
    vals = np.zeros((1,) + (2 * R + 1,) * spec.d)
    inner = (slice(margin, -margin),) * spec.d
    vals[(0,) + inner] = rng.normal(size=vals[(0,) + inner].shape)
    return LatticeField(d=spec.d, values=vals, support_radius=R - margin)


def test_model_spec_constants(spec_gff3, spec_membrane5):
    assert spec_gff3.B == 12.0 and spec_gff3.c == 24.0
    assert spec_gff3.r_first_coeff == pytest.approx(2.0 * math.sqrt(3.0))
    assert spec_membrane5.B == 400.0
    assert spec_membrane5.c == pytest.approx(math.sqrt(800.0))
    # sqrt(4 (sqrt(2) - 1) d): the pointwise channel weight of R
    assert spec_membrane5.r_first_coeff == pytest.approx(
        math.sqrt(4.0 * (math.sqrt(2.0) - 1.0) * 5.0))
    assert spec_membrane5.c >= 4 * spec_membrane5.d


def test_symbol_range(spec_gff3):
    k = np.linspace(-np.pi, np.pi, 61)
    kk = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1)
    sigma = np.sum(2.0 - 2.0 * np.cos(kk), axis=-1)
    assert sigma.min() >= 0.0
    assert sigma.max() <= 4.0 * spec_gff3.d + 1e-12


def test_stencil_identity(spec_gff3):
    u = delta_field(3, 4)
    out = apply_cheb_in_w(spec_gff3, np.array([1.0]), u)
    assert np.array_equal(out.values, u.values)
    assert out.support_radius == 0


def test_stencil_laplacian_values(spec_gff3):
    u = delta_field(3, 3)
    out = _apply_m(spec_gff3, u)
    assert out.values[0, 3, 3, 3] == 2.0 * 3
    assert out.values[0, 4, 3, 3] == -1.0
    assert out.values[0, 3, 2, 3] == -1.0
    assert np.sum(np.abs(out.values)) == pytest.approx(12.0)
    assert out.support_radius == 1


def test_stencil_against_dense_matrix(spec_gff3):
    # T_3(W) applied to a delta vs the dense operator function on a 9^3
    # periodic box (supports cannot wrap)
    u = delta_field(3, 4)
    out = apply_cheb_in_w(spec_gff3, np.eye(4)[3], u)
    F = lambda lam: np.polynomial.chebyshev.chebval(1.0 - 2.0 * lam / spec_gff3.c, np.eye(4)[3])
    assert np.allclose(out.values[0], _dense_column(spec_gff3, F, 9), atol=1e-10)


def test_cheb_apply_matches_monomial(spec_gff3):
    # a random Chebyshev series through the recurrence vs the same
    # polynomial expanded in monomials of mu, by dense calculus on 11^3
    rng = np.random.default_rng(5)
    cheb = rng.uniform(-1, 1, size=6)
    via_cheb = apply_cheb_in_w(spec_gff3, cheb, delta_field(3, 5))
    as_mu = np.polynomial.Chebyshev(cheb, domain=[spec_gff3.c, 0.0]).convert(
        kind=np.polynomial.Polynomial)
    F = lambda lam: np.polynomial.polynomial.polyval(lam, as_mu.coef)
    assert np.allclose(via_cheb.values[0], _dense_column(spec_gff3, F, 11), atol=1e-12)


def test_box_overflow(spec_gff3):
    u = delta_field(3, 2)
    with pytest.raises(BoxOverflowError):
        apply_cheb_in_w(spec_gff3, np.eye(4)[3], u)


@pytest.mark.parametrize("model,d", [("gff", 3), ("membrane", 5)])
def test_r_adjoint_identity(model, d):
    spec = ModelSpec(model=model, d=d)
    rng = np.random.default_rng(7)
    R = 4
    for _ in range(10):
        u = _random_interior_field(rng, spec, R)
        v = _random_interior_field(rng, spec, R)
        Ru, Rv = apply_R(spec, u), apply_R(spec, v)
        lhs = float(np.sum(Ru.values * Rv.values))
        Mv = _apply_m(spec, v)
        rhs = spec.c * float(np.sum(u.values * v.values)) - float(
            np.sum(u.values * Mv.values))
        scale = abs(lhs) + abs(rhs) + 1.0
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_commutation_of_factor_with_laplacian(spec_gff3):
    # R*R = c Id - M commutes with M
    rng = np.random.default_rng(11)
    u = _random_interior_field(rng, spec_gff3, 5, margin=3)
    M = lambda f: _apply_m(spec_gff3, f)
    RstarR = lambda f: LatticeField(
        d=3, values=spec_gff3.c * f.values - M(f).values,
        support_radius=f.support_radius + 1)
    a = M(RstarR(u)).values
    b = RstarR(M(u)).values
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


def test_kernel_slice_small_t(spec_gff3, gff3):
    slc = kernel_slice(0.5, spec_gff3, gff3)
    from frdecomp.weights import small_t_weight

    w = small_t_weight(0.5, gff3.params, gff3.profile, gamma_const=0.0)
    expected = 0.5 ** ((2 - 1) / 2) * math.sqrt(w)
    centre = slc.field.at(np.zeros(3))
    assert centre[0] == pytest.approx(expected, rel=1e-12)
    assert np.sum(np.abs(slc.field.values)) == pytest.approx(abs(expected))
    assert slc.support_radius == 0


def test_kernel_slice_finite_range(spec_gff3, gff3):
    slc = kernel_slice(6.0, spec_gff3, gff3)
    R = slc.field.box_radius
    grids = np.meshgrid(*([np.arange(-R, R + 1)] * 3), indexing="ij")
    dist = sum(np.abs(g) for g in grids)
    for ch in range(slc.field.m):
        outside = slc.field.values[ch][dist > slc.channel_radii[ch]]
        assert np.count_nonzero(outside) == 0
    assert slc.support_radius <= 6


def test_kernel_slice_vs_dense_calculus(spec_gff3, gff3):
    slc = kernel_slice(6.0, spec_gff3, gff3)
    F = lambda lam: 6.0 * wbar_value(6.0, np.asarray(lam), gff3.params, gff3.profile)
    dense = dense_functional_calculus(spec_gff3, F, 9)
    col = dense[:, np.ravel_multi_index((4, 4, 4), (9, 9, 9))].reshape(9, 9, 9)
    for lag in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]:
        ac = slice_autocorr(slc, lag)
        ref = col[tuple(4 + np.array(lag))]
        assert ac == pytest.approx(ref, abs=1e-8 * abs(col[4, 4, 4]))


def test_greens_reconstruct_symmetry_and_positivity(spec_gff3, gff3):
    grid = log_simpson_grid(1.0, 8.0, 9)
    xs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (2, 1, 0), (-1, -2, 0)]
    rec, info = greens_reconstruct(spec_gff3, gff3, grid, xs, tail=False)
    assert rec[(1, 0, 0)] == rec[(-1, 0, 0)] == rec[(0, 1, 0)]
    assert rec[(2, 1, 0)] == rec[(-1, -2, 0)]
    assert np.all(info["norms"] >= 0.0)


def test_channel_norms_spectral_vs_direct(spec_gff3, gff3, densities):
    tables = (*densities[3], *densities[2])
    for t in (2.3, 7.7):
        direct = kernel_slice(t, spec_gff3, gff3).channel_norms_sq()
        spectral = channel_norms_spectral(spec_gff3, gff3, t, tables)
        assert np.max(np.abs(direct - spectral)) <= 1e-5 * direct.max()


def test_flatten_cycle_map_bijection(spec_gff3, gff3):
    sk = flatten_cycling(spec_gff3, gff3)
    K = sk.n_channels
    for n in (0, 2):
        for j in (1, K // 2, K):
            lo = n + (j - 1 + 0.01) / K
            hi = n + (j - 0.01) / K
            n0, j0, i0 = sk.cycle_map(lo)
            n1, j1, i1 = sk.cycle_map(hi)
            assert (n0, j0) == (n, j) and (n1, j1) == (n, j)
            assert i0 == pytest.approx(n + 0.01, abs=1e-9)
            assert i1 == pytest.approx(n + 1 - 0.01, abs=1e-9)


def test_flatten_support_and_zero_below_one(spec_gff3, gff3):
    sk = flatten_cycling(spec_gff3, gff3)
    assert sk.value(np.array([0.3, 0.0, 0.0]), 0.9) == 0.0
    assert sk.value(np.zeros(3), 1.0) == 0.0  # below sqrt(3)
    rng = np.random.default_rng(3)
    for t in (2.0, 4.7, 9.3):
        for _ in range(20):
            x = rng.uniform(-t, t, size=3)
            if np.linalg.norm(x) > t / 2.0 and sk.value(x, t) != 0.0:
                raise AssertionError(f"support leak at {x}, t={t}")


def test_flatten_mass_identity(spec_gff3, gff3):
    # integral of ||qfrak(., t)||^2 over one full cycling band equals the
    # integral of the full vector norms over the matching inner scales
    sk = flatten_cycling(spec_gff3, gff3)
    K, s0 = sk.n_channels, sk.shift
    t_lo = s0 + 2.0 * 2.0   # inner scales [2, 3)
    t_hi = s0 + 2.0 * 3.0
    lhs = sk.norm_tail_integral(t_lo, t_hi, points_per_cell=6)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    taus = 2.5 + 0.5 * nodes
    vals = [kernel_slice(float(tau), spec_gff3, gff3).total_norm_sq() for tau in taus]
    rhs = float(np.dot(weights, vals) * 0.5)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_slice_bank_roundtrip(tmp_path, spec_gff3, gff3):
    slices = [kernel_slice(t, spec_gff3, gff3) for t in (1.0, 2.0, 4.0)]
    path = os.path.join(tmp_path, "bank.bin")
    save_slice_bank(path, spec_gff3, gff3, slices)
    spec2, header, loaded = load_slice_bank(path)
    assert spec2.model == "gff" and spec2.d == 3
    assert header["family_key"] == gff3.content_key()
    for a, b in zip(slices, loaded):
        assert a.t == b.t
        assert a.channel_radii == b.channel_radii
        assert np.array_equal(a.field.values, b.field.values)
    # corruption must be detected through the sidecar hash
    with open(path, "r+b") as f:
        f.seek(-9, os.SEEK_END)
        f.write(b"\x42")
    with pytest.raises(ValueError):
        load_slice_bank(path)


def test_lag_class():
    assert lag_class((1, -2, 0)) == (2, 1, 0)
    assert lag_class((-3, 3, 1)) == (3, 3, 1)
