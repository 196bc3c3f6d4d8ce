import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from box_oracle import (
    apply_cheb_in_w_box,
    delta_field,
    dense_functional_calculus,
    slice_box,
)
from frdecomp.lattice import (
    BoxOverflowError,
    LatticeField,
    ModelSpec,
    _torus_moments,
    apply_R,
    apply_cheb_in_w,
    channel_norms_sq,
    flatten_cycling,
    greens_reconstruct,
    kernel_slice,
    lag_class,
    log_simpson_grid,
    slice_autocorr,
)
from frdecomp.weights import aj_family, wbar_value


def _apply_m(spec, u):
    """M = -Delta_d as the Chebyshev series (c/2)(T_0 - T_1) in W = Id - 2M/c."""
    return apply_cheb_in_w_box(spec, [spec.c / 2.0, -spec.c / 2.0], u)


def _mirror(orthant):
    """Full box of a field even in every coordinate, from its orthant."""
    for ax in range(orthant.ndim):
        neg = np.flip(orthant, axis=ax).take(np.arange(orthant.shape[ax] - 1), axis=ax)
        orthant = np.concatenate([neg, orthant], axis=ax)
    return orthant


def _delta_orthant(d, box_radius):
    u = np.zeros((box_radius + 1,) * d)
    u[(0,) * d] = 1.0
    return u


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
    u = _delta_orthant(3, 4)
    out = apply_cheb_in_w(spec_gff3, np.array([1.0]), u)
    assert out.shape == (1,) + u.shape
    assert np.array_equal(out[0], u)


def test_stencil_laplacian_values(spec_gff3):
    out = apply_cheb_in_w(spec_gff3, [spec_gff3.c / 2.0, -spec_gff3.c / 2.0],
                          _delta_orthant(3, 3))[0]
    assert out[0, 0, 0] == 2.0 * 3
    assert out[1, 0, 0] == out[0, 1, 0] == out[0, 0, 1] == -1.0
    assert np.sum(np.abs(_mirror(out))) == pytest.approx(12.0)
    assert np.count_nonzero(out[2:]) == np.count_nonzero(out[:, 2:]) == 0


def _t3_dense(spec):
    """T_3(W) delta_0 by dense calculus on a 9^3 periodic box (supports cannot wrap)."""
    F = lambda lam: np.polynomial.chebyshev.chebval(1.0 - 2.0 * lam / spec.c, np.eye(4)[3])
    return _dense_column(spec, F, 9)


def test_stencil_against_dense_matrix(spec_gff3):
    out = apply_cheb_in_w(spec_gff3, np.eye(4)[3], _delta_orthant(3, 4))[0]
    assert np.allclose(_mirror(out), _t3_dense(spec_gff3), atol=1e-10)


def test_box_oracle_against_dense_matrix(spec_gff3):
    out = apply_cheb_in_w_box(spec_gff3, np.eye(4)[3], delta_field(3, 4)).values[0]
    assert np.allclose(out, _t3_dense(spec_gff3), atol=1e-10)


def test_cheb_apply_matches_monomial(spec_gff3):
    # a random Chebyshev series through the recurrence vs the same
    # polynomial expanded in monomials of mu, by dense calculus on 11^3
    rng = np.random.default_rng(5)
    cheb = rng.uniform(-1, 1, size=6)
    via_cheb = _mirror(apply_cheb_in_w(spec_gff3, cheb, _delta_orthant(3, 5))[0])
    as_mu = np.polynomial.Chebyshev(cheb, domain=[spec_gff3.c, 0.0]).convert(
        kind=np.polynomial.Polynomial)
    F = lambda lam: np.polynomial.polynomial.polyval(lam, as_mu.coef)
    assert np.allclose(via_cheb, _dense_column(spec_gff3, F, 11), atol=1e-12)


@pytest.mark.parametrize("model,d", [("gff", 3), ("membrane", 5)])
def test_orthant_recurrence_matches_box_on_even_fields(model, d):
    # several series share one recurrence; an even field of support radius 2
    spec = ModelSpec(model=model, d=d)
    R, r0 = 5, 2
    rng = np.random.default_rng(13)
    u = np.zeros((R + 1,) * d)
    u[(slice(0, r0 + 1),) * d] = rng.normal(size=(r0 + 1,) * d)
    cheb = rng.uniform(-1, 1, size=(2, R - r0 + 1))
    out = apply_cheb_in_w(spec, cheb, u, support_radius=r0)
    full = LatticeField(d=d, values=_mirror(u)[None], support_radius=r0)
    for series, orthant in zip(cheb, out):
        ref = apply_cheb_in_w_box(spec, series, full).values[0]
        assert np.max(np.abs(_mirror(orthant) - ref)) <= 1e-14 * np.max(np.abs(ref))
    with pytest.raises(BoxOverflowError):
        apply_cheb_in_w(spec, np.ones(R - r0 + 2), u, support_radius=r0)


def test_box_overflow(spec_gff3):
    with pytest.raises(BoxOverflowError):
        apply_cheb_in_w(spec_gff3, np.eye(4)[3], _delta_orthant(3, 2))


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
    violations, scanned = slc.finite_range_scan()
    assert violations == 0 and scanned > 0
    assert slc.support_radius <= 6


def _mirror_symmetric(values, d):
    """Scalar channels even under every reflection; the shift channel of axis
    i even under x_i -> -1 - x_i and under the other reflections."""
    for ch in range(2 * d + 4):
        own = ch - 3 if 3 <= ch < 3 + d else ch - 4 - d if ch > 3 + d else None
        v = values[ch]
        for ax in range(d):
            if ax == own:
                w = v.take(np.arange(v.shape[ax] - 1), axis=ax)
                if not (np.array_equal(w, np.flip(w, axis=ax))
                        and not np.any(v.take(-1, axis=ax))):
                    return False
            elif not np.array_equal(v, np.flip(v, axis=ax)):
                return False
    return True


@pytest.mark.parametrize("model,d,t", [("gff", 3, t) for t in (1.0, 1.5, 6.0, 24.0, 64.0)]
                         + [("membrane", 5, t) for t in (1.5, 3.0, 6.0)])
def test_expanded_slice_matches_box_oracle(model, d, t, request):
    spec = ModelSpec(model=model, d=d)
    family = request.getfixturevalue("gff3" if model == "gff" else "membrane5")
    cert = aj_family(t, family.params, family.profile, gamma_const=family.gamma_const)
    slc = kernel_slice(t, spec, family, cert=cert)
    box = slc.field.values
    ref = slice_box(t, spec, cert, slc.box_radius)
    assert box.shape == ref.shape == (2 * d + 4,) + (2 * slc.box_radius + 1,) * d
    for got, want in zip(box, ref):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert _mirror_symmetric(box, d)
    violations, scanned = slc.finite_range_scan()
    assert violations == 0 and scanned > 0
    direct = np.sum(ref.reshape(len(ref), -1) ** 2, axis=1)
    assert np.max(np.abs(channel_norms_sq(spec, cert) - direct)) <= 1e-14 * direct.max()
    # at() reproduces the expansion's per-site arithmetic bit for bit
    R = slc.box_radius
    rng = np.random.default_rng(int(8 * t))
    sites = [np.zeros(d, int), np.full(d, -R), np.full(d, R)]
    sites += list(rng.integers(-R, R + 1, size=(200, d)))
    sites += list(np.clip(rng.integers(-2, 3, size=(50, d)), -R, R))
    for x in sites:
        assert np.array_equal(slc.at(x), slc.field.at(x))
    assert not np.any(slc.at(np.full(d, R + 1)))


@pytest.mark.parametrize("model,d,t", [("gff", 3, t) for t in (0.5, 1.0, 6.0, 24.0, 64.0)]
                         + [("membrane", 5, t) for t in (1.5, 3.0, 6.0)])
def test_total_norm_sq_matches_certificate_and_box_sum(model, d, t, request):
    # the orthant read with W applied once against the certificate's torus
    # norms and the sum of squares over the expanded box
    spec = ModelSpec(model=model, d=d)
    family = request.getfixturevalue("gff3" if model == "gff" else "membrane5")
    cert = aj_family(t, family.params, family.profile, gamma_const=family.gamma_const)
    slc = kernel_slice(t, spec, family, cert=cert)
    got = slc.total_norm_sq()
    assert got == pytest.approx(np.sum(channel_norms_sq(spec, cert)), rel=1e-14)
    assert got == pytest.approx(np.sum(slc.field.values ** 2), rel=1e-14)


def _check_reconstruct_against_direct_sums(spec, family, grid, window):
    t_nodes, t_weights = grid
    lags = sorted({lag_class(x) for x in np.ndindex((window,) * spec.d)})
    rec, info = greens_reconstruct(spec, family, grid, lags, tail=False)
    slices = [kernel_slice(float(t), spec, family) for t in t_nodes]
    for x in lags:
        want = sum(w * slice_autocorr(s, x) for s, w in zip(slices, t_weights))
        if x == (0,) * spec.d:
            want += family.small_t_mass()
        assert abs(rec[x] - want) <= 1e-13 * rec[(0,) * spec.d]
    norms = [s.total_norm_sq() for s in slices]
    assert np.allclose(info["norms"], norms, rtol=1e-14, atol=0.0)
    far = (2 * max(s.support_radius for s in slices) + 1,) + (0,) * (spec.d - 1)
    rec_far, _ = greens_reconstruct(spec, family, grid, [far], tail=False)
    assert rec_far[far] == 0.0
    assert [slice_autocorr(s, far) for s in slices] == [0.0] * len(slices)


def test_greens_reconstruct_matches_direct_summation(spec_gff3, gff3, spec_membrane5,
                                                     membrane5):
    _check_reconstruct_against_direct_sums(spec_gff3, gff3,
                                           log_simpson_grid(1.0, 16.0, 9), 7)
    _check_reconstruct_against_direct_sums(spec_membrane5, membrane5,
                                           log_simpson_grid(1.0, 4.0, 5), 4)


def test_greens_reconstruct_traced_peak(spec_gff3, gff3):
    # the scale sum is one series applied once, and the tail's periodisation
    # runs in blocks: no (lags x nodes) or (points x periods) array is held
    grid = log_simpson_grid(1.0, 64.0, 65)
    lags = list(itertools.product(range(-5, 6), repeat=3))
    greens_reconstruct(spec_gff3, gff3, grid, lags[:1])      # warm the lazy tables
    tracemalloc.start()
    try:
        greens_reconstruct(spec_gff3, gff3, grid, lags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"traced peak {peak / 1e6:.1f} MB"


def _floats_held(obj):
    """Floats in the arrays and lattice fields an object keeps as attributes."""
    held = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            held += value.size
        elif isinstance(value, LatticeField):
            held += value.values.size
    return held


@pytest.mark.parametrize("model,d,t", [("gff", 3, 24.0), ("membrane", 5, 3.0)])
def test_slice_keeps_only_its_orthants(model, d, t, request):
    family = request.getfixturevalue("gff3" if model == "gff" else "membrane5")
    slc = kernel_slice(t, ModelSpec(model=model, d=d), family)
    bound = 4 * (slc.box_radius + 1) ** d
    assert _floats_held(slc) <= bound
    assert slc.field.values.size > bound
    assert _floats_held(slc) <= bound


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
    # every image of a lag under the cube group reads the same bits, although
    # the orthant is symmetric under axis permutations only up to rounding
    grid = log_simpson_grid(1.0, 8.0, 9)
    xs = list(itertools.product(range(-4, 5), repeat=3))
    rec, info = greens_reconstruct(spec_gff3, gff3, grid, xs, tail=False)
    for x in xs:
        assert rec[x] == rec[lag_class(x)]
    # nor do the bits depend on the order in which the lags are asked for
    shuffled = [xs[i] for i in np.random.default_rng(5).permutation(len(xs))]
    assert greens_reconstruct(spec_gff3, gff3, grid, shuffled, tail=False)[0] == rec
    assert np.all(info["norms"] >= 0.0)


def test_channel_norms_spectral_vs_direct(spec_gff3, gff3, spec_membrane5, membrane5):
    # the torus-moment norms of the certificate against the slice's box sums
    cases = [(spec_gff3, gff3, t) for t in (0.5, 2.3, 7.7)]
    cases += [(spec_membrane5, membrane5, t) for t in (1.5, 3.0)]
    for spec, family, t in cases:
        cert = aj_family(t, family.params, family.profile, gamma_const=family.gamma_const)
        box = kernel_slice(t, spec, family, cert=cert).field.values
        direct = np.sum(box.reshape(len(box), -1) ** 2, axis=1)
        spectral = channel_norms_sq(spec, cert)
        assert np.max(np.abs(direct - spectral)) <= 1e-14 * direct.max()


def _torus_moments_unblocked(spec, side):
    """mu_j = E[T_j(W)] as one mean over every frequency of the torus."""
    k = 2.0 * np.pi * np.arange(side) / side
    sigma = functools.reduce(np.add.outer, [2.0 - 2.0 * np.cos(k)] * spec.d).ravel()
    return np.array([np.mean(np.cos(j * np.arccos(1.0 - 2.0 * sigma / spec.c)))
                     for j in range(side)])


@pytest.mark.parametrize("model,d,side", [("gff", 3, 40), ("membrane", 5, 20),
                                          ("gff", 3, 41)])
def test_torus_moments_match_full_mean(model, d, side):
    # the moments of the Gauss rule against the plain mean over all side^d
    # frequencies; an odd side needs every one of the side//2 + 1 nodes
    spec = ModelSpec(model=model, d=d)
    got = _torus_moments.__wrapped__(spec, side)
    assert np.max(np.abs(got - _torus_moments_unblocked(spec, side))) <= 1e-14


def test_torus_moments_traced_peak(spec_membrane5):
    # membrane d = 5 at side 94 (t = 96, degree 46) and side 258 (t = 128):
    # the rule holds n Lanczos vectors of n^2 atoms, 17.6 MB at n = 130
    for side in (94, 258):
        tracemalloc.start()
        try:
            _torus_moments.__wrapped__(spec_membrane5, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"side {side}: traced peak {peak / 1e6:.1f} MB"


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


def test_flatten_mass_identity(spec_gff3, gff3, spec_membrane5, membrane5):
    # integral of ||qfrak(., t)||^2 over one full cycling band equals the
    # integral of the full vector norms over the matching inner scales
    for spec, family in ((spec_gff3, gff3), (spec_membrane5, membrane5)):
        sk = flatten_cycling(spec, family)
        s0 = sk.shift
        t_lo = s0 + 2.0 * 2.0   # inner scales [2, 3)
        t_hi = s0 + 2.0 * 3.0
        lhs = sk.norm_tail_integral(t_lo, t_hi, points_per_cell=6)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        taus = 2.5 + 0.5 * nodes
        vals = [kernel_slice(float(tau), spec, family).total_norm_sq() for tau in taus]
        rhs = float(np.dot(weights, vals) * 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_lag_class():
    assert lag_class((1, -2, 0)) == (2, 1, 0)
    assert lag_class((-3, 3, 1)) == (3, 3, 1)
