"""Every benchmark check passes on correct output and fails on a wrong one.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import math

import env

env.use_checkout_sources()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from frdecomp import continuum, field, lattice, oracle, weights  # noqa: E402

LEVELS = np.linspace(-1.2, 0.4, 17)


@pytest.fixture(scope="module")
def spec():
    return lattice.ModelSpec("gff", 3)


@pytest.fixture(scope="module")
def family():
    return weights.build_weight_family(weights.WeightParams.for_model("gff", 3),
                                       weights.build_bump_profile(0.25))


@pytest.fixture(scope="module")
def small_sampler(spec, family):
    return field.FieldSampler(spec, family, core=8, t_max=4.0, n_scales=5)


# -- percolation --------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep(small_sampler):
    results = field.sweep_levels(small_sampler, LEVELS, 3, seed=11)
    fields = [small_sampler.sample(11, i).values for i in range(3)]
    return results, checks.aggregate_labelled(fields, LEVELS)


def test_percolation_reference_matches_sweep(sweep):
    results, ref = sweep
    assert checks.check_percolation(results, LEVELS, ref) == []


def test_percolation_fails_on_one_flipped_crossing_flag(sweep):
    results, ref = sweep
    k = len(LEVELS) // 2
    one_flag = -1 / 3 if results[k].crossing > 0.0 else 1 / 3  # one of three samples
    flipped = list(results)
    flipped[k] = dataclasses.replace(results[k], crossing=results[k].crossing + one_flag)
    assert checks.check_percolation(flipped, LEVELS, ref)


def test_percolation_fails_on_a_decreasing_curve(sweep):
    results, _ = sweep
    k = next(i for i, r in enumerate(results) if r.theta > 0.0)
    bent = list(results)
    bent[-1] = dataclasses.replace(results[-1], theta=results[k].theta - 1 / 3)
    th = np.array([r.theta for r in bent])
    ref = (th, np.array([r.crossing for r in bent]),
           np.array([r.largest_density for r in bent]))
    assert any("decreases" in p for p in checks.check_percolation(bent, LEVELS, ref))


# -- sampling -----------------------------------------------------------------

def test_variance_passes_and_fails_on_a_spectrum_scaled_by_1_01(spec, family):
    sampler = field.FieldSampler(spec, family, core=8, t_max=4.0, n_scales=5)
    target, _ = lattice.greens_reconstruct(spec, family,
                                           (sampler.t_nodes, sampler.t_weights),
                                           [(0, 0, 0)], tail=False)
    assert checks.check_variance(sampler.variance_origin(), target[(0, 0, 0)]) == []
    sampler._spectrum = sampler._spectrum * 1.01
    assert checks.check_variance(sampler.variance_origin(), target[(0, 0, 0)])


def test_covariances_pass_at_the_true_mean_and_fail_off_it():
    rng = np.random.default_rng(5)
    prods = rng.normal(0.3, 1.0, size=(4000, 2))
    sums, sumsq = prods.sum(axis=0), (prods ** 2).sum(axis=0)
    lags = [(0, 0, 0), (1, 0, 0)]
    assert checks.check_covariances(lags, sums, sumsq, 4000, [0.3, 0.3]) == []
    off = 0.3 + 10.0 / math.sqrt(4000)  # 10 se at unit variance
    assert len(checks.check_covariances(lags, sums, sumsq, 4000, [0.3, off])) == 1


def test_redraw_fails_on_a_one_ulp_change(small_sampler):
    a = small_sampler.sample(3, 7).values
    b = small_sampler.sample(3, 7).values
    assert checks.check_identical(a, b, "redraw") == []
    b.flat[0] = np.nextafter(b.flat[0], np.inf)
    assert checks.check_identical(a, b, "redraw")


def test_coupling_passes_at_core_16_and_fails_on_one_far_site(spec, family):
    ps = field.FieldSampler(spec, family, core=16, t_max=4.0, n_scales=7,
                            method="perscale")
    fa, fb = ps.coupled_pair(4, 0, rho=2)
    assert checks.check_coupling(fa, fb, 2, ps.pad) == []
    fb = fb.copy()
    fb[0, 0, 0] += 1.0
    assert checks.check_coupling(fa, fb, 2, ps.pad)


def test_coupling_fails_on_a_geometry_that_compares_no_site(spec, family):
    ps = field.FieldSampler(spec, family, core=8, t_max=4.0, n_scales=7,
                            method="perscale")
    fa, fb = ps.coupled_pair(4, 0, rho=2)
    assert any("compares 0 sites" in p for p in checks.check_coupling(fa, fb, 2, ps.pad))


# -- certificates -------------------------------------------------------------

def _cert_and_ref(family, t):
    cert = weights.aj_family(t, family.params, family.profile,
                             gamma_const=family.gamma_const)
    lam = checks.lambda_grid(family.params)
    return cert, lam, weights.wbar_value(t, lam, family.params, family.profile)


def test_certificate_fails_on_one_perturbed_coefficient(family):
    cert, lam, ref = _cert_and_ref(family, 8.0)
    assert checks.check_certificate(cert, 8.0, ref, lam) == []
    cheb = [a.copy() for a in cert.cheb]
    cheb[2][1] *= 1.0 + 1e-6
    bad = dataclasses.replace(cert, cheb=tuple(cheb))
    assert any("residual" in p for p in checks.check_certificate(bad, 8.0, ref, lam))


def test_certificate_fails_on_a_degree_beyond_its_bound(family):
    cert, lam, ref = _cert_and_ref(family, 8.0)
    cheb = list(cert.cheb)
    cheb[3] = np.append(cheb[3], [0.0] * (9 - len(cheb[3])))
    bad = dataclasses.replace(cert, cheb=tuple(cheb))
    assert any("degrees" in p for p in checks.check_certificate(bad, 8.0, ref, lam))


# -- Green's reconstruction ---------------------------------------------------

@pytest.fixture(scope="module")
def green_window(spec):
    lags = [(i, j, k) for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)]
    vals = oracle.GreensOracle(spec).values(lags)
    return {x: v for x, (v, _err) in vals.items()}


def test_watson_and_stencil_pass_on_the_oracle(green_window):
    assert checks.check_watson(green_window) == []
    assert checks.check_stencil(green_window, 2) == []


def test_watson_fails_on_g0_off_by_two_percent(green_window):
    rec = dict(green_window)
    rec[(0, 0, 0)] *= 1.02
    assert checks.check_watson(rec)


def test_stencil_fails_on_one_perturbed_lag(green_window):
    rec = dict(green_window)
    rec[(1, 1, 0)] += 1e-5
    assert checks.check_stencil(rec, 2)


def test_stencil_fails_on_a_window_without_interior_lags(green_window):
    assert any("0 lags" in p for p in checks.check_stencil(green_window, 0))


def test_oracle_comparison_fails_on_a_far_lag_error(green_window):
    ref = {(2, 2, 2): (green_window[(2, 2, 2)], 0.0)}
    assert checks.check_oracle(green_window, ref) == []
    rec = dict(green_window)
    rec[(2, 2, 2)] += 0.02 * checks.WATSON_G0
    assert checks.check_oracle(rec, ref)


def test_finite_range_fails_on_one_entry_outside_its_radius(spec, family):
    slc = lattice.kernel_slice(6.0, spec, family, box_radius=8)
    assert checks.check_finite_range([slc]) == []
    values = slc.field.values.copy()
    values[0, 0, 8, 8] = 1e-300  # l1 distance 8 from the centre, beyond radius
    bad = dataclasses.replace(slc, field=lattice.LatticeField(
        d=3, values=values, support_radius=slc.field.support_radius))
    assert checks.check_finite_range([bad])


def test_finite_range_fails_when_it_scans_no_entry():
    assert any("0 entries" in p for p in checks.check_finite_range([]))


def test_continuum_fails_on_a_three_percent_error():
    radii = np.linspace(1.0, 4.0, 7)
    exact = {float(r): 1.0 / (4.0 * math.pi * r) for r in radii}
    assert checks.check_continuum(exact, radii) == []
    off = dict(exact)
    off[float(radii[3])] *= 1.03
    assert checks.check_continuum(off, radii)


def test_leak_fails_on_mass_beyond_the_support():
    r = np.linspace(0.0, 4.0, 401)
    inside = continuum.RadialKernel(t=1.0, d=3, gamma=1.0, r_grid=r,
                                    values=np.where(r <= 1.0, 1.0 - r, 0.0),
                                    support_radius=1.0, band=1.0)
    assert checks.check_leaks([inside]) == []
    leaky = dataclasses.replace(inside, values=np.exp(-r * r))
    assert checks.check_leaks([leaky])
    assert checks.check_leaks([])


# -- tracer -------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them(spec, family):
    original = weights.aj_family
    assert lattice.aj_family is original
    tracer = spans.Tracer()
    tracer.install(spans.frdecomp_targets())
    try:
        assert weights.aj_family is not original
        assert lattice.aj_family is weights.aj_family
        with tracer.during("traced"):
            lattice.kernel_slice(3.0, spec, family)
        names = [s["name"] for s in tracer.spans]
        assert names.count("weights.aj_family") == 1
        assert "lattice.kernel_slice" in names
        assert "lattice.apply_cheb_in_w" in names
        metrics = tracer.layer_metrics(traced_rounds=1)
        assert metrics["lattice.kernel_slice_calls"] == 1
        assert metrics["weights.aj_family_calls"] == 1
        assert metrics["lattice.kernel_slice_s"] >= 0.0
    finally:
        tracer.uninstall()
    assert weights.aj_family is original and lattice.aj_family is original


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [
        {"id": 0, "name": "a", "phase": "traced", "start": 0.0, "end": 10.0,
         "parent": None, "counts": {}},
        {"id": 1, "name": "b", "phase": "traced", "start": 1.0, "end": 4.0,
         "parent": 0, "counts": {}},
        {"id": 2, "name": "b", "phase": "traced", "start": 5.0, "end": 6.0,
         "parent": 0, "counts": {}},
    ]
    assert tracer.self_times() == {0: 6.0, 1: 3.0, 2: 1.0}


def test_layer_metrics_add_one_set_up_to_the_mean_traced_round():
    tracer = spans.Tracer()
    tracer.spans = [
        {"id": 0, "name": "field.sampler_init", "phase": "setup", "start": 0.0,
         "end": 2.0, "parent": None, "counts": {}},
    ] + [
        {"id": i, "name": "field.sample", "phase": "traced", "start": float(i),
         "end": i + 0.5, "parent": None,
         "counts": {"field.sample_calls": 1, "field.fft_points": 21952}}
        for i in range(3, 6)
    ]
    metrics = tracer.layer_metrics(traced_rounds=3)
    assert metrics["field.sampler_init_s"] == 2.0
    assert metrics["field.sample_s"] == 0.5
    assert metrics["field.sample_calls"] == 1
    assert metrics["field.fft_points"] == 21952
    assert metrics["lattice.kernel_slice_s"] == 0
