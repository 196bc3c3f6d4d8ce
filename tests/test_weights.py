import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from frdecomp import sos
from frdecomp.sos import NotNonnegativeError
from frdecomp.weights import (
    HALF_SHIFT_T,
    WeightParams,
    _cubic_interp,
    _half_shift_pieces,
    _kappa_hat,
    _kappa_hat_transforms,
    adaptive_simpson,
    aj_family,
    build_bump_profile,
    build_weight_family,
    c0_constant,
    partial_fraction_coeffs,
    small_t_weight,
    vt_cheb_coeffs,
    wbar_value,
    wtilde,
)


def _assert_phi_sq_hat_support(p):
    # the transform of phi^2 lives on [0, 4h]: positive at 3.6h, zero at 4h;
    # at t = 10 the frequencies k/10 reach them at k = 9 and 10 for h = 1/4
    inside, edge = _kappa_hat_transforms(10.0, p, False)[0][[9, 10]]
    assert inside > 0.0 and edge == 0.0


def test_profile_invariants(profile_quarter):
    p = profile_quarter
    assert np.all(p.phi >= 0.0)
    assert all(c > 0 for c in p.cprime)
    _assert_phi_sq_hat_support(p)


def test_profile_support_arithmetic(profile_quarter, profile_half):
    # 4 * (1/4) = 1 and 4 * (1/2) = 2: at t = 10 the frequencies k/10 reach
    # 0.9 and 1.0 of the edge at k = 9, 10 and at k = 18, 20
    for p, k in ((profile_quarter, 10), (profile_half, 20)):
        vals = _kappa_hat_transforms(10.0, p, False)[0]
        assert len(vals) == k + 1
        assert vals[round(0.9 * k)] > 0.0 and vals[k] == 0.0


def test_phi_matches_full_grid_transform(profile_quarter):
    # phi sums over xi >= 0 with doubled weights; the reference runs the
    # cosine transform of kappa_hat over the whole grid [-h, h]
    p = profile_quarter
    xi = np.linspace(0.0, p.h, len(p.kappa_hat))
    xi_full = np.concatenate([-xi[:0:-1], xi])
    kap_full = np.concatenate([p.kappa_hat[:0:-1], p.kappa_hat])
    idx = np.arange(0, len(p.phi), 97)
    s = idx * p.grid_step
    ref = (np.cos(np.outer(s, xi_full)) @ kap_full * (xi[1] - xi[0])) ** 2
    assert np.max(np.abs(p.phi[idx] - ref)) <= 1e-13 * np.max(p.phi)


@pytest.mark.parametrize("name", ["profile_quarter", "profile_half",
                                  "profile_quarter_fine"])
def test_phi_matches_long_double_transform(name, request):
    # the doubled-weight trapezoid sum over xi >= 0 that the chirp-z
    # transform evaluates, taken directly with long-double cosines at every
    # 7th s-node
    p = request.getfixturevalue(name)
    n = len(p.kappa_hat)
    dxi = np.longdouble(p.h) / (n - 1)
    xi = np.arange(n, dtype=np.longdouble) * dxi
    wkap = np.where(np.arange(n) == 0, 1.0, 2.0) * p.kappa_hat.astype(np.longdouble)
    idx = np.arange(0, len(p.phi), 7)
    s = idx.astype(np.longdouble) * np.longdouble(p.grid_step)
    ref = np.empty(len(idx))
    for lo in range(0, len(idx), 256):
        blk = np.cos(np.outer(s[lo:lo + 256], xi)) * wkap
        ref[lo:lo + 256] = (blk.sum(axis=1) * dxi) ** 2
    assert np.max(np.abs(p.phi[idx] - ref)) <= 1e-15 * np.max(p.phi)


def test_profile_validation():
    # an odd n_grid puts no node at xi = 0, where the half-grid transform
    # takes its single weight: kappa_hat[0] would not be kappa_hat(0)
    for kwargs in ({"h": 0.0}, {"n_grid": 2048}, {"n_grid": 4097},
                   {"sharpness": 0.0}):
        with pytest.raises(ValueError):
            build_bump_profile(**{"h": 0.25, **kwargs})


def test_profile_build_traced_peak():
    # the chirp-z transform holds a few long-double complex arrays of its
    # FFT length, about 0.6 MB each: a build whose tables grow with the
    # product of the two grids shows here before it shows in a benchmark's
    # peak RSS
    build_bump_profile(0.25)
    tracemalloc.start()
    try:
        build_bump_profile(0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"


def test_family_build_traced_peak():
    # a profile no other test builds, then its family and certificates on
    # both routes: no per-profile table may push the peak above the build's
    tracemalloc.start()
    try:
        profile = build_bump_profile(0.25, sharpness=0.3)
        fam = build_weight_family(WeightParams.for_model("gff", 3), profile)
        for t in (1.0, 64.0, 256.0):
            aj_family(t, fam.params, profile, gamma_const=fam.gamma_const)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"


def test_phi_sq_hat_transform_convention(profile_quarter):
    # the transform of phi^2 = kappa^4 is the fourfold self-convolution of
    # kappa_hat; that table must match (1/2pi) int phi^2 e^{-i xi s} ds
    p = profile_quarter
    kap = np.concatenate([p.kappa_hat[:0:-1], p.kappa_hat])
    dxi = p.h / (len(p.kappa_hat) - 1)
    conv2 = np.convolve(kap, kap) * dxi
    conv4 = np.convolve(conv2, conv2) * dxi
    # at t = 10, k = 0, 2, 5 gives xi = 0, 0.2, 0.5
    direct = _kappa_hat_transforms(10.0, p, False)[0][[0, 2, 5]]
    table = _cubic_interp(np.array([0.0, 0.2, 0.5]), dxi, conv4[len(conv4) // 2:])
    assert np.allclose(direct, table, rtol=1e-10, atol=1e-12 * direct[0])
    s = np.arange(len(p.phi)) * p.grid_step
    quad0 = np.trapezoid(p.phi ** 2, s) / np.pi
    assert quad0 == pytest.approx(direct[0], rel=1e-10)


LADDER = [2.0 ** (k / 4.0) for k in range(33)]   # the certify ladder on [1, 256]


def _long_double_transforms(t, p, half_steps):
    """The convolutions of _kappa_hat_transforms, summed directly in long
    double over the same kappa_hat samples: phi_sq_hat at k/t and, on
    half-shift rungs, phi_hat at k/(2t)."""
    q = 2 if half_steps else 1
    m = math.ceil((len(p.kappa_hat) - 1) / (q * t * p.h))
    step = np.longdouble(1.0 / (q * t * m))
    n = math.ceil(p.h / float(step)) - 1
    kap = _kappa_hat(np.arange(-n, n + 1) * float(step), p.h, p.sharpness)
    c2 = np.convolve(kap.astype(np.longdouble), kap.astype(np.longdouble))
    count = int(math.floor(max(1.0, 4.0 * p.h) * t)) + 1
    sq = np.zeros(count)
    for k in range(count):
        off = k * q * m     # c4[4n + off] = sum_i c2[i] c2[4n + off - i]
        if off <= 4 * n:
            sq[k] = np.dot(c2[off:], c2[::-1][:len(c2) - off]) * step ** 3
    if not half_steps:
        return sq, None
    idx = 2 * n + m * np.arange(math.ceil(4.0 * p.h * t))
    return sq, np.where(idx <= 4 * n, c2[np.minimum(idx, 4 * n)] * step, 0.0)


def test_phi_sq_hat_matches_extended_precision_quadrature(profile_quarter):
    # at every frequency k/t of the certify ladder, and at the half steps of
    # its half-shift rungs, the FFT matches the direct long-double sums
    p = profile_quarter
    for t in LADDER:
        half = t >= HALF_SHIFT_T
        sq, ph = _kappa_hat_transforms(t, p, half)
        want_sq, want_ph = _long_double_transforms(t, p, half)
        assert np.max(np.abs(sq - want_sq)) <= 1e-15 * want_sq[0], t
        if half:
            assert np.max(np.abs(ph - want_ph)) <= 1e-15 * want_ph[0], t


def test_phi_sq_hat_converged_in_the_kappa_hat_step(profile_quarter,
                                                    profile_quarter_fine):
    # halving the profile's kappa_hat step halves the sampling step of the
    # transforms; at every ladder frequency they stay put
    for t in LADDER:
        half = t >= HALF_SHIFT_T
        sq, ph = _kappa_hat_transforms(t, profile_quarter, half)
        sq_fine, ph_fine = _kappa_hat_transforms(t, profile_quarter_fine, half)
        assert np.max(np.abs(sq - sq_fine)) <= 1e-15 * sq[0], t
        if half:
            assert np.max(np.abs(ph - ph_fine)) <= 1e-15 * ph[0], t


def test_c0_identity_by_quadrature(profile_half):
    c0 = c0_constant(profile_half, 1.0)
    for lam in (0.5, 1.0, 2.0):
        val = adaptive_simpson(
            lambda t: float(profile_half.phi_at(math.sqrt(lam) * t)) ** 2 * t,
            0.0, profile_half.s_max / math.sqrt(lam), rel_tol=1e-10,
        )
        assert lam * c0 * val == pytest.approx(1.0, abs=1e-6)


def test_c0_homogeneity(profile_half):
    # replacing lambda by 4 lambda scales the integral by exactly 1/4
    def integral(lam):
        return adaptive_simpson(
            lambda t: float(profile_half.phi_at(math.sqrt(lam) * t)) ** 2 * t,
            0.0, profile_half.s_max / math.sqrt(lam), rel_tol=1e-10,
        )

    assert integral(4.0) == pytest.approx(integral(1.0) / 4.0, rel=1e-8)


def test_c0_equals_odd_moment_for_integer_p(profile_half):
    assert c0_constant(profile_half, 1.0) == pytest.approx(profile_half.cprime[0], rel=1e-10)
    assert c0_constant(profile_half, 0.5) == pytest.approx(profile_half.cprime[1], rel=1e-10)


def test_partial_fraction_values():
    assert partial_fraction_coeffs(1) == pytest.approx([2.0], abs=1e-12)
    assert partial_fraction_coeffs(2) == pytest.approx([4.0, 2.0 / 3.0], abs=1e-12)


@pytest.mark.parametrize("p,x", [(1, 0.1), (1, 1.0), (1, 2.0), (2, 1.3)])
def test_partial_fraction_lattice_sum(p, x):
    # truncated-sum oracle: sum over |n| <= N of the partial fractions, with
    # the analytic tail of the n-sum added, matches (1 - cos x)^(-p)
    a = partial_fraction_coeffs(p)
    N = 100_000
    ns = np.arange(-N, N + 1)
    total = 0.0
    for j in range(p):
        power = 2 * p - 2 * j
        total += a[j] * np.sum(1.0 / (x - 2 * np.pi * ns) ** power)
        if power == 2:
            # integral tail of sum_{|n| > N} (x - 2 pi n)^{-2}
            total += a[j] * 2.0 / (4.0 * np.pi ** 2 * (N + 0.5))
    assert total == pytest.approx((1.0 - math.cos(x)) ** (-p), abs=1e-6)


def test_partial_fraction_lattice_sum_smaller_window():
    a0 = partial_fraction_coeffs(1)[0]
    for x in (0.1, 1.0, 2.0):
        ns = np.arange(-10_000, 10_001)
        total = a0 * np.sum(1.0 / (x - 2 * np.pi * ns) ** 2)
        total += a0 * 2.0 / (4.0 * np.pi ** 2 * 10_000.5)
        assert total == pytest.approx(1.0 / (1.0 - math.cos(x)), rel=1e-7)


def test_vt_degree_bound(gff3):
    beta = vt_cheb_coeffs(10.5, gff3.params, gff3.profile)
    assert len(np.trim_zeros(beta, "b")) - 1 <= 10


def test_vt_t1_constant(gff3):
    beta = vt_cheb_coeffs(1.0, gff3.params, gff3.profile)
    assert len(np.trim_zeros(beta, "b")) == 1
    p = gff3.profile
    s = np.arange(len(p.phi)) * p.grid_step
    phi_sq_hat0 = np.trapezoid(p.phi ** 2, s) / np.pi
    expected = p.cprime[0] * 2.0 * phi_sq_hat0 / (2.0 * gff3.params.B)
    assert beta[0] == pytest.approx(expected, rel=1e-10)


def test_vt_matches_periodization(gff3):
    lam = np.linspace(0.01, 12.0, 200)
    c = gff3.params.two_b_gamma
    for t in (2.5, 8.0):
        beta = vt_cheb_coeffs(t, gff3.params, gff3.profile)
        ref = wbar_value(t, lam, gff3.params, gff3.profile)
        got = np.polynomial.chebyshev.chebval(1.0 - lam ** gff3.params.gamma / c, beta)
        assert np.max(np.abs(got - ref)) < 1e-9 * np.max(ref)


def test_small_t_weight_gff(gff3):
    # gamma = 1: Gamma vanishes and w_t = wbar_1 / t below t = 1
    assert gff3.gamma_const == 0.0
    for t in (0.25, 0.5, 0.9):
        assert small_t_weight(t, gff3.params, gff3.profile, gamma_const=0.0) == \
            pytest.approx(gff3.wbar1 / t, rel=1e-12)


def test_small_t_continuity_at_one(membrane5):
    # iota(1) = 0 makes w continuous across t = 1
    w_below = small_t_weight(1.0 - 1e-9, membrane5.params, membrane5.profile,
                             gamma_const=membrane5.gamma_const)
    w_at = wbar_value(1.0, 0.0, membrane5.params, membrane5.profile)
    assert w_below == pytest.approx(w_at, rel=1e-6)


def test_small_t_telescoping(membrane5):
    # int_0^1 t^((2-gamma)/gamma) w_t dt == int_0^1 t^((2-gamma)/gamma) wbar_t dt
    expo = (2.0 - membrane5.params.gamma) / membrane5.params.gamma

    def repaired(t):
        if t <= 0:
            return 0.0
        if t >= 1.0:
            return wbar_value(1.0, 0.0, membrane5.params, membrane5.profile)
        return small_t_weight(t, membrane5.params, membrane5.profile,
                              gamma_const=membrane5.gamma_const)

    lhs = adaptive_simpson(lambda t: t ** expo * repaired(t), 0.0, 1.0,
                           rel_tol=1e-9)
    rhs = adaptive_simpson(
        lambda t: t ** expo * wbar_value(max(t, 1e-14), 0.0, membrane5.params,
                                         membrane5.profile) if t > 0 else 0.0,
        0.0, 1.0, rel_tol=1e-9,
    )
    assert lhs == pytest.approx(rhs, rel=1e-8)
    assert membrane5.gamma_const >= 0.0


@pytest.mark.parametrize("fixture", ["gff3", "membrane5"])
def test_gamma_constant_matches_quadrature(fixture, request):
    # the closed form against its defining integral under adaptive Simpson
    fam = request.getfixturevalue(fixture)
    expo = (2.0 - fam.params.gamma) / fam.params.gamma

    def defect(t):
        if t <= 0.0:
            return 0.0
        return t ** expo * (wbar_value(t, 0.0, fam.params, fam.profile) - fam.wbar1 / t)

    quad = adaptive_simpson(defect, 0.0, 1.0, rel_tol=1e-12)
    assert abs(fam.gamma_const - quad) <= 1e-10 * max(abs(quad), 1e-12 * fam.wbar1)


def test_aj_family_small_t(gff3):
    cert = aj_family(0.5, gff3.params, gff3.profile, gamma_const=0.0)
    w = small_t_weight(0.5, gff3.params, gff3.profile, gamma_const=0.0)
    assert cert.degrees == (0, 0, 0, 0)
    assert cert.cheb[0][0] == pytest.approx(math.sqrt(w), rel=1e-12)
    assert all(np.all(a == 0.0) for a in cert.cheb[1:])


def test_aj_family_reconstruction_and_degrees(gff3):
    lam = np.linspace(0.0012, 12.0, 500)
    for t in (1.5, 8.0, 33.3):
        cert = aj_family(t, gff3.params, gff3.profile, gamma_const=0.0)
        rec = cert.w_reconstruct(lam)
        ref = wbar_value(t, lam, gff3.params, gff3.profile)
        assert np.max(np.abs(rec - ref)) <= 1e-8 * np.max(np.abs(ref))
        d1, d2, d3, d4 = cert.degrees
        nf = int(math.floor(t))
        assert d1 <= nf and d2 <= nf
        assert d3 <= max(nf - 1, 0) and d4 <= max(nf - 1, 0)


def test_aj_family_raises_certificate_error(gff3, monkeypatch):
    # an odd part off by 1% leaves a residual far above RESIDUAL_TOL; with
    # refinement disabled, aj_family must raise instead of returning it
    from frdecomp import sos

    split = sos._chebyshev_split
    monkeypatch.setattr(sos, "_chebyshev_split",
                        lambda w: (split(w)[0], 1.01 * split(w)[1]))
    monkeypatch.setattr(sos, "_refine", lambda s, pieces: pieces)
    with pytest.raises(sos.CertificateError, match="exceeds"):
        aj_family(8.0, gff3.params, gff3.profile, gamma_const=0.0)


LADDER_CASES = [pytest.param(f, t, id=f"{f}-t{t:.1f}")
                for f in ("gff3", "membrane5") for t in LADDER]


@pytest.mark.parametrize("fixture, t", LADDER_CASES)
def test_aj_family_ladder(fixture, t, request):
    fam = request.getfixturevalue(fixture)
    params = fam.params
    cert = aj_family(t, params, fam.profile, gamma_const=fam.gamma_const)
    # rungs k >= 26 take the half-shift form: from t = 2^6.5 on
    assert cert.route == ("half-shift" if t >= 2.0 ** 6.5 else "roots")
    nf = int(math.floor(t))
    d1, d2, d3, d4 = cert.degrees
    assert d1 <= nf and d2 <= nf
    assert d3 <= max(nf - 1, 0) and d4 <= max(nf - 1, 0)
    lam = np.linspace(1e-4 * params.B, params.B, 1000)
    ref = wbar_value(t, lam, params, fam.profile)
    res = np.max(np.abs(cert.w_reconstruct(lam) - ref)) / np.max(np.abs(ref))
    assert res <= 1e-8, f"residual {res:.3e} at t = {t:g}"


@pytest.mark.parametrize("fixture, t", LADDER_CASES)
def test_aj_family_ladder_at_peak(fixture, t, request):
    # the ladder check's grid stops at w = 0.993 for the membrane model,
    # short of the peak of v_t at w = 1; 2,001 Chebyshev-Lobatto points of
    # the certificate's own variable w = 1 - mu/(2B)^gamma reach it
    fam = request.getfixturevalue(fixture)
    params = fam.params
    cert = aj_family(t, params, fam.profile, gamma_const=fam.gamma_const)
    w = 0.5 * (1.0 - np.cos(np.pi * np.arange(2001) / 2000))
    lam = ((1.0 - w) * params.two_b_gamma) ** (1.0 / params.gamma)
    ref = wbar_value(t, lam, params, fam.profile)
    res = np.max(np.abs(cert.w_reconstruct(lam) - ref)) / np.max(np.abs(ref))
    assert res <= 1e-8, f"residual {res:.3e} at t = {t:g}"


_THREAD_PROBE = """
import hashlib, json
import numpy as np
from frdecomp.lattice import ModelSpec, _torus_moments, channel_norms_sq
from frdecomp.weights import (WeightParams, aj_family, build_bump_profile,
                              build_weight_family)

profile = build_bump_profile(0.25)
out = {"profile": hashlib.sha256(b"".join(np.asarray(arr).tobytes() for arr in (
    profile.phi, profile.kappa_hat, profile.psi_tails, profile.cprime))).hexdigest()}
for model, d in (("gff", 3), ("membrane", 5)):
    fam = build_weight_family(WeightParams.for_model(model, d), profile)
    out[model + "-key"] = fam.content_key()
    out[model] = [hashlib.sha256(np.concatenate(
        aj_family(2.0 ** (k / 4.0), fam.params, profile).cheb).tobytes()).hexdigest()
        for k in range(33)]
    out[model + "-norms"] = [hashlib.sha256(channel_norms_sq(ModelSpec(model, d), aj_family(
        t, fam.params, profile, gamma_const=fam.gamma_const)).tobytes()).hexdigest()
        for t in (6.0, 64.0)]
out["moments-258"] = hashlib.sha256(
    _torus_moments(ModelSpec("membrane", 5), 258).tobytes()).hexdigest()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def blas_thread_runs():
    """The probe's digests with one and with two OpenBLAS threads."""
    import frdecomp

    src = os.path.dirname(os.path.dirname(os.path.abspath(frdecomp.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        res = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(json.loads(res.stdout))
    return runs


def test_profile_and_family_key_blas_thread_independent(blas_thread_runs):
    one, two = blas_thread_runs
    for key in ("profile", "gff-key", "membrane-key"):
        assert one[key] == two[key], key


def test_channel_norms_blas_thread_independent(blas_thread_runs):
    # the spectral rule under the norms runs Lanczos and a Jacobi eigensolve;
    # at side 258 (130 nodes) BLAS products in its Lanczos step would differ
    one, two = blas_thread_runs
    for key in ("gff-norms", "membrane-norms", "moments-258"):
        assert one[key] == two[key], key


@pytest.mark.parametrize("k", range(33))
def test_certificates_blas_thread_independent(blas_thread_runs, k):
    one, two = blas_thread_runs
    for model in ("gff", "membrane"):
        assert one[model][k] == two[model][k], f"{model} t = {LADDER[k]:g}"


def test_wtilde_identity_and_scaling(profile_half):
    for lam in (0.5, 1.0, 2.0):
        val = adaptive_simpson(
            lambda t: t * float(wtilde(lam, t, 1.0, profile_half)) ** 2,
            0.0, profile_half.s_max / math.sqrt(lam), rel_tol=1e-9,
        )
        assert lam * val == pytest.approx(1.0, abs=1e-6)
    # scale covariance of the argument
    assert wtilde(2.0, 3.0, 1.0, profile_half) == pytest.approx(
        float(wtilde(2.0 / 4.0, 6.0, 1.0, profile_half)), rel=1e-12)
    assert np.all(np.asarray(wtilde(np.linspace(0.1, 5, 50), 2.0, 1.0, profile_half)) >= 0.0)


def test_wtilde_requires_half_profile(profile_quarter):
    with pytest.raises(ValueError):
        wtilde(1.0, 1.0, 1.0, profile_quarter)


def test_negative_control_wide_profile(gff3, profile_half):
    # the h = 1/2 profile spreads the transform of phi^2 beyond (-1, 1); the
    # degree-floor(t) truncation must then break nonnegativity for some t
    tripped = False
    for t in np.exp(np.linspace(0.0, np.log(64.0), 17)):
        try:
            aj_family(float(t), gff3.params, profile_half)
        except NotNonnegativeError as exc:
            assert f"t = {float(t):g}" in str(exc)
            tripped = True
            break
    assert tripped
    # above the switch the half-shift route meets the same grid check: at
    # t = 128, v_t dips to -5.5e-4 on a scale of 1.37e4, where the
    # half-shift form would miss s by a coefficient residual of 0.056
    assert 128.0 >= HALF_SHIFT_T
    with pytest.raises(NotNonnegativeError, match=r"t = 128\b.*dips"):
        aj_family(128.0, gff3.params, profile_half)


def _half_shift_input(fam, t):
    beta = vt_cheb_coeffs(t, fam.params, fam.profile)
    return sos.prepare_halfline(beta, float(np.sum(beta)))[0]


@pytest.mark.parametrize("fixture", ["gff3", "membrane5"])
def test_half_shift_gate_fails_without_the_shifted_term(fixture, request):
    # the form passes at t = 128; with a2 = a3 = 0 the residual gate must
    # refuse what is left, A_0 alone
    fam = request.getfixturevalue(fixture)
    s = _half_shift_input(fam, 128.0)
    a1, a2, a3, a4 = _half_shift_pieces(128.0, fam.params, fam.profile)
    sos.check_residual(s, (a1, a2, a3, a4))
    with pytest.raises(sos.CertificateError, match="exceeds"):
        sos.check_residual(s, (a1, 0.0 * a2, 0.0 * a3, a4))


@pytest.mark.parametrize("fixture", ["gff3", "membrane5"])
def test_half_shift_gate_fails_below_the_switch(fixture, request):
    # at t = 32 the 2-point rule misses v_t by a coefficient residual of
    # about 7.6e-7, far above RESIDUAL_TOL: the gate must refuse the form
    fam = request.getfixturevalue(fixture)
    assert 32.0 < HALF_SHIFT_T
    s = _half_shift_input(fam, 32.0)
    with pytest.raises(sos.CertificateError, match="exceeds"):
        sos.check_residual(s, _half_shift_pieces(32.0, fam.params, fam.profile))


def test_params_validation():
    with pytest.raises(ValueError):
        WeightParams(gamma=0.3, B=1.0, pf_coeffs=(1.0,), model="gff")
    with pytest.raises(ValueError):
        WeightParams.for_model("membrane", 4)
    with pytest.raises(ValueError):
        WeightParams.for_model("gff", 2)


@pytest.mark.parametrize("source", ["built", "rebuilt"])
def test_profile_tables_read_only_and_key_cached(profile_quarter, source):
    # the content key is hashed once, so no table may change under it; every
    # CLI command rebuilds its profile, so a rebuild must give the same key
    prof = (profile_quarter if source == "built"
            else build_bump_profile(profile_quarter.h))
    assert prof.content_key() == profile_quarter.content_key()
    for arr in (prof.phi, prof.kappa_hat, prof.psi_tails):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    _assert_phi_sq_hat_support(prof)
    hsh = hashlib.sha256()
    for arr in (prof.phi, prof.kappa_hat):
        hsh.update(np.ascontiguousarray(arr).tobytes())
    hsh.update(f"{prof.h}:{prof.sharpness}:{prof.grid_step}:{prof.s_max}".encode())
    assert prof.content_key() == hsh.hexdigest()[:16]
