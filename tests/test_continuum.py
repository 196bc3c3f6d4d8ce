import math

import numpy as np
import pytest

from frdecomp.continuum import (
    RadialKernel,
    _radial_inverse_transform,
    c3_bump,
    continuum_reconstruct,
    export_radial_csv,
    mollify,
    radial_autoconvolution,
    radial_kernel,
)
from frdecomp.lattice import log_simpson_grid
from frdecomp.weights import (
    SHARPNESS,
    build_bump_profile,
    c0_constant,
    continuum_partition_integral,
)


def test_continuum_partition_identity(profile_half):
    for gamma in (1.0, 0.5):
        for lam in (0.05, 1.0, 20.0):
            val = continuum_partition_integral(lam, gamma, profile_half)
            assert val == pytest.approx(1.0, abs=1e-6)


def test_partition_homogeneity(profile_half):
    # errors at lambda and 4 lambda agree to quadrature precision
    e1 = continuum_partition_integral(1.0, 1.0, profile_half) - 1.0
    e4 = continuum_partition_integral(4.0, 1.0, profile_half) - 1.0
    assert abs(e1 - e4) < 1e-7


def test_radial_kernel_positivity_and_support(profile_half):
    for t in (2.0, 8.0):
        ker = radial_kernel(t, 3, 1.0, profile_half)
        assert ker.values[0] > 0.0
        assert ker.support_leak() <= 1e-6


def test_radial_kernel_scaling_collapse(profile_half):
    def r_half(k):
        peak = np.abs(k.values).max()
        i0 = int(np.argmax(np.abs(k.values)))
        idx = np.nonzero(np.abs(k.values) < peak / 2.0)[0]
        return k.r_grid[idx[idx > i0][0]]

    k1 = radial_kernel(1.0, 3, 1.0, profile_half)
    k4 = radial_kernel(4.0, 3, 1.0, profile_half)
    assert r_half(k4) / r_half(k1) == pytest.approx(4.0, rel=0.02)


def test_radial_kernel_l2_decay(profile_half):
    ts = np.exp(np.linspace(np.log(4.0), np.log(64.0), 7))
    norms = [radial_kernel(float(t), 3, 1.0, profile_half).l2norm_sq() for t in ts]
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert -2.3 <= slope <= -1.7


def test_radial_kernel_requires_half(profile_quarter):
    with pytest.raises(ValueError):
        radial_kernel(1.0, 3, 1.0, profile_quarter)


def _direct_kernel(t, d, gamma, profile, n_radial=512, r_max_factor=4.0):
    """The scale-t transform taken at t itself, without the scale-free table."""
    amp = math.sqrt(c0_constant(profile, gamma)) * t ** ((2.0 - gamma) / (2.0 * gamma))
    rho_max = (profile.s_max / t) ** (1.0 / gamma)
    r_max = r_max_factor * t
    r_grid = np.linspace(0.0, r_max, int(n_radial * r_max_factor) + 1)
    vals = _radial_inverse_transform(
        lambda rho: amp * profile.phi_at(rho ** gamma * t), rho_max, d, r_grid,
        rho_max * r_max / (2.0 * math.pi))
    return r_grid, vals


@pytest.mark.parametrize("d, gamma, t, n_radial", [
    (3, 1.0, 0.45, 512), (3, 1.0, 2.0, 512), (3, 1.0, 64.0, 512),
    # gamma = 1/2 transforms run over sigma up to s_max^2: a coarse r grid
    (5, 0.5, 1.0, 2), (5, 0.5, 4.0, 2),
])
def test_radial_kernel_matches_direct_transform(profile_half, d, gamma, t, n_radial):
    ker = radial_kernel(t, d, gamma, profile_half, n_radial=n_radial)
    r_grid, want = _direct_kernel(t, d, gamma, profile_half, n_radial=n_radial)
    assert np.array_equal(ker.r_grid, r_grid)
    assert np.max(np.abs(ker.values - want)) <= 1e-13 * np.max(np.abs(want))
    assert ker.band == (profile_half.s_max / t) ** (1.0 / gamma)


def test_radial_table_keyed_by_profile_content(profile_half):
    # same h, other sharpness: a table keyed without the profile's content
    # would hand back the first profile's kernel
    other = build_bump_profile(0.5, sharpness=2.0 * SHARPNESS)
    first = radial_kernel(2.0, 3, 1.0, profile_half)
    second = radial_kernel(2.0, 3, 1.0, other)
    _, want = _direct_kernel(2.0, 3, 1.0, other)
    assert np.max(np.abs(second.values - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(second.values - first.values)) > 1e-3 * np.max(np.abs(want))


def test_radial_kernel_owns_its_values(profile_half):
    # at t = 1 the scale factor is 1; the kernel must still not share the table
    first = radial_kernel(1.0, 3, 1.0, profile_half)
    want = first.values.copy()
    first.values[:] = 0.0
    second = radial_kernel(1.0, 3, 1.0, profile_half)
    assert np.array_equal(second.values, want)


def test_mollify_support_additivity_and_identity(profile_half):
    ker = radial_kernel(4.0, 3, 1.0, profile_half)
    eta = c3_bump(0.25, 3)
    mk = mollify(ker, eta, 0.25)
    assert mk.support_radius == pytest.approx(4.25)
    assert mk.support_leak() <= 1e-6
    # narrow mollifier acts like the identity in L2
    num = np.trapezoid((mk.at(ker.r_grid) - ker.values) ** 2 * ker.r_grid ** 2,
                       ker.r_grid)
    den = np.trapezoid(ker.values ** 2 * ker.r_grid ** 2, ker.r_grid)
    assert math.sqrt(num / den) <= 0.02


def test_c3_bump_normalized():
    eta = c3_bump(0.5, 3)
    r = np.linspace(0.0, 0.5, 4001)
    mass = 4.0 * np.pi * np.trapezoid(eta(r) * r ** 2, r)
    assert mass == pytest.approx(1.0, rel=1e-6)
    assert eta(0.51) == 0.0


def test_radial_autoconvolution_gaussian_oracle():
    sig = 0.7
    r = np.linspace(0.0, 6.0, 1201)
    gauss = np.exp(-r ** 2 / (2 * sig ** 2)) / (2 * np.pi * sig ** 2) ** 1.5
    ker = RadialKernel(t=1.0, d=3, gamma=1.0, r_grid=r, values=gauss,
                       support_radius=6.0, band=10.0)
    lags = np.array([0.0, 0.5, 1.0, 2.0])
    got = radial_autoconvolution(ker, lags)
    want = np.exp(-lags ** 2 / (4 * sig ** 2)) / (4 * np.pi * sig ** 2) ** 1.5
    assert np.allclose(got, want, rtol=1e-4)


def test_self_convolution_positive_at_zero(profile_half):
    ker = radial_kernel(2.0, 3, 1.0, profile_half)
    assert radial_autoconvolution(ker, np.array([0.0]))[0] >= 0.0


def test_continuum_reconstruction(profile_half):
    grid = log_simpson_grid(0.45, 48.0, 39)
    rs = np.array([1.0, 2.0, 4.0])
    vals, info = continuum_reconstruct(3, grid, rs, profile_half)
    for r in rs:
        assert 4.0 * math.pi * r * vals[float(r)] == pytest.approx(1.0, abs=0.02)
    # the limit function is monotone decreasing
    assert vals[1.0] > vals[2.0] > vals[4.0]


def test_export_radial_csv(tmp_path, profile_half):
    ker = radial_kernel(1.0, 3, 1.0, profile_half)
    path = str(tmp_path / "radial.csv")
    export_radial_csv(path, ker)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "r,value"
    assert len(lines) == len(ker.r_grid) + 1
