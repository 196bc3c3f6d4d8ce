import math
from collections import deque

import numpy as np
import pytest

from box_oracle import fft_spectrum
from frdecomp.field import (
    FieldSampler,
    export_percolation_csv,
    percolation_probe,
    sweep_levels,
    _sweep_sample,
)
from frdecomp.lattice import greens_reconstruct


@pytest.fixture(scope="module")
def sampler(spec_gff3, gff3):
    return FieldSampler(spec_gff3, gff3, core=8, t_max=6.0, n_scales=9,
                        method="spectral")


@pytest.fixture(scope="module")
def sampler_direct(spec_gff3, gff3):
    return FieldSampler(spec_gff3, gff3, core=8, t_max=4.0, n_scales=7,
                        method="perscale")


def test_fresh_samplers_agree(spec_gff3, gff3):
    # two samplers built apart give the same field: the CLI relies on it
    draw = lambda: FieldSampler(spec_gff3, gff3, core=6, t_max=4.0,
                                n_scales=7).sample(3, 0).values
    smp = draw()
    assert smp.shape == (6, 6, 6)
    assert np.array_equal(smp, draw())


def test_determinism(sampler):
    a = sampler.sample(seed=9, index=5).values
    b = sampler.sample(seed=9, index=5).values
    assert np.array_equal(a, b)
    c = sampler.sample(seed=9, index=6).values
    assert not np.array_equal(a, c)


def test_backends_agree_on_variance(spec_gff3, gff3, sampler):
    direct = FieldSampler(spec_gff3, gff3, core=8, t_max=6.0, n_scales=9,
                          method="perscale")
    assert direct.variance_origin() == pytest.approx(sampler.variance_origin(),
                                                     rel=1e-10)


def test_variance_matches_truncated_reconstruction(spec_gff3, gff3, sampler):
    grid = (sampler.t_nodes, sampler.t_weights)
    rec, _ = greens_reconstruct(spec_gff3, gff3, grid, [(0, 0, 0)], tail=False)
    assert sampler.variance_origin() == pytest.approx(rec[(0, 0, 0)], rel=1e-9)


def test_truncation_monotonicity(spec_gff3, gff3):
    v16 = FieldSampler(spec_gff3, gff3, core=4, t_max=16.0, n_scales=13,
                       method="perscale").variance_origin()
    v32 = FieldSampler(spec_gff3, gff3, core=4, t_max=32.0, n_scales=17,
                       method="perscale").variance_origin()
    assert v16 < v32


def test_empirical_covariance(spec_gff3, gff3, sampler):
    grid = (sampler.t_nodes, sampler.t_weights)
    lags = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    rec, _ = greens_reconstruct(spec_gff3, gff3, grid, lags, tail=False)
    N = 3000
    acc = {x: 0.0 for x in lags}
    c = sampler.core // 2
    for i in range(N):
        v = sampler.sample(seed=31, index=i).values
        f0 = v[c, c, c]
        acc[(0, 0, 0)] += f0 * f0
        acc[(1, 0, 0)] += f0 * v[c + 1, c, c]
        acc[(1, 1, 0)] += f0 * v[c + 1, c + 1, c]
    se = 2.0 * rec[(0, 0, 0)] / math.sqrt(N)
    for x in lags:
        assert abs(acc[x] / N - rec[x]) < 3.0 * se


@pytest.mark.parametrize("model,d,core", [("gff", 3, 4), ("gff", 3, 5),
                                          ("membrane", 5, 2)])
def test_spectral_law_is_the_circulant_covariance(request, model, d, core):
    # Feed every unit complex noise vector through the spectral transform:
    # the Gram matrix of the images is the exact covariance of the core box,
    # to be compared with the circulant covariance of the padded torus.
    spec = request.getfixturevalue(f"spec_{model}{d}")
    fam = request.getfixturevalue(f"{model}{d}")
    s = FieldSampler(spec, fam, core=core, t_max=2.0, n_scales=3)
    assert s.side == core + 2  # side 6, side 7 (odd), side 4
    shape = s._amplitude.shape
    m = int(np.prod(shape))
    eye = np.eye(m).reshape((m,) + shape)
    images = s._core_field(np.concatenate([eye, 1j * eye])).reshape(2 * m, -1)
    cov = images.T @ images
    circ = np.fft.irfftn(s._spectrum ** 2, s=(s.side,) * d, axes=tuple(range(d)))
    sites = np.indices((core,) * d).reshape(d, -1)
    lags = (sites[:, :, None] - sites[:, None, :]) % s.side
    assert np.max(np.abs(cov - circ[tuple(lags)])) <= 1e-13 * circ[(0,) * d]
    # the pruned inverse is irfftn followed by the crop, bit for bit
    noise = np.random.default_rng(3).standard_normal(shape + (2,)).view(complex)[..., 0]
    full = np.fft.irfftn(noise * s._amplitude, s=(s.side,) * d, axes=tuple(range(d)))
    assert np.array_equal(s._core_field(noise), full[(slice(s.pad, s.pad + core),) * d])


@pytest.mark.parametrize("model,d,core,t_max,n_scales", [
    ("gff", 3, 16, 12.0, 13), ("gff", 3, 32, 12.0, 13), ("gff", 3, 16, 32.0, 33),
    ("membrane", 5, 6, 8.0, 7)])
def test_spectrum_matches_fft_of_expanded_slices(request, model, d, core, t_max,
                                                 n_scales):
    # the scale series evaluated on the rfft grid against the FFT of every
    # channel of every expanded slice; pad is the largest slice radius
    spec = request.getfixturevalue(f"spec_{model}{d}")
    fam = request.getfixturevalue(f"{model}{d}")
    s = FieldSampler(spec, fam, core=core, t_max=t_max, n_scales=n_scales)
    ref, radius = fft_spectrum(spec, fam, s.t_nodes, s.t_weights, s.side)
    assert s.pad == radius
    assert np.max(np.abs(s._spectrum - ref)) <= 2e-15 * np.max(ref)


def test_scale_contributions_independent(sampler_direct):
    # empirical covariance between per-scale contributions at the origin
    # should vanish: the noise streams are keyed by scale
    s = sampler_direct
    N = 1200
    c = s.core // 2
    n_layers = len(s.slices) + 1
    contribs = np.zeros((N, n_layers))
    for i in range(N):
        # recompute the per-layer pieces by differencing partial sums
        pieces = []
        xi0 = s._noise(21, i, 0, 0, (s.core,) * 3)
        pieces.append(math.sqrt(s.var0) * xi0[c, c, c])
        for k, (slc, w) in enumerate(zip(s.slices, s.t_weights)):
            r = slc.box_radius
            side = s.core + 2 * r
            total = 0.0
            for ch, (offs, valsq) in enumerate(s._offsets[k]):
                xi = s._noise(21, i, k + 1, ch, (side,) * 3)
                for z, qv in zip(offs, valsq):
                    total += qv * xi[tuple(int(zc) + r + c for zc in z)]
            pieces.append(math.sqrt(w) * total)
        contribs[i] = pieces
    cov = np.cov(contribs.T)
    sd = np.sqrt(np.diag(cov))
    for i in range(n_layers):
        for j in range(i + 1, n_layers):
            if sd[i] == 0 or sd[j] == 0:
                continue
            corr = cov[i, j] / (sd[i] * sd[j])
            assert abs(corr) < 3.0 / math.sqrt(N)


def test_finite_range_coupling(spec_gff3, gff3):
    # core 16 leaves 3,367 sites beyond rho + pad from the centre; core 8
    # leaves none
    ps = FieldSampler(spec_gff3, gff3, core=16, t_max=4.0, n_scales=7,
                      method="perscale")
    rho = 2
    a, b = ps.coupled_pair(seed=4, index=0, rho=rho)
    dist = np.abs(np.indices(a.shape) - ps.core // 2).max(axis=0)
    far = dist > rho + ps.pad
    assert np.count_nonzero(far) > 0
    assert np.array_equal(a[far], b[far])
    assert np.any(a != b)


def _bfs_sweep(values, levels):
    """Breadth-first-search reference for _sweep_sample, site by site."""
    shape, n = values.shape, values.shape[0]
    centre = (n // 2,) * values.ndim
    theta, crossing, largest = [], [], []
    for level in levels:
        seen = set()
        th = cr = False
        big = 0
        for start in np.ndindex(shape):
            if start in seen or not values[start] >= -level:
                continue
            seen.add(start)
            queue, cluster = deque([start]), [start]
            while queue:
                site = queue.popleft()
                for axis in range(len(shape)):
                    for step in (-1, 1):
                        nb = site[:axis] + (site[axis] + step,) + site[axis + 1:]
                        if (0 <= nb[axis] < n and nb not in seen
                                and values[nb] >= -level):
                            seen.add(nb)
                            queue.append(nb)
                            cluster.append(nb)
            big = max(big, len(cluster))
            if centre in cluster:
                th = any(0 in s or n - 1 in s for s in cluster)
            cr |= (any(s[0] == 0 for s in cluster)
                   and any(s[0] == n - 1 for s in cluster))
        theta.append(th)
        crossing.append(cr)
        largest.append(big / values.size)
    return theta, crossing, largest


@pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (3, 3), (3, 7), (2, 11), (5, 4)])
def test_sweep_matches_bfs_oracle(d, n):
    rng = np.random.default_rng(100 * d + n)
    levels = rng.permutation(np.concatenate([np.linspace(-1.5, 1.5, 9),
                                             [1e9, -1e9]]))
    for _ in range(3):
        vals = rng.normal(size=(n,) * d)
        out = _sweep_sample(vals, levels)
        theta, crossing, largest = _bfs_sweep(vals, levels)
        assert out["theta"].tolist() == theta
        assert out["crossing"].tolist() == crossing
        assert out["largest"].tolist() == largest


def test_percolation_extreme_levels():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(7, 7, 7))
    theta_hi, cross_hi, largest_hi = percolation_probe(vals, 1e9)
    assert theta_hi and cross_hi and largest_hi == 1.0
    theta_lo, cross_lo, largest_lo = percolation_probe(vals, -1e9)
    assert not theta_lo and not cross_lo and largest_lo == 0.0


def test_percolation_monotone_in_level():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(9, 9, 9))
    levels = np.linspace(-2.0, 2.0, 21)
    out = _sweep_sample(vals, levels)
    assert np.all(np.diff(out["theta"].astype(int)) >= 0)
    assert np.all(np.diff(out["crossing"].astype(int)) >= 0)
    assert np.all(np.diff(out["largest"]) >= -1e-15)
    # and agrees with the breadth-first-search reference at single levels
    for k in (3, 10, 17):
        theta, crossing, largest = _bfs_sweep(vals, [levels[k]])
        assert (out["theta"][k], out["crossing"][k], out["largest"][k]) == (
            theta[0], crossing[0], largest[0])


def test_percolation_known_configuration():
    # a hand-built 3x3x3 box: open path along the first axis through the
    # centre only when the level admits value -0.5
    vals = np.full((3, 3, 3), -10.0)
    vals[:, 1, 1] = -0.5
    theta, crossing, largest = percolation_probe(vals, 0.5)
    assert theta and crossing
    assert largest == pytest.approx(3.0 / 27.0)
    theta, crossing, _ = percolation_probe(vals, 0.4)
    assert not theta and not crossing


def test_sweep_levels_and_csv(tmp_path, sampler):
    levels = np.linspace(-1.0, 0.2, 7)
    res = sweep_levels(sampler, levels, n_samples=40, seed=2)
    assert [r.level for r in res] == pytest.approx(list(levels))
    thetas = [r.theta for r in res]
    assert all(a <= b + 1e-12 for a, b in zip(thetas, thetas[1:]))
    path = str(tmp_path / "perc.csv")
    export_percolation_csv(path, res)
    lines = open(path).read().strip().splitlines()
    assert len(lines) == len(levels) + 1
    res2 = sweep_levels(sampler, levels, n_samples=40, seed=2)
    assert [r.theta for r in res2] == thetas
