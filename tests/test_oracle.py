import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from box_oracle import dense_functional_calculus, dense_laplacian, random_walk_green_origin
from frdecomp.lattice import ModelSpec, spectral_rule
from frdecomp.oracle import (
    GreensOracle,
    _angular_average,
    _axis_rule,
    export_greens_csv,
    scalar_partition_check,
    symbol_transform,
)

WATSON_G0 = 0.2527310098586630  # (2 pi)^-3 int dk / (2 sum (1 - cos k_i)), d = 3


def test_green_watson_value(greens_oracle_gff3):
    val, err = greens_oracle_gff3.values([(0, 0, 0)])[(0, 0, 0)]
    assert val == pytest.approx(WATSON_G0, abs=1e-9)
    assert err < 1e-8


def test_green_axis_symmetry(greens_oracle_gff3):
    vals = greens_oracle_gff3.values([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    got = [v for v, _ in vals.values()]
    assert got[0] == pytest.approx(got[1], rel=1e-12)
    assert got[0] == pytest.approx(got[2], rel=1e-12)


def test_green_defining_equation(greens_oracle_gff3):
    # applying the negative lattice Laplacian to oracle values gives a delta
    def residual(centre):
        pts = [tuple(centre)]
        for ax in range(3):
            for s in (1, -1):
                nb = list(centre)
                nb[ax] += s
                pts.append(tuple(nb))
        vals = greens_oracle_gff3.values(pts)
        out = 6.0 * vals[tuple(centre)][0]
        for p in pts[1:]:
            out -= vals[p][0]
        return out

    assert residual((0, 0, 0)) == pytest.approx(1.0, abs=1e-6)
    assert residual((1, 0, 0)) == pytest.approx(0.0, abs=1e-6)
    assert residual((2, 1, 0)) == pytest.approx(0.0, abs=1e-6)


def test_green_decreases_along_axis(greens_oracle_gff3):
    vals = greens_oracle_gff3.values([(k, 0, 0) for k in range(5)])
    seq = [vals[(k, 0, 0)][0] for k in range(5)]
    assert all(a > b for a, b in zip(seq, seq[1:]))


def test_green_random_walk_cross_check(greens_oracle_gff3):
    # expected visits to the origin of simple random walk, divided by 2d
    est, se, tail = random_walk_green_origin(3, 10_000_000, seed=1)
    ref = greens_oracle_gff3.values([(0, 0, 0)])[(0, 0, 0)][0]
    assert abs(est - ref) < 4.0 * se + tail


def test_model_dimension_guards():
    # transience needs d > 2p; the model constructors enforce the stronger
    # dimension floors already
    with pytest.raises(ValueError):
        ModelSpec(model="membrane", d=4)
    with pytest.raises(ValueError):
        ModelSpec(model="gff", d=2)


def test_membrane_green_defining_equation():
    # (-Delta)^2 G = delta at the coarse d = 5 tolerance: assemble the
    # bilaplacian stencil from two applications of the Laplacian stencil;
    # only the four symmetry classes with |x|_1 <= 2 are computed
    from frdecomp.lattice import lag_class

    spec = ModelSpec(model="membrane", d=5)
    oracle = GreensOracle(spec)
    reps = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0), (1, 1, 0, 0, 0)]
    vals = oracle.values(reps)

    def g(x):
        cls = lag_class(x)
        if sum(cls) > 2:
            return 0.0  # does not enter the stencil at the origin
        return vals[cls + (0,) * (5 - len(cls))][0]

    def lap(f, x):
        out = -2.0 * 5 * f(x)
        for ax in range(5):
            for s in (1, -1):
                nb = list(x)
                nb[ax] += s
                out += f(tuple(nb))
        return -out  # -Delta

    def bilap_at_origin():
        def mid(x):
            return lap(g, x)

        return lap(mid, (0, 0, 0, 0, 0))

    assert bilap_at_origin() == pytest.approx(1.0, abs=1e-3)


def test_scalar_partition_check_discrete(gff3):
    lams = gff3.params.B * np.logspace(-2, 0, 9)
    assert scalar_partition_check(gff3, lams, T=64.0) <= 1e-3


def test_scalar_partition_check_continuum(profile_half):
    from frdecomp.weights import WeightParams, build_weight_family

    fam = build_weight_family(WeightParams.for_model("continuum-gff", 3), profile_half)
    assert scalar_partition_check(fam, np.logspace(-1, 1, 5)) <= 1e-6


def test_dense_calculus_identity_and_delta(spec_gff3):
    M = dense_functional_calculus(spec_gff3, lambda lam: lam, 5)
    direct = dense_laplacian(3, 5)
    assert np.allclose(M, direct, atol=1e-12)
    eye = dense_functional_calculus(spec_gff3, lambda lam: 1.0, 5)
    assert np.allclose(eye, np.eye(125), atol=1e-12)


def test_dense_calculus_box_cap(spec_gff3):
    with pytest.raises(ValueError):
        dense_functional_calculus(spec_gff3, lambda lam: lam, 10)  # 1000 <= cap, ok
        dense_functional_calculus(spec_gff3, lambda lam: lam, 13)


def test_spectral_density_moments():
    # the law of sigma has mass 1, mean 2d and variance 2d; the Gauss rule
    # integrates these polynomials exactly
    for d in (2, 3, 5):
        s, w = spectral_rule(d, 40)
        assert abs(np.sum(w) - 1.0) <= 1e-13
        assert abs(np.sum(w * s) - 2.0 * d) <= 1e-13
        assert abs(np.sum(w * (s - 2.0 * d) ** 2) - 2.0 * d) <= 1e-13


def test_spectral_density_vs_direct_torus():
    s, w = spectral_rule(3, 48)
    n = 48
    k = 2.0 * np.pi * np.arange(n) / n
    sig = ((2 - 2 * np.cos(k))[:, None, None]
           + (2 - 2 * np.cos(k))[None, :, None]
           + (2 - 2 * np.cos(k))[None, None, :])
    for f in (lambda x: np.exp(-x / 3.0), lambda x: 1.0 / (1.0 + x)):
        direct = float(np.mean(f(sig)))
        via = float(np.sum(w * f(s)))
        assert via == pytest.approx(direct, rel=1e-13)


def test_export_csv(tmp_path, greens_oracle_gff3):
    vals = greens_oracle_gff3.values([(0, 0, 0), (1, 0, 0)])
    path = str(tmp_path / "g.csv")
    export_greens_csv(path, vals)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "x,value,error"
    assert len(lines) == 3


def _brute_symbol_transform(d, F, xs, p, sing_coeff, levels, order, cutoff):
    """The same transform point by point on the full tensor grid, with the
    singular part integrated radially by adaptive quadrature."""
    x1, w1 = _axis_rule(levels, order)
    k = np.stack(np.meshgrid(*([x1] * d), indexing="ij"), axis=-1).reshape(-1, d)
    w = np.prod(np.stack(np.meshgrid(*([w1] * d), indexing="ij"), axis=-1)
                .reshape(-1, d), axis=1)
    sigma = np.sum(2.0 - 2.0 * np.cos(k), axis=1)
    k2 = np.sum(k * k, axis=1)
    smooth = F(sigma) - sing_coeff * np.exp(-k2 / (2.0 * cutoff ** 2)) / k2 ** p
    out = []
    for x in xs:
        box = np.sum(w * smooth * np.prod(np.cos(k * x), axis=1))
        sing = quad(lambda r: float(_angular_average(d, r * np.linalg.norm(x)))
                    * math.exp(-r * r / (2.0 * cutoff ** 2)) * r ** (d - 1 - 2 * p),
                    0.0, 12.0 * cutoff, epsabs=0.0, epsrel=2e-14, limit=200)[0]
        out.append((2.0 ** d * box + sing_coeff * sing) / (2.0 * np.pi) ** d)
    return np.array(out)


def test_angular_average_d5_matches_mpmath():
    # the closed form cancels for small z; the series below |z| = 1 must not
    z = np.concatenate([np.geomspace(1e-6, 2.0, 301), [1.0 - 1e-12, 1.0, 1e-4]])
    got = _angular_average(5, z)
    with mpmath.workdps(40):
        want = np.array([float(8 * mpmath.pi ** 2 * (mpmath.sin(v) / v - mpmath.cos(v)) / v ** 2)
                         for v in map(mpmath.mpf, z)])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


LAGS3 = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, -2, 1), (0, 4, 1)]
LAGS5 = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 1, 0, 0, 0), (1, -1, 3, 0, 2)]


@pytest.mark.parametrize("d, p, lags, sing_coeff", [
    (3, 1, LAGS3, 0.0), (3, 1, LAGS3, 1.0), (5, 2, LAGS5, 0.0), (5, 2, LAGS5, 1.0),
], ids=["d3", "d3-pole", "d5", "d5-pole"])
def test_symbol_transform_matches_tensor_grid_sum(d, p, lags, sing_coeff):
    # a smooth F, and also a 1/sigma^p pole that the singular split removes
    def F(s):
        return np.exp(-s / 3.0) / (1.0 + s) + sing_coeff / s ** p

    xs = np.array(lags, dtype=float)
    cutoff = np.pi / 7.0
    got = symbol_transform(d, F, xs, p, sing_coeff=sing_coeff, levels=2, order=4,
                           cutoff=cutoff)
    want = _brute_symbol_transform(d, F, xs, p, sing_coeff, 2, 4, cutoff)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
