"""Sample the decomposed free field and probe its level-set percolation.

The sampler realizes f = sum_k sqrt(W_k) sum_j q_{t_k}^(j) * xi_{k,j} with
counter-based noise streams; the spectral backend collapses scales and
channels per frequency and draws the noise in Fourier space (same law, one
pruned inverse FFT per sample), while the per-scale backend keeps the
literal convolution structure so that locality is exact bit for bit.
"""

import numpy as np

from frdecomp import ModelSpec, build_bump_profile, build_weight_family
from frdecomp.field import FieldSampler, sweep_levels
from frdecomp.lattice import greens_reconstruct

profile = build_bump_profile(0.25)
spec = ModelSpec(model="gff", d=3)
family = build_weight_family(spec.params, profile)

sampler = FieldSampler(spec, family, core=16, t_max=12.0, method="spectral")
grid = (sampler.t_nodes, sampler.t_weights)
target, _ = greens_reconstruct(spec, family, grid, [(0, 0, 0), (1, 0, 0)],
                               tail=False)
print(f"truncated-field variance at the origin: {sampler.variance_origin():.6f} "
      f"(matches the scale quadrature: {target[(0, 0, 0)]:.6f})")

N = 5000
acc0 = acc1 = 0.0
c = sampler.core // 2
for i in range(N):
    v = sampler.sample(seed=11, index=i).values
    acc0 += v[c, c, c] ** 2
    acc1 += v[c, c, c] * v[c + 1, c, c]
print(f"{N} samples: Var(f0) = {acc0 / N:.5f}, Cov(f0, f_e1) = {acc1 / N:.5f} "
      f"(target {target[(1, 0, 0)]:.5f})")

print("\nlevel-set percolation, crossing probabilities sharpen with the box:")
levels = np.linspace(-0.6, 0.0, 7)
for core, seed in ((16, 5), (32, 6)):
    s = FieldSampler(spec, family, core=core, t_max=12.0, method="spectral")
    res = sweep_levels(s, levels, n_samples=150, seed=seed)
    row = "  ".join(f"{r.crossing:.2f}" for r in res)
    print(f"  n={core:2d}:  {row}")
print(f"  levels: {'  '.join(f'{l:+.2f}' for l in levels)}")

print("\nexact finite-range coupling (per-scale backend):")
ps = FieldSampler(spec, family, core=8, t_max=4.0, n_scales=7, method="perscale")
fa, fb = ps.coupled_pair(seed=4, index=0, rho=2)
far = max(abs(int(i) - 4) for i in np.argwhere(fa != fb).max(axis=0))
print(f"  noise resampled inside |y| <= 2; fields differ only out to "
      f"sup-distance {far} (dependence radius {2 + ps.pad})")
