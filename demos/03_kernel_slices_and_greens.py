"""Assemble vector kernel slices on Z^3 and rebuild the Green's function.

Each slice q_t has 2d + 4 channels (two plain polynomial channels and two
(d+1)-channel blocks behind the range-1 factor R); integrating the channel
self-correlations over scales recovers the lattice Green's function, checked
here against Fourier quadrature.
"""

from frdecomp import ModelSpec, build_bump_profile, build_weight_family
from frdecomp.lattice import greens_reconstruct, kernel_slice, log_simpson_grid
from frdecomp.oracle import GreensOracle

profile = build_bump_profile(0.25)
spec = ModelSpec(model="gff", d=3)
family = build_weight_family(spec.params, profile)

print("kernel slices (all channels exactly zero outside their radii):")
for t in (0.5, 2.0, 8.0, 32.0):
    slc = kernel_slice(t, spec, family)
    print(f"  t={t:>4}: support radius {slc.support_radius:2d}, "
          f"channel radii {slc.channel_radii}, ||q_t||^2 = {slc.total_norm_sq():.4e}")

print("\nreconstruction against the Fourier-quadrature oracle:")
grid = log_simpson_grid(1.0, 64.0, 65)
lags = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 1), (5, 0, 0)]
rec, info = greens_reconstruct(spec, family, grid, lags)
oracle = GreensOracle(spec)
ref = oracle.values(lags)
print(f"  scales up to 64, exact tail {info['tail']:.5f} added per lag class")
for x in lags:
    print(f"  G{x}: reconstructed {rec[x]:.7f}   oracle {ref[x][0]:.7f}   "
          f"diff {rec[x] - ref[x][0]:+.2e}")
