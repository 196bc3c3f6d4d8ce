"""Build the bump profile and weight families, and watch the scalar
partition of unity 1/lambda = int t^((2-gamma)/gamma) w_t(lambda) dt hold.

The profile is a smooth bump kappa_hat of half-width 1/4; phi = kappa^2 and
the transform of phi^2 (the fourfold self-convolution of kappa_hat, from one
FFT of its closed form) supply every constant the construction needs.
"""

import numpy as np

from frdecomp import WeightParams, build_bump_profile, build_weight_family
from frdecomp.oracle import scalar_partition_check
from frdecomp.weights import partial_fraction_coeffs, wbar_value

profile = build_bump_profile(0.25)
print(f"profile: h={profile.h}, c'_k = {[round(c, 6) for c in profile.cprime[:3]]}")
print(f"partial fractions: p=1 -> {partial_fraction_coeffs(1)}, "
      f"p=2 -> {partial_fraction_coeffs(2)}")

for model, d in (("gff", 3), ("membrane", 5)):
    params = WeightParams.for_model(model, d)
    family = build_weight_family(params, profile)
    print(f"\n{model} d={d}: gamma={params.gamma}, B={params.B}, "
          f"(2B)^gamma={params.two_b_gamma:.4f}")
    print(f"  wbar_1 = {family.wbar1:.6e}, Gamma = {family.gamma_const:.6e}")

    lams = params.B * np.logspace(-3, 0, 50)
    err = scalar_partition_check(family, lams, T=64.0)
    print(f"  partition of unity over 50-point log grid: max |lambda * "
          f"integral - 1| = {err:.2e}")

    # the weight at a few scales, evaluated through the periodized form
    lam = params.B / 3.0
    for t in (1.0, 4.0, 16.0, 64.0):
        print(f"  w_{t:>4} (lambda=B/3) = {wbar_value(t, lam, params, profile):.6e}")
