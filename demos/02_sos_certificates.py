"""Sum-of-squares certificates for the polynomial weights.

Each weight w_t is certified as b1^2 + b2^2 + ((2B)^gamma - mu)(b3^2 + b4^2)
with polynomial pieces of degree at most floor(t) (and floor(t) - 1 on the
factored slot).  The factor (2B)^gamma - mu is what the range-1 operator R
turns into a product R* R, which is how every channel of the kernel stays
strictly local.
"""

import numpy as np
from numpy.polynomial import chebyshev as cheb

from frdecomp import WeightParams, build_bump_profile, build_weight_family
from frdecomp.sos import halfline_certificate_cheb
from frdecomp.weights import aj_family, wbar_value

profile = build_bump_profile(0.25)
params = WeightParams.for_model("gff", 3)
family = build_weight_family(params, profile)

print("certificates for the d=3 free-field weights:")
lam = np.linspace(params.B * 1e-4, params.B, 1000)
for t in (0.5, 2.0, 8.0, 32.0, 64.0):
    cert = aj_family(t, params, profile, gamma_const=family.gamma_const)
    rec = cert.w_reconstruct(lam)
    ref = wbar_value(t, lam, params, profile)
    resid = np.max(np.abs(rec - ref)) / np.max(np.abs(ref))
    print(f"  t={t:>5}: degrees {cert.degrees}, residual {resid:.2e}")

print("\nstand-alone half-line certificates on y in [0, 1]:")
y = np.linspace(0.0, 1.0, 400)
for mono, label in [
    (np.array([1.0, 0.0, 1.0]), "y^2 + 1"),
    (np.array([1.0, 1.0]), "y + 1"),
    (np.convolve([2.0, -2.0, 1.0], [3.0, 1.0]), "(y^2 - 2y + 2)(y + 3)"),
]:
    s = cheb.poly2cheb(mono)
    pieces = halfline_certificate_cheb(s, float(np.sum(np.abs(mono))))
    a1, a2, a3, a4 = (cheb.chebval(2.0 * y - 1.0, a) for a in pieces)
    ref = np.polynomial.polynomial.polyval(y, mono)
    resid = np.max(np.abs(a1 ** 2 + a2 ** 2 + y * (a3 ** 2 + a4 ** 2) - ref))
    degrees = tuple(len(a) - 1 for a in pieces)
    print(f"  {label}: residual {resid / np.max(np.abs(ref)):.2e}, degrees {degrees}")
