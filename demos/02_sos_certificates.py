"""Sum-of-squares certificates for the polynomial weights.

Each weight w_t is certified as b1^2 + b2^2 + ((2B)^gamma - mu)(b3^2 + b4^2)
with polynomial pieces of degree at most floor(t) (and floor(t) - 1 on the
factored slot): from the roots of w_t below t = 2^6.5, and from the
half-shift form of the transform of phi, with no roots, above.  The factor
(2B)^gamma - mu is what the range-1 operator R turns into a product R* R,
which is how every channel of the kernel stays strictly local.  Below t = 1
the weight is the repaired constant of the small scales.
"""

import numpy as np
from numpy.polynomial import chebyshev as cheb

from frdecomp import WeightParams, build_bump_profile, build_weight_family
from frdecomp.sos import halfline_certificate_cheb
from frdecomp.weights import HALF_SHIFT_T, aj_family

profile = build_bump_profile(0.25)

for model, d in (("gff", 3), ("membrane", 5)):
    params = WeightParams.for_model(model, d)
    family = build_weight_family(params, profile)
    print(f"certificates for the {model} d={d} weights "
          f"(the half-shift form from t = 2^6.5 = {HALF_SHIFT_T:.1f} on):")
    lam = np.linspace(params.B * 1e-4, params.B, 1000)
    for t in (0.5, 2.0, 8.0, 32.0, 64.0, 128.0, 256.0):
        cert = aj_family(t, params, profile, gamma_const=family.gamma_const)
        rec = cert.w_reconstruct(lam)
        ref = family.w(t, lam)
        resid = np.max(np.abs(rec - ref)) / np.max(np.abs(ref))
        print(f"  t={t:>5}: {cert.route:>10}, degrees {cert.degrees}, "
              f"residual {resid:.2e}")

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
