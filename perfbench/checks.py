"""Checks of frdecomp's outputs against computations made apart from it.

Every check returns a list of problems; an empty list means it passed.  The
references here never go through the program's own code path for the same
quantity: percolation is relabelled with scipy.ndimage, the lattice Green's
function is pinned by Watson's closed form and its defining equation, the
continuum one by 4 pi r G(r) = 1, and certificates by the raw weight they
must reproduce.  Tolerances are those of the acceptance criteria in
tests/test_acceptance.py; the one exception, the covariance z bound, is
explained at COV_Z_MAX.
"""

import itertools
import math

import numpy as np

SOS_TOL = 1e-8            # criterion 3: relative residual of a certificate
GREENS_TOL = 1e-2         # criterion 5: |G_rec - G| / G(0)
STENCIL_TOL = 1e-6        # criterion 5: residual of 6G(x) - sum G(x +- e_i)
CONTINUUM_TOL = 2e-2      # criterion 7: |4 pi r G_rec(r) - 1|
LEAK_TOL = 1e-6           # criterion 7: radial kernel mass beyond its radius
VARIANCE_TOL = 1e-9       # spectral variance against direct autocorrelation
# Criterion 8 allows 3 standard errors in one run of 50,000 samples.  The
# benchmark repeats its test in every run, on the order of a hundred runs
# per evaluation, where 3 se would fail a correct sampler in about one run
# in a hundred.  5 se fails one in 10^5 runs; the exact law is pinned
# separately by VARIANCE_TOL.
COV_Z_MAX = 5.0

# Watson (1939): G(0) = W / 6 for the simple cubic lattice, with
# W = sqrt(6) / (32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24).
WATSON_G0 = (math.sqrt(6.0) / (32.0 * math.pi ** 3)
             * math.gamma(1 / 24) * math.gamma(5 / 24)
             * math.gamma(7 / 24) * math.gamma(11 / 24)) / 6.0


# ---------------------------------------------------------------------------
# percolation
# ---------------------------------------------------------------------------

def label_sweep(values, levels):
    """Per-level (theta, crossing, largest fraction) of {f >= -level} by
    6-connectivity labelling; theta joins the centre site to any face,
    crossing joins the two faces normal to axis 0."""
    from scipy import ndimage

    n, size = values.shape[0], values.size
    centre = (n // 2,) * values.ndim
    theta = np.zeros(len(levels), dtype=bool)
    crossing = np.zeros(len(levels), dtype=bool)
    largest = np.zeros(len(levels))
    for k, level in enumerate(levels):
        labels, count = ndimage.label(values >= -level)
        if count == 0:
            continue
        faces = set()
        for axis in range(values.ndim):
            faces.update(np.unique(labels.take(0, axis=axis)))
            faces.update(np.unique(labels.take(n - 1, axis=axis)))
        faces.discard(0)
        theta[k] = labels[centre] != 0 and labels[centre] in faces
        left = set(np.unique(labels[0])) - {0}
        right = set(np.unique(labels[n - 1])) - {0}
        crossing[k] = bool(left & right)
        largest[k] = int(np.bincount(labels.ravel())[1:].max()) / size
    return theta, crossing, largest


def aggregate_labelled(fields, levels):
    """Curves over a batch of fields, summed in the order sweep_levels uses."""
    theta = np.zeros(len(levels))
    crossing = np.zeros(len(levels))
    largest = np.zeros(len(levels))
    for values in fields:
        th, cr, lg = label_sweep(values, levels)
        theta += th
        crossing += cr
        largest += lg
    n = len(fields)
    return theta / n, crossing / n, largest / n


def check_percolation(results, levels, reference):
    """sweep_levels results equal the labelled reference exactly, and every
    curve is monotone in the (ascending) level."""
    problems = []
    ref_theta, ref_cross, ref_large = reference
    if len(results) != len(levels):
        return [f"{len(results)} results for {len(levels)} levels"]
    for k, r in enumerate(results):
        got = (r.level, r.theta, r.crossing, r.largest_density)
        want = (float(levels[k]), ref_theta[k], ref_cross[k], ref_large[k])
        if got != want:
            problems.append(f"level {levels[k]:+.2f}: (level, theta, crossing, "
                            f"largest) {got} != labelled {want}")
    for name in ("theta", "crossing", "largest_density"):
        curve = np.array([getattr(r, name) for r in results])
        if np.any(np.diff(curve) < 0):
            problems.append(f"{name} curve decreases in the level: {curve}")
    return problems


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def check_variance(variance, target):
    rel = abs(variance - target) / abs(target)
    if rel <= VARIANCE_TOL:
        return []
    return [f"variance_origin {variance!r} vs autocorrelation {target!r}: "
            f"relative {rel:.2e} > {VARIANCE_TOL:g}"]


def covariance_z(sums, sumsq, n, targets):
    """z scores of running lag products against their exact covariances."""
    mean = sums / n
    var = (sumsq - n * mean * mean) / (n - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n)
    return (mean - targets) / se


def check_covariances(lags, sums, sumsq, n, targets):
    if n < 2:
        return [f"{n} samples cannot estimate a covariance"]
    z = covariance_z(np.asarray(sums), np.asarray(sumsq), n, np.asarray(targets))
    return [f"lag {lag}: empirical covariance {zv:+.2f} se from exact "
            f"(bound {COV_Z_MAX:g} se, n={n})"
            for lag, zv in zip(lags, z) if not abs(zv) <= COV_Z_MAX]


def check_identical(first, again, what):
    if first.shape == again.shape and np.array_equal(first, again):
        return []
    return [f"{what}: redraw is not bit-identical"]


def check_coupling(fa, fb, rho, pad):
    """Sites beyond sup-distance rho + pad from the centre agree bit for bit;
    at least one site is compared and at least one site differs."""
    centre = np.array(fa.shape) // 2
    idx = np.indices(fa.shape)
    dist = np.max(np.abs(idx - centre.reshape((-1,) + (1,) * fa.ndim)), axis=0)
    far = dist > rho + pad
    compared = int(np.count_nonzero(far))
    problems = []
    if compared == 0:
        problems.append(f"coupling compares 0 sites (box {fa.shape}, "
                        f"rho {rho}, pad {pad})")
    mismatched = int(np.count_nonzero(fa[far] != fb[far]))
    if mismatched:
        problems.append(f"coupling: {mismatched} of {compared} far sites differ")
    if np.array_equal(fa, fb):
        problems.append("coupling: resampled noise changed no site")
    return problems


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def lambda_grid(params):
    """Criterion 3's spectral grid."""
    return np.linspace(params.B * 1e-4, params.B, 1000)


def check_certificate(cert, t, wbar_ref, lam):
    """Residual against the raw weight and the degree bounds floor(t),
    floor(t) - 1."""
    problems = []
    res = float(np.max(np.abs(cert.w_reconstruct(lam) - wbar_ref))
                / np.max(np.abs(wbar_ref)))
    if not res <= SOS_TOL:
        problems.append(f"t={t:.4g}: residual {res:.2e} > {SOS_TOL:g}")
    nf = int(math.floor(t))
    d1, d2, d3, d4 = cert.degrees
    if max(d1, d2) > nf or max(d3, d4) > max(nf - 1, 0):
        problems.append(f"t={t:.4g}: degrees {cert.degrees} exceed ({nf}, {nf - 1})")
    return problems


# ---------------------------------------------------------------------------
# Green's reconstruction
# ---------------------------------------------------------------------------

def check_watson(rec):
    """G(0) = W/6 and, by the equation at 0 and cubic symmetry, G(e1) = G(0) - 1/6."""
    problems = []
    tol = GREENS_TOL * WATSON_G0
    for x, want in (((0, 0, 0), WATSON_G0), ((1, 0, 0), WATSON_G0 - 1.0 / 6.0)):
        err = abs(rec[x] - want)
        if not err <= tol:
            problems.append(f"G_rec{x} = {rec[x]!r}, closed form {want!r}: "
                            f"|error| {err:.2e} > {tol:.2e}")
    return problems


def check_stencil(rec, radius):
    """6G(x) - sum_i G(x +- e_i) = delta_{x,0} at every lag whose neighbours
    lie in the window |x|_inf <= radius; at least one lag is checked."""
    problems = []
    checked = 0
    r = radius - 1
    for x in itertools.product(range(-r, r + 1), repeat=3):
        nbrs = 0.0
        for axis in range(3):
            for step in (-1, 1):
                y = list(x)
                y[axis] += step
                nbrs += rec[tuple(y)]
        resid = abs(6.0 * rec[x] - nbrs - (1.0 if x == (0, 0, 0) else 0.0))
        checked += 1
        if not resid <= STENCIL_TOL:
            problems.append(f"stencil residual {resid:.2e} at {x} > {STENCIL_TOL:g}")
    if checked == 0:
        problems.append(f"stencil check covers 0 lags (window radius {radius})")
    return problems


def check_oracle(rec, oracle_values):
    """Reconstruction against Fourier-quadrature oracle values at given lags."""
    tol = GREENS_TOL * WATSON_G0
    return [f"G_rec{x} = {rec[x]!r}, oracle {val!r}: |error| {abs(rec[x] - val):.2e} > {tol:.2e}"
            for x, (val, _err) in oracle_values.items()
            if not abs(rec[x] - val) <= tol]


def finite_range_scan(slc):
    """(nonzero entries outside the declared l1 channel radii, entries scanned)."""
    vals = slc.field.values
    R = vals.shape[1] // 2
    dist = np.abs(np.indices(vals.shape[1:]) - R).sum(axis=0)
    violations = scanned = 0
    for ch in range(vals.shape[0]):
        outside = vals[ch][dist > slc.channel_radii[ch]]
        violations += int(np.count_nonzero(outside))
        scanned += outside.size
    return violations, scanned


def check_finite_range(slices):
    violations = scanned = 0
    for slc in slices:
        v, s = finite_range_scan(slc)
        violations += v
        scanned += s
    problems = []
    if violations:
        problems.append(f"{violations} nonzero slice entries outside declared radii")
    if scanned == 0:
        problems.append(f"finite-range scan covers 0 entries in {len(slices)} slices")
    return problems


def check_continuum(values, radii):
    problems = []
    for r in radii:
        err = abs(4.0 * math.pi * r * values[float(r)] - 1.0)
        if not err <= CONTINUUM_TOL:
            problems.append(f"|4 pi r G_rec(r) - 1| = {err:.2e} at r={r:.3f} "
                            f"> {CONTINUUM_TOL:g}")
    return problems


def check_leaks(kernels):
    problems = [f"radial kernel t={k.t:.3f}: support leak {k.support_leak():.2e} "
                f"> {LEAK_TOL:g}" for k in kernels if not k.support_leak() <= LEAK_TOL]
    if not kernels:
        problems.append("no radial kernels to check")
    return problems
