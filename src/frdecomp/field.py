"""Sampling the decomposed fields and probing their level-set percolation.

A field sample is the discretized white-noise integral

    f = sqrt(var0) xi_0 + sum_k sqrt(W_k) sum_j q_{t_k}^{(j)} * xi_{k,j}

with independent standard Gaussian arrays xi and composite quadrature
weights W_k on the scale grid; var0 is the closed-form mass of the scales
below t = 1.  Two equivalent-in-law backends exist:

* "perscale" draws every xi_{k,j} and convolves by direct summation over the
  kernel supports.  It realizes the formula literally, so locality is exact:
  noise changes outside a region cannot touch sites farther than the largest
  kernel radius, bit for bit.
* "spectral" collapses scales and channels per frequency (independent
  Gaussians add in quadrature), draws the noise directly as a complex
  half-spectrum on the padded box and inverts it with one inverse FFT,
  pruned to the core rows axis by axis.  The summed power sum_k W_k
  sum_j |q_hat_{t_k}^{(j)}|^2 is the scale series A(W) of
  lattice.scale_series, so the spectrum is sqrt(var0 + A(W(k))), evaluated
  on the rfft grid from the certificates alone; no slice is built.  The law
  restricted to the core box is identical; use it for large sample counts.

Noise streams are counter-based (Philox keyed by seed, sample index, scale,
channel), so results do not depend on scheduling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .lattice import (ModelSpec, channel_radii, kernel_slice, log_simpson_grid,
                      scale_series)
from .weights import WeightFamily


def _rng(seed: int, *key) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class FieldSample:
    d: int
    core: int
    values: np.ndarray
    seed: int
    index: int
    config_key: str


@dataclass
class PercolationResult:
    level: float
    n: int
    theta: float              # origin-to-boundary connection frequency
    theta_se: float
    crossing: float           # left-right crossing frequency
    crossing_se: float
    largest_density: float    # mean largest-cluster fraction
    samples: int


class FieldSampler:
    """Reusable sampler for one (model, core box, scale grid) configuration."""

    def __init__(self, spec: ModelSpec, family: WeightFamily, core: int,
                 t_max: float = 16.0, n_scales: int = 13,
                 method: str = "spectral"):
        if method not in ("spectral", "perscale"):
            raise ValueError("method must be 'spectral' or 'perscale'")
        self.spec, self.family, self.core = spec, family, core
        self.method = method
        self.t_nodes, self.t_weights = log_simpson_grid(1.0, t_max, n_scales)
        series, certs = scale_series(spec, family, (self.t_nodes, self.t_weights))
        self.var0 = family.small_t_mass()
        self.pad = max(max(channel_radii(spec, cert)) for cert in certs)
        self.side = core + 2 * self.pad
        self.config_key = hashlib.sha256(
            repr((spec.model, spec.d, core, t_max, n_scales, method,
                  family.content_key())).encode()
        ).hexdigest()[:16]
        if method == "spectral":
            self._spectrum = self._build_spectrum(series)
            # irfftn halves the noise variance of the self-conjugate planes
            k = np.arange(self.side // 2 + 1)
            scale = np.sqrt(self.side ** spec.d / np.where(2 * k % self.side, 2.0, 1.0))
            self._amplitude = self._spectrum * scale
        else:
            self.slices = [kernel_slice(float(t), spec, family, cert=cert)
                           for t, cert in zip(self.t_nodes, certs)]
            self._offsets = self._build_offsets()

    # -- spectral backend ---------------------------------------------------

    def _build_spectrum(self, series: np.ndarray) -> np.ndarray:
        """sqrt(var0 + A(W(k))) on the rfft grid of the padded box, with
        W(k) = 1 - (2/c) sum_i (2 - 2 cos k_i)."""
        d, side = self.spec.d, self.side
        axes = [np.arange(side)] * (d - 1) + [np.arange(side // 2 + 1)]
        sigma = sum(2.0 - 2.0 * np.cos(2.0 * np.pi * m / side)
                    for m in np.meshgrid(*axes, indexing="ij", sparse=True))
        w = 1.0 - (2.0 / self.spec.c) * sigma
        return np.sqrt(self.var0 + chebval(w, series))

    def _core_field(self, noise: np.ndarray) -> np.ndarray:
        """Core box of irfftn(noise * amplitude) on the last d axes: irfftn's
        axis order, each axis cropped to the core once transformed (bit-equal)."""
        d, keep = self.spec.d, slice(self.pad, self.pad + self.core)
        f = noise * self._amplitude
        for ax in range(-d, -1):
            f = np.fft.ifft(f, axis=ax)[(Ellipsis, keep) + (slice(None),) * (-ax - 1)]
        return np.fft.irfft(f, n=self.side, axis=-1)[..., keep]

    def variance_origin(self) -> float:
        """Exact lag-0 variance of the sampled field (any backend)."""
        if self.method == "spectral":
            s2 = self._spectrum ** 2
            d, side = self.spec.d, self.side
            # undo the rfft half-spectrum folding: sum the full symmetric grid
            full = np.fft.irfftn(s2, s=(side,) * d, axes=tuple(range(d)))
            return float(full[(0,) * d])
        total = self.var0
        for slc, w in zip(self.slices, self.t_weights):
            total += w * slc.total_norm_sq()
        return float(total)

    # -- per-scale backend ----------------------------------------------------

    def _build_offsets(self):
        offsets = []
        for slc in self.slices:
            box = slc.field
            R = box.box_radius
            per_channel = []
            for arr in box.values:
                nz = np.argwhere(arr != 0.0)
                vals = arr[tuple(nz.T)]
                per_channel.append((nz - R, vals))
            offsets.append(per_channel)
        return offsets

    def _noise(self, seed: int, index: int, scale: int, channel: int,
               shape) -> np.ndarray:
        return _rng(seed, index, scale, channel).standard_normal(shape)

    def _sample_perscale(self, seed: int, index: int,
                         noise_hook: Optional[Callable] = None) -> np.ndarray:
        d, core = self.spec.d, self.core
        f = np.zeros((core,) * d)
        xi0 = self._noise(seed, index, 0, 0, (core,) * d)
        if noise_hook is not None:
            xi0 = noise_hook(0, 0, xi0, 0)
        f += math.sqrt(self.var0) * xi0
        for k, (slc, w) in enumerate(zip(self.slices, self.t_weights)):
            r = slc.box_radius
            side = core + 2 * r
            sw = math.sqrt(w)
            for ch, (offs, vals) in enumerate(self._offsets[k]):
                xi = self._noise(seed, index, k + 1, ch, (side,) * d)
                if noise_hook is not None:
                    xi = noise_hook(k + 1, ch, xi, r)
                for z, qv in zip(offs, vals):
                    sl = tuple(slice(int(zc) + r, int(zc) + r + core) for zc in z)
                    f += (sw * qv) * xi[sl]
        return f

    # -- public API -----------------------------------------------------------

    def sample(self, seed: int, index: int = 0) -> FieldSample:
        d, core = self.spec.d, self.core
        if self.method == "spectral":
            noise = _rng(seed, index).standard_normal(self._amplitude.shape + (2,))
            values = np.ascontiguousarray(self._core_field(noise.view(np.complex128)[..., 0]))
        else:
            values = self._sample_perscale(seed, index)
        return FieldSample(d=d, core=core, values=values, seed=seed,
                           index=index, config_key=self.config_key)

    def coupled_pair(self, seed: int, index: int, rho: int):
        """Two per-scale samples whose noise agrees outside |y|_inf <= rho.

        Sites farther than rho + max kernel radius (sup-norm) from the origin
        must agree exactly; that is the operational finite-range property.
        """
        if self.method != "perscale":
            raise ValueError("coupling requires the perscale backend")

        def resample_inside(scale, ch, xi, r):
            centre = np.array(xi.shape) // 2
            lo = np.maximum(centre - rho, 0)
            hi = np.minimum(centre + rho + 1, xi.shape)
            sl = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
            fresh = _rng(seed, index, 7001 + scale, ch).standard_normal(xi[sl].shape)
            out = xi.copy()
            out[sl] = fresh
            return out

        a = self._sample_perscale(seed, index)
        b = self._sample_perscale(seed, index, noise_hook=resample_inside)
        return a, b


# ---------------------------------------------------------------------------
# level-set percolation by per-level cluster labelling
# ---------------------------------------------------------------------------

def percolation_probe(values: np.ndarray, level: float):
    """Connectivity of the open set {f >= -level} on a core box.

    Returns (origin_to_boundary, left_right_crossing, largest_cluster_fraction).
    """
    out = _sweep_sample(values, np.array([float(level)]))
    return bool(out["theta"][0]), bool(out["crossing"][0]), float(out["largest"][0])


def _sweep_sample(values: np.ndarray, levels: np.ndarray) -> dict:
    """Percolation indicators of {f >= -l} on a cubic box, one level at a time.

    Each open set is labelled by 6-connectivity (nearest neighbours along the
    axes) in compiled code.  Cluster sizes are the label counts; theta asks
    whether the centre site's cluster reaches any of the 2d faces, crossing
    whether one cluster meets both faces normal to axis 0.  The open sets are
    nested in the level, so the per-sample indicators are monotone in it
    whatever order the levels come in.
    """
    from scipy import ndimage  # deferred: importing it costs ~0.3 s

    d, n, size = values.ndim, values.shape[0], values.size
    centre = (n // 2,) * d
    boundary = np.ones(values.shape, dtype=bool)
    boundary[(slice(1, n - 1),) * d] = False
    levels = np.asarray(levels, dtype=float)
    out = {"theta": np.zeros(len(levels), dtype=bool),
           "crossing": np.zeros(len(levels), dtype=bool),
           "largest": np.zeros(len(levels))}
    for k, level in enumerate(levels):
        labels, count = ndimage.label(values >= -level)
        if count == 0:
            continue
        own = labels[centre]
        out["theta"][k] = own != 0 and bool(np.any(labels[boundary] == own))
        left = np.zeros(count + 1, dtype=bool)
        left[labels[0]] = True
        right = np.zeros(count + 1, dtype=bool)
        right[labels[n - 1]] = True
        out["crossing"][k] = bool(np.any(left[1:] & right[1:]))
        out["largest"][k] = int(np.bincount(labels.ravel())[1:].max()) / size
    return out


def sweep_levels(sampler: FieldSampler, levels, n_samples: int, seed: int,
                 progress: Optional[Callable] = None) -> List[PercolationResult]:
    """Monte Carlo percolation curves over a level grid.  Every level of a
    sample is probed on the same field, so the curves are monotone in the
    level per sample (the open sets are nested)."""
    levels = np.asarray(levels, dtype=float)
    agg_theta = np.zeros(len(levels))
    agg_cross = np.zeros(len(levels))
    agg_large = np.zeros(len(levels))
    for i in range(n_samples):
        smp = sampler.sample(seed, i)
        res = _sweep_sample(smp.values, levels)
        agg_theta += res["theta"]
        agg_cross += res["crossing"]
        agg_large += res["largest"]
        if progress is not None:
            progress(i)
    out = []
    for k, lvl in enumerate(levels):
        th = agg_theta[k] / n_samples
        cr = agg_cross[k] / n_samples
        out.append(PercolationResult(
            level=float(lvl), n=sampler.core,
            theta=th, theta_se=math.sqrt(max(th * (1 - th), 0.0) / n_samples),
            crossing=cr, crossing_se=math.sqrt(max(cr * (1 - cr), 0.0) / n_samples),
            largest_density=agg_large[k] / n_samples, samples=n_samples,
        ))
    return out


def export_percolation_csv(path: str, results: Iterable[PercolationResult]):
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["level", "n", "theta", "se", "crossing", "crossing_se",
                         "largest_density", "samples"])
        for r in results:
            writer.writerow([repr(r.level), r.n, repr(r.theta), repr(r.theta_se),
                             repr(r.crossing), repr(r.crossing_se),
                             repr(r.largest_density), r.samples])
