"""Operator calculus on Z^d: Chebyshev series in -Delta, the factor R, kernel slices.

Fields live on centered cubic boxes.  A field's declared support radius is
structural: operator application only ever writes inside the grown radius, so
entries beyond it are exactly zero, not merely small.  That exactness is what
the finite-range checks certify.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .weights import (
    MODELS,
    KernelCertificate,
    WeightFamily,
    WeightParams,
    aj_family,
)


class BoxOverflowError(RuntimeError):
    """The preallocated box cannot hold the grown support."""


@dataclass(frozen=True)
class ModelSpec:
    """Lattice model: which operator, which dimension, and the derived constants."""

    model: str  # "gff" or "membrane"
    d: int
    params: WeightParams = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row = MODELS.get(self.model)
        if row is None or not row.lattice:
            raise ValueError(f"unknown lattice model {self.model!r}")
        object.__setattr__(self, "params", WeightParams.for_model(self.model, self.d))
        if self.c < 4.0 * self.d - 1e-12:
            raise AssertionError("factorization needs (2B)^gamma >= 4d")

    @property
    def gamma(self) -> float:
        return self.params.gamma

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def B(self) -> float:
        return self.params.B

    @property
    def c(self) -> float:
        """(2B)^gamma, the spectral top of the certificate interval in mu."""
        return self.params.two_b_gamma

    @property
    def r_first_coeff(self) -> float:
        """Coefficient of the pointwise channel of R: sqrt(c - 4d)."""
        return math.sqrt(self.c - 4.0 * self.d)

    @property
    def n_channels(self) -> int:
        return 2 * self.d + 4


@dataclass
class LatticeField:
    """Vector-valued field on a centered box; shape (m, 2R+1, ..., 2R+1)."""

    d: int
    values: np.ndarray          # (m,) + spatial
    support_radius: int

    def __post_init__(self):
        if self.values.ndim != self.d + 1:
            raise ValueError("values must be (channels,) + spatial")
        side = self.values.shape[1]
        if side % 2 == 0 or any(s != side for s in self.values.shape[1:]):
            raise ValueError("spatial box must be a centered odd cube")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def box_radius(self) -> int:
        return self.values.shape[1] // 2

    def at(self, x) -> np.ndarray:
        idx = tuple(int(v) + self.box_radius for v in x)
        return self.values[(slice(None),) + idx]


def delta_field(d: int, box_radius: int) -> LatticeField:
    shape = (1,) + (2 * box_radius + 1,) * d
    v = np.zeros(shape)
    v[(0,) + (box_radius,) * d] = 1.0
    return LatticeField(d=d, values=v, support_radius=0)


def _sub(view: np.ndarray, lo: int, hi: int, d: int) -> np.ndarray:
    """The centered spatial subbox [lo, hi] per axis (channel axis untouched)."""
    return view[(slice(None),) + (slice(lo, hi + 1),) * d]


def _apply_m_into(out: np.ndarray, u: np.ndarray, d: int):
    """out = (-Delta_d) u on matching subboxes: out has one more cell per side."""
    inner = (slice(None),) + (slice(1, -1),) * d
    out[inner] += 2.0 * d * u
    for ax in range(d):
        for sgn in (1, 2):
            sl = [slice(1, -1)] * d
            sl[ax] = slice(None, -2) if sgn == 1 else slice(2, None)
            out[(slice(None),) + tuple(sl)] -= u


def apply_cheb_in_w(spec: ModelSpec, coeffs: np.ndarray, u: LatticeField) -> LatticeField:
    """Apply sum_k c_k T_k(W) to u for W = Id - 2M/(2B)^gamma, M = -Delta_d.

    W is the operator image of the certificate variable 1 - 2 mu/(2B)^gamma;
    spec(W) lies inside [-1, 1], so the three-term forward recurrence for
    T_k(W) u is stable; the support grows by exactly one cell per degree and
    zeros outside stay exact.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs) - 1
    R = u.box_radius
    r0 = u.support_radius
    if r0 + n > R:
        raise BoxOverflowError(f"need box radius {r0 + n}, have {R}")
    d, c = spec.d, spec.c

    def apply_w(vec: np.ndarray, r: int) -> np.ndarray:
        out = np.zeros_like(vec)
        centre = _sub(out, R - r - 1, R + r + 1, d)
        mbuf = np.zeros_like(centre)
        _apply_m_into(mbuf, _sub(vec, R - r, R + r, d), d)
        inner = (slice(None),) + (slice(1, -1),) * d
        centre -= mbuf * (2.0 / c)
        centre[inner] += _sub(vec, R - r, R + r, d)
        return out

    prev = np.array(u.values)                  # T_0(W) u
    acc = coeffs[0] * prev
    if n >= 1:
        cur = apply_w(prev, r0)                # T_1(W) u = W u
        acc = acc + coeffs[1] * cur
        r = r0 + 1
        for k in range(2, n + 1):
            nxt = 2.0 * apply_w(cur, r) - prev
            r += 1
            prev, cur = cur, nxt
            if coeffs[k] != 0.0:
                acc = acc + coeffs[k] * cur
    return LatticeField(d=d, values=acc, support_radius=r0 + n)


def apply_R(spec: ModelSpec, u: LatticeField) -> LatticeField:
    """The range-1 factor: (Ru)_1 = sqrt(c-4d) u, (Ru)_{1+i} = u(.+e_i) + u.

    Satisfies (Ru, Rv) = c (u, v) - (u, M v) with c = (2B)^gamma.
    """
    if u.m != 1:
        raise ValueError("apply_R expects a scalar field")
    d = spec.d
    R = u.box_radius
    if u.support_radius + 1 > R:
        raise BoxOverflowError("no room for the range-1 growth of R")
    out = np.zeros((d + 1,) + u.values.shape[1:])
    out[0] = spec.r_first_coeff * u.values[0]
    for ax in range(d):
        sl_to = [slice(None)] * d
        sl_from = [slice(None)] * d
        sl_to[ax] = slice(None, -1)
        sl_from[ax] = slice(1, None)
        out[(1 + ax,) + tuple(sl_to)] = u.values[(0,) + tuple(sl_from)]
        out[1 + ax] += u.values[0]
    return LatticeField(d=d, values=out, support_radius=u.support_radius + 1)


# ---------------------------------------------------------------------------
# kernel slices
# ---------------------------------------------------------------------------

@dataclass
class KernelSlice:
    """The vector kernel q_t . delta_0 with channels
    (a1, a2, R a3 (d+1 channels), R a4 (d+1 channels))."""

    t: float
    spec: ModelSpec
    field: LatticeField
    channel_radii: tuple

    @property
    def support_radius(self) -> int:
        return max(self.channel_radii)

    def channel_norms_sq(self) -> np.ndarray:
        flat = self.field.values.reshape(self.field.m, -1)
        return np.einsum("ij,ij->i", flat, flat)

    def total_norm_sq(self) -> float:
        return float(np.sum(self.channel_norms_sq()))


def kernel_slice(t: float, spec: ModelSpec, family: WeightFamily,
                 box_radius: Optional[int] = None,
                 cert: Optional[KernelCertificate] = None) -> KernelSlice:
    """Assemble the kernel slice at scale t from the weight certificate.

    Channels carry the prefactor t^((2-gamma)/(2gamma)); their declared radii
    are the certificate degrees (<= floor(t)) plus one on the R channels.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if cert is None:
        cert = aj_family(t, family.params, family.profile,
                         gamma_const=family.gamma_const)
    d = spec.d
    degs = cert.degrees
    is_zero = [len(a) == 1 and a[0] == 0.0 for a in cert.cheb]
    need = max(degs[0], degs[1], degs[2] + 1, degs[3] + 1)
    if box_radius is None:
        box_radius = need
    if box_radius < need:
        raise BoxOverflowError(f"box radius {box_radius} < required {need}")
    pref = t ** ((2.0 - spec.gamma) / (2.0 * spec.gamma))
    delta = delta_field(d, box_radius)
    ch1 = apply_cheb_in_w(spec, cert.cheb[0], delta)
    ch2 = apply_cheb_in_w(spec, cert.cheb[1], delta)
    r3 = apply_R(spec, apply_cheb_in_w(spec, cert.cheb[2], delta))
    r4 = apply_R(spec, apply_cheb_in_w(spec, cert.cheb[3], delta))
    values = np.concatenate(
        [ch1.values, ch2.values, r3.values, r4.values], axis=0
    ) * pref
    rad3 = 0 if is_zero[2] else degs[2] + 1
    rad4 = 0 if is_zero[3] else degs[3] + 1
    radii = (degs[0], degs[1]) + (rad3,) * (d + 1) + (rad4,) * (d + 1)
    fld = LatticeField(d=d, values=values, support_radius=max(radii))
    return KernelSlice(t=t, spec=spec, field=fld, channel_radii=radii)


def slice_autocorr(slc: KernelSlice, lag) -> float:
    """sum_channels sum_z q(z) q(z + lag), by direct summation over the box."""
    v = slc.field.values
    d = slc.spec.d
    side = v.shape[1]
    src, dst = [slice(None)], [slice(None)]
    for ax in range(d):
        l = int(lag[ax])
        if abs(l) >= side:
            return 0.0
        src.append(slice(max(0, -l), side - max(0, l)))
        dst.append(slice(max(0, l), side + min(0, l)))
    a = v[tuple(src)]
    b = v[tuple(dst)]
    return float(np.sum(a * b))


def lag_class(x) -> tuple:
    """Canonical representative under the cube symmetry group."""
    return tuple(sorted((abs(int(v)) for v in x), reverse=True))


# ---------------------------------------------------------------------------
# scale grids and Green's reconstruction
# ---------------------------------------------------------------------------

def log_simpson_grid(t_min: float, t_max: float, n_nodes: int):
    """Nodes and positive composite-Simpson weights for int f(t) dt on a
    log-uniform grid (Simpson in log t applied to t*f)."""
    if n_nodes % 2 == 0:
        n_nodes += 1
    u = np.linspace(math.log(t_min), math.log(t_max), n_nodes)
    du = u[1] - u[0]
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    w *= du / 3.0
    t = np.exp(u)
    return t, w * t  # dt = t du


def greens_tail(spec: ModelSpec, family: WeightFamily, T: float,
                x_list) -> dict:
    """Exact per-lag upper tail int_T^infty sum_ch (q_t * q_t)(x) dt.

    The integrand is a function of the Laplacian symbol (the profile tail
    moments evaluated at lambda = sigma^p), so a cosine symbol transform with
    the 1/sigma^p singularity subtracted computes it to quadrature accuracy;
    the tail is strongly lag-dependent at accessible T.
    """
    from .oracle import symbol_transform  # deferred: oracle imports lattice
    from .weights import tail_weight_integral

    classes = sorted({lag_class(x) for x in x_list})
    xs = np.array([cls + (0,) * (spec.d - len(cls)) for cls in classes], float)

    def F(sigma):
        lam = np.maximum(sigma, 1e-300) ** spec.p
        return tail_weight_integral(lam, T, family.params, family.profile)

    vals = symbol_transform(spec.d, F, xs, sing_power=spec.p,
                            levels=9 if spec.d == 3 else 4,
                            order=12 if spec.d == 3 else 6)
    per_class = dict(zip(classes, vals))
    return {tuple(int(v) for v in x): per_class[lag_class(x)] for x in x_list}


def greens_reconstruct(spec: ModelSpec, family: WeightFamily, scale_grid,
                       x_list, tail: bool = True,
                       slice_cb: Optional[Callable] = None):
    """Reconstruct G(x) = int_0^infty sum_ch (q_t * q_t)(x) dt.

    The scale grid covers [1, T_max] with quadrature weights; the t < 1 part
    enters in closed form (a pure delta contribution), and the upper tail is
    added exactly per lag from the profile tail moments (greens_tail).  A
    power-law fit to the last decade of ||q_t||^2 is reported as a
    diagnostic slope.

    Returns (values, info): values maps tuple(x) -> reconstructed value, and
    info carries the tail at lag 0, the fitted decay slope, per-node norms.
    """
    t_nodes, t_weights = scale_grid
    classes = {}
    for x in x_list:
        classes.setdefault(lag_class(x), None)
    reps = {cls: np.array(cls + (0,) * (spec.d - len(cls))) for cls in classes}
    acc = {cls: 0.0 for cls in classes}
    norms = np.empty(len(t_nodes))
    for i, (t, w) in enumerate(zip(t_nodes, t_weights)):
        slc = kernel_slice(float(t), spec, family)
        if slice_cb is not None:
            slice_cb(slc)
        norms[i] = slc.total_norm_sq()
        for cls in classes:
            acc[cls] += w * slice_autocorr(slc, reps[cls])
    zero_cls = lag_class(np.zeros(spec.d))
    if zero_cls in acc:
        acc[zero_cls] += family.small_t_mass()
    sel = t_nodes >= t_nodes[-1] / 2.0
    slope = float(np.polyfit(np.log(t_nodes[sel]),
                             np.log(np.maximum(norms[sel], 1e-300)), 1)[0])
    tails = {cls: 0.0 for cls in classes}
    if tail:
        reps_list = [tuple(int(v) for v in reps[cls]) for cls in classes]
        tail_vals = greens_tail(spec, family, float(t_nodes[-1]), reps_list)
        tails = {cls: tail_vals[rep] for cls, rep in zip(classes, reps_list)}
        for cls in classes:
            acc[cls] += tails[cls]
    values = {tuple(int(v) for v in x): acc[lag_class(x)] for x in x_list}
    info = {"tail": tails.get(zero_cls, 0.0), "slope": slope,
            "norms": norms, "t_nodes": t_nodes}
    return values, info


# ---------------------------------------------------------------------------
# spectral channel norms (no boxes; exact Parseval route)
# ---------------------------------------------------------------------------

def channel_norms_spectral(spec: ModelSpec, family: WeightFamily, t: float,
                           density_tables) -> np.ndarray:
    """Per-channel squared L^2 norms of the slice at scale t via the spectral
    density of the Laplacian symbol; returns an array of length 2d + 4.

    density_tables is (s_d, rho_d, s_dm1, rho_dm1) from
    oracle.spectral_density for dimensions d and d-1.
    """
    d = spec.d
    pref2 = t ** ((2.0 - spec.gamma) / spec.gamma)
    if t < 1.0:
        w = family.small_t_constant(t)
        out = np.zeros(spec.n_channels)
        out[0] = pref2 * w
        return out
    cert = aj_family(t, family.params, family.profile,
                     gamma_const=family.gamma_const)
    s_d, rho_d, s_dm1, rho_dm1 = density_tables

    def bval(idx: int, sig):
        u = 1.0 - 2.0 * np.asarray(sig, dtype=float) / cert.c
        return np.polynomial.chebyshev.chebval(u, cert.cheb[idx])

    def moment_full(idx: int) -> float:
        vals = bval(idx, s_d)
        return float(np.trapezoid(vals * vals * rho_d, s_d))

    theta = np.linspace(0.0, np.pi, 257)
    s_th = 2.0 - 2.0 * np.cos(theta)
    wt_th = (2.0 + 2.0 * np.cos(theta)) / np.pi

    def moment_shift(idx: int) -> float:
        # int (2 + 2 cos k_i) b(sigma)^2: split sigma = s' + (2 - 2 cos theta)
        vals = bval(idx, s_dm1[None, :] + s_th[:, None])
        inner = np.trapezoid(vals * vals * rho_dm1[None, :], s_dm1, axis=1)
        return float(np.trapezoid(inner * wt_th, theta))

    c4d = spec.c - 4.0 * spec.d
    out = np.empty(spec.n_channels)
    out[0] = moment_full(0)
    out[1] = moment_full(1)
    out[2] = c4d * moment_full(2)
    out[3:3 + d] = moment_shift(2)
    out[3 + d] = c4d * moment_full(3)
    out[4 + d:4 + 2 * d] = moment_shift(3)
    return pref2 * out


# ---------------------------------------------------------------------------
# component cycling: the scalar kernel
# ---------------------------------------------------------------------------

@dataclass
class ScalarKernel:
    """Scalar space-scale kernel obtained by cycling through the 2d+4 slice
    channels and embedding lattice values as constants on unit cells.

    Nonzero only for t > shift = sqrt(d); supported in |x|_2 <= t/2.
    """

    spec: ModelSpec
    family: WeightFamily
    norm_fn: Optional[Callable] = None   # tau -> per-channel norms (length 2d+4)
    _cache: dict = dc_field(default_factory=dict)
    cache_radius_limit: int = 40

    @property
    def n_channels(self) -> int:
        return self.spec.n_channels

    @property
    def shift(self) -> float:
        return math.sqrt(self.spec.d)

    def cycle_map(self, tau: float):
        """tau in [n + (j-1)/K, n + j/K) -> (n, j, inner scale)."""
        K = self.n_channels
        n = int(math.floor(tau))
        j = int(math.floor((tau - n) * K)) + 1
        j = min(j, K)
        inner = n + K * (tau - n - (j - 1) / K)
        return n, j, inner

    def _slice(self, tau: float) -> KernelSlice:
        key = round(tau, 12)
        if key not in self._cache:
            slc = kernel_slice(max(tau, 1e-12), self.spec, self.family)
            if slc.support_radius <= self.cache_radius_limit:
                self._cache[key] = slc
            return slc
        return self._cache[key]

    def value(self, x, t: float) -> float:
        """qfrak(x, t) for x in R^d: cell-constant embedding of the cycled slice."""
        if t <= self.shift:
            return 0.0
        tau = (t - self.shift) / 2.0
        n, j, inner = self.cycle_map(tau)
        slc = self._slice(inner)
        cell = np.rint(np.asarray(x, dtype=float)).astype(int)
        if np.sum(np.abs(cell)) > slc.channel_radii[j - 1]:
            return 0.0
        scale = math.sqrt(self.n_channels / 2.0)
        return scale * float(slc.field.at(cell)[j - 1])

    def l2norm_sq(self, t: float) -> float:
        """||qfrak(., t)||^2 over R^d (cell embedding makes it an l^2 sum)."""
        if t <= self.shift:
            return 0.0
        tau = (t - self.shift) / 2.0
        n, j, inner = self.cycle_map(tau)
        if self.norm_fn is not None:
            per = self.norm_fn(inner)
        else:
            per = self._slice(inner).channel_norms_sq()
        return 0.5 * self.n_channels * float(per[j - 1])

    def norm_tail_integral(self, t_lo: float, t_hi: float,
                           points_per_cell: int = 4) -> float:
        """int_{t_lo}^{t_hi} ||qfrak(., s)||^2 ds by cell-aligned Gauss panels."""
        K = self.n_channels
        cell_w = 2.0 / K  # each (n, j) cell has width 2/K in t
        nodes, weights = np.polynomial.legendre.leggauss(points_per_cell)
        start = max(t_lo, self.shift)
        if start >= t_hi:
            return 0.0
        edges = [start]
        k = math.floor((start - self.shift) / cell_w) + 1
        while self.shift + k * cell_w < t_hi:
            edges.append(self.shift + k * cell_w)
            k += 1
        edges.append(t_hi)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xg, wg in zip(nodes, weights):
                total += wg * half * self.l2norm_sq(mid + half * xg)
        return total


def flatten_cycling(spec: ModelSpec, family: WeightFamily,
                    norm_fn: Optional[Callable] = None) -> ScalarKernel:
    """Build the scalar kernel view of the vector slices (lazy slice cache)."""
    return ScalarKernel(spec=spec, family=family, norm_fn=norm_fn)


# ---------------------------------------------------------------------------
# slice-bank container
# ---------------------------------------------------------------------------

_BANK_MAGIC = b"FRDBANK1"


def save_slice_bank(path: str, spec: ModelSpec, family: WeightFamily,
                    slices: list, sidecar: Optional[dict] = None):
    """Binary container: magic, JSON header, then contiguous float64 blocks.

    A JSON sidecar (same path + '.json') records provenance so cached banks
    can be validated before reuse.
    """
    header = {
        "model": spec.model,
        "d": spec.d,
        "channels": spec.n_channels,
        "family_key": family.content_key(),
        "slices": [
            {
                "t": s.t,
                "radius": s.support_radius,
                "channel_radii": list(s.channel_radii),
                "shape": list(s.field.values.shape),
            }
            for s in slices
        ],
    }
    hj = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(_BANK_MAGIC)
        f.write(np.uint64(len(hj)).tobytes())
        f.write(hj)
        for s in slices:
            f.write(np.ascontiguousarray(s.field.values, dtype="<f8").tobytes())
    write_sidecar(path, {"family_key": family.content_key(),
                         "t_grid": [s.t for s in slices], **(sidecar or {})})


def load_slice_bank(path: str, verify: bool = True):
    """Load a bank; returns (spec, header, slices).  Content hash is checked
    against the sidecar when present."""
    if verify and os.path.exists(path + ".json") and not sidecar_matches(path):
        raise ValueError("slice bank content hash mismatch; rebuild the cache")
    with open(path, "rb") as f:
        magic = f.read(len(_BANK_MAGIC))
        if magic != _BANK_MAGIC:
            raise ValueError("not a slice bank")
        (hlen,) = np.frombuffer(f.read(8), dtype=np.uint64)
        header = json.loads(f.read(int(hlen)).decode())
        spec = ModelSpec(model=header["model"], d=header["d"])
        slices = []
        for meta in header["slices"]:
            shape = tuple(meta["shape"])
            count = int(np.prod(shape))
            vals = np.frombuffer(f.read(count * 8), dtype="<f8").reshape(shape).copy()
            fld = LatticeField(d=spec.d, values=vals,
                               support_radius=meta["radius"])
            slices.append(KernelSlice(t=meta["t"], spec=spec, field=fld,
                                      channel_radii=tuple(meta["channel_radii"])))
    return spec, header, slices


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_sidecar(path: str, extra: Optional[dict] = None):
    """Record the file's sha256, then the extra fields, in path + '.json'."""
    side = {"content_sha256": _file_sha256(path), **(extra or {})}
    with open(path + ".json", "w") as f:
        json.dump(side, f, indent=1)


def sidecar_matches(path: str) -> bool:
    """True when path + '.json' exists and records the file's sha256."""
    try:
        with open(path + ".json") as f:
            return json.load(f)["content_sha256"] == _file_sha256(path)
    except (OSError, ValueError, KeyError, TypeError):
        return False
