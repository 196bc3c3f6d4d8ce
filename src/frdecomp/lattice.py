"""Operator calculus on Z^d: Chebyshev series in -Delta, the factor R, kernel slices.

Fields live on centered cubic boxes.  The Chebyshev recurrence runs on
fields even in every coordinate, held on their closed non-negative orthant, so
a kernel slice is stored as four scalar orthants and expanded to its full box
only when read; the expansion is exactly mirror-symmetric.  A declared support
radius is structural: operator application only ever writes inside the grown
radius, so entries beyond it are exactly zero, not merely small.  That
exactness is what the finite-range checks certify.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.chebyshev import chebadd, chebmul

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


def _along(ax: int, sl: slice, ndim: int) -> tuple:
    """Index selecting sl on axis ax of an ndim-array and everything elsewhere."""
    return tuple(sl if a == ax else slice(None) for a in range(ndim))


def apply_cheb_in_w(spec: ModelSpec, coeffs, u: np.ndarray,
                    support_radius: int = 0) -> np.ndarray:
    """Apply sum_k c_k T_k(W), W = Id - 2M/(2B)^gamma, M = -Delta_d, to a field u
    that is even in every coordinate, on its closed non-negative orthant.

    u has shape (R+1,)*d and vanishes beyond index support_radius on every
    axis; its mirrored neighbour across index 0 is read at index 1.  coeffs is
    one series (n+1,) or m series (m, n+1); all share one three-term
    recurrence of T_k(W) u.  Returns the m result orthants, shape (m,) +
    u.shape.  W is the operator image of the certificate variable
    1 - 2 mu/(2B)^gamma; spec(W) lies inside [-1, 1], so the forward
    recurrence is stable; the support grows by exactly one cell per degree
    and zeros outside stay exact.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n = coeffs.shape[1] - 1
    u = np.asarray(u, dtype=float)
    d, R = spec.d, u.shape[0] - 1
    if support_radius + n > R:
        raise BoxOverflowError(f"need box radius {support_radius + n}, have {R}")
    scale = 2.0 / spec.c
    c_k = coeffs.T.reshape((n + 1, -1) + (1,) * d)   # c_k[k]: every series' k-th

    def w_times(v: np.ndarray, r: int) -> np.ndarray:
        """W v on [0, r + 1]^d, the sub-orthant that holds its support."""
        src = v[(slice(0, r + 2),) * d]
        m = (2.0 * d) * src
        for ax in range(d):
            m[_along(ax, slice(1, None), d)] -= src[_along(ax, slice(None, -1), d)]
            m[_along(ax, slice(None, -1), d)] -= src[_along(ax, slice(1, None), d)]
            m[_along(ax, slice(0, 1), d)] -= src[_along(ax, slice(1, 2), d)]
        return src - scale * m

    acc = c_k[0] * u
    prev, cur, r = None, u, support_radius
    for k in range(1, n + 1):
        box = (slice(0, r + 2),) * d
        nxt = np.zeros_like(u)
        nxt[box] = w_times(cur, r) if k == 1 else 2.0 * w_times(cur, r) - prev[box]
        prev, cur, r = cur, nxt, r + 1
        acc[(slice(None),) + box] += c_k[k] * nxt[box]
    return acc


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

class _ExpandedBox:
    """KernelSlice.field: the box given at construction, else a fresh expansion
    of the scalars that the slice does not keep."""

    def __get__(self, slc, owner=None):
        if slc is None:
            return None                     # the dataclass default: no box given
        given = slc.__dict__["_given_box"]
        return slc.expand() if given is None else given

    def __set__(self, slc, box):
        slc.__dict__["_given_box"] = box


def _mirror(u: np.ndarray) -> np.ndarray:
    """Full centered boxes (m,) + (2R+1,)*d from closed non-negative orthants
    (m,) + (R+1,)*d of fields even in every coordinate."""
    neg = np.arange(u.shape[1] - 1, 0, -1)
    for ax in range(1, u.ndim):
        u = np.concatenate([u.take(neg, axis=ax), u], axis=ax)
    return u


@dataclass(repr=False)
class KernelSlice:
    """The vector kernel q_t . delta_0 with channels
    (a1, a2, R a3 (d+1 channels), R a4 (d+1 channels)), a_i = pref b_i(W) delta_0.

    The b_i(W) delta_0 are even in every coordinate, so the slice keeps only
    their closed non-negative orthants in the box of radius R: `scalars`,
    shape (4,) + (R+1,)*d, unscaled, plus the prefactor and the channel radii.
    `field` expands them to the full (2d+4)-channel box (mirror, apply_R,
    concatenate, times pref) on every read and keeps nothing.  The expanded
    box is exactly mirror-symmetric: the scalar channels under every
    reflection x_i -> -x_i, the shift channel of axis i under x_i -> -1 - x_i
    and the other reflections.  Entries beyond each channel's declared radius
    are exactly zero.  A box passed as field= (a deliberately corrupted copy,
    say) is returned by `field` in place of the expansion; `total_norm_sq`
    and `at` read the scalars.
    """

    t: float
    spec: ModelSpec
    scalars: np.ndarray
    pref: float
    channel_radii: tuple
    field: LatticeField = _ExpandedBox()

    @property
    def support_radius(self) -> int:
        return max(self.channel_radii)

    @property
    def box_radius(self) -> int:
        return self.scalars.shape[1] - 1

    def expand(self) -> LatticeField:
        """The full (2d+4)-channel box of radius box_radius."""
        d = self.spec.d
        full = _mirror(self.scalars)
        lifted = [apply_R(self.spec, LatticeField(d, full[i:i + 1],
                                                  max(self.channel_radii[ch] - 1, 0))).values
                  for i, ch in ((2, 2), (3, 3 + d))]
        values = np.concatenate([full[:2]] + lifted, axis=0) * self.pref
        return LatticeField(d=d, values=values, support_radius=self.support_radius)

    def at(self, x) -> np.ndarray:
        """The 2d+4 channel values at site x, read from the scalars with the
        expansion's per-site arithmetic, (u(x + e_i) + u(x)) * pref on the
        shift channels; zero outside the box."""
        d, R, u = self.spec.d, self.box_radius, self.scalars
        a = np.abs(np.asarray(x, dtype=int))
        out = np.zeros(self.spec.n_channels)
        if np.any(a > R):
            return out
        here = u[(slice(None),) + tuple(a)]
        out[:2] = here[:2]
        out[2] = self.spec.r_first_coeff * here[2]
        out[3 + d] = self.spec.r_first_coeff * here[3]
        for i in range(d):
            b = a.copy()
            b[i] = abs(int(x[i]) + 1)
            up = u[(slice(2, 4),) + tuple(b)] if b[i] <= R else np.zeros(2)
            out[3 + i] = up[0] + here[2]
            out[4 + d + i] = up[1] + here[3]
        return out * self.pref

    def total_norm_sq(self) -> float:
        """Squared l^2 norm of the slice over Z^d, read from the orthants:
        pref^2 sum_z m(z) [u1^2 + u2^2 + (c/2)(u3^2 + u3 W u3 + u4^2 + u4 W u4)],
        m(z) = 2^(nonzero coordinates of z), since R*R = c - M = (c/2)(1 + W)."""
        d, u = self.spec.d, self.scalars
        m = functools.reduce(np.multiply.outer,
                             [np.where(np.arange(u.shape[1]) > 0, 2.0, 1.0)] * d)
        total = np.sum(m * (u[0] ** 2 + u[1] ** 2))
        for i, ch in ((2, 2), (3, 3 + d)):
            wu = apply_cheb_in_w(self.spec, [0.0, 1.0], u[i],
                                 support_radius=max(self.channel_radii[ch] - 1, 0))[0]
            total += self.spec.c / 2.0 * np.sum(m * u[i] * (u[i] + wu))
        return float(total * self.pref ** 2)

    def finite_range_scan(self) -> tuple:
        """(nonzero entries outside the declared l1 channel radii, entries
        scanned), over the expanded full box, read once."""
        box = self.field
        dist = np.abs(np.indices(box.values.shape[1:]) - box.box_radius).sum(axis=0)
        violations = scanned = 0
        for values, radius in zip(box.values, self.channel_radii):
            outside = values[dist > radius]
            violations += int(np.count_nonzero(outside))
            scanned += outside.size
        return violations, scanned


def kernel_slice(t: float, spec: ModelSpec, family: WeightFamily,
                 box_radius: Optional[int] = None,
                 cert: Optional[KernelCertificate] = None) -> KernelSlice:
    """Assemble the kernel slice at scale t from the weight certificate.

    One recurrence of T_k(W) delta_0 on the orthant serves all four scalars.
    Channels carry the prefactor t^((2-gamma)/(2gamma)); their declared radii
    (channel_radii) are the certificate degrees (<= floor(t)) plus one on the
    R channels.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if cert is None:
        cert = aj_family(t, family.params, family.profile,
                         gamma_const=family.gamma_const)
    d = spec.d
    degs = cert.degrees
    need = max(degs[0], degs[1], degs[2] + 1, degs[3] + 1)
    if box_radius is None:
        box_radius = need
    if box_radius < need:
        raise BoxOverflowError(f"box radius {box_radius} < required {need}")
    coeffs = np.zeros((4, max(degs) + 1))
    for row, a in zip(coeffs, cert.cheb):
        row[:len(a)] = a
    delta = np.zeros((box_radius + 1,) * d)
    delta[(0,) * d] = 1.0
    return KernelSlice(t=t, spec=spec, scalars=apply_cheb_in_w(spec, coeffs, delta),
                       pref=t ** ((2.0 - spec.gamma) / (2.0 * spec.gamma)),
                       channel_radii=channel_radii(spec, cert))


def channel_radii(spec: ModelSpec, cert: KernelCertificate) -> tuple:
    """Declared l1 radii of the 2d+4 channels of the slice that cert gives:
    the certificate degrees, plus one on the R channels unless their series
    is identically zero."""
    degs, d = cert.degrees, spec.d
    rad = [0 if len(a) == 1 and a[0] == 0.0 else n + 1
           for a, n in zip(cert.cheb[2:], degs[2:])]
    return (degs[0], degs[1]) + (rad[0],) * (d + 1) + (rad[1],) * (d + 1)


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


def scale_series(spec: ModelSpec, family: WeightFamily, scale_grid) -> tuple:
    """(A, certificates): the Chebyshev series in W of the grid part of the
    scale integral, A = sum_i w_i pref_i^2 S_{t_i}, and the certificate of
    every node.

    R*R = c - M = (c/2)(1 + W) makes sum_ch (q_t * q_t) = pref_t^2 S_t(W)
    delta_0 with S_t = b1^2 + b2^2 + (c/2)(1 + W)(b3^2 + b4^2), a series of
    degree 2n + 1 read off the certificate; A(W) is also the symbol
    sum_i w_i sum_ch |q_hat_{t_i}|^2.
    """
    series, certs = np.zeros(1), []
    for t, w in zip(*scale_grid):
        cert = aj_family(float(t), family.params, family.profile,
                         gamma_const=family.gamma_const)
        certs.append(cert)
        sq = [chebmul(b, b) for b in cert.cheb]
        s_t = chebadd(chebadd(sq[0], sq[1]),
                      chebmul([spec.c / 2.0, spec.c / 2.0], chebadd(sq[2], sq[3])))
        series = chebadd(series, w * t ** ((2.0 - spec.gamma) / spec.gamma) * s_t)
    return series, certs


def greens_reconstruct(spec: ModelSpec, family: WeightFamily, scale_grid,
                       x_list, tail: bool = True,
                       slice_cb: Optional[Callable] = None):
    """Reconstruct G(x) = int_0^infty sum_ch (q_t * q_t)(x) dt.

    The scale grid covers [1, T_max] with quadrature weights, so the grid
    part is the one series A of scale_series, applied to delta_0 once on the
    orthant of radius deg A; each lag class reads its sorted representative
    there, and one beyond the radius is exactly 0.  The t < 1 part enters in
    closed form (a pure delta contribution), and the upper tail is added
    exactly per lag from the profile tail moments (greens_tail).  A power-law
    fit to the last decade of ||q_t||^2 (channel_norms_sq) is reported as a
    diagnostic slope.  slice_cb, when given, receives the kernel slice of
    every node.

    Returns (values, info): values maps tuple(x) -> reconstructed value, and
    info carries the tail at lag 0, the fitted decay slope, per-node norms.
    """
    t_nodes, _ = scale_grid
    classes = list(dict.fromkeys(lag_class(x) for x in x_list))
    series, certs = scale_series(spec, family, scale_grid)
    if slice_cb is not None:
        for t, cert in zip(t_nodes, certs):
            slice_cb(kernel_slice(float(t), spec, family, cert=cert))
    norms = np.array([channel_norms_sq(spec, cert).sum() for cert in certs])
    radius = len(series) - 1
    delta = np.zeros((radius + 1,) * spec.d)
    delta[(0,) * spec.d] = 1.0
    corr = apply_cheb_in_w(spec, series, delta)[0]
    zero_cls = (0,) * spec.d
    tails = (greens_tail(spec, family, float(t_nodes[-1]), classes) if tail
             else dict.fromkeys(classes, 0.0))
    acc = {cls: (float(corr[cls]) if max(cls) <= radius else 0.0)
           + (family.small_t_mass() if cls == zero_cls else 0.0) + tails[cls]
           for cls in classes}
    sel = t_nodes >= t_nodes[-1] / 2.0
    slope = float(np.polyfit(np.log(t_nodes[sel]),
                             np.log(np.maximum(norms[sel], 1e-300)), 1)[0])
    values = {tuple(int(v) for v in x): acc[lag_class(x)] for x in x_list}
    info = {"tail": tails.get(zero_cls, 0.0), "slope": slope,
            "norms": norms, "t_nodes": t_nodes}
    return values, info


# ---------------------------------------------------------------------------
# channel norms from the certificate (no boxes; Parseval on a finite torus)
# ---------------------------------------------------------------------------

def spectral_rule(d: int, n: int) -> tuple:
    """(sigma_nodes, weights): the n-point Gauss rule for the law of the
    Laplacian symbol sigma(k) = sum_i (2 - 2 cos k_i) under uniform k, exact
    for polynomials in sigma of degree <= 2n - 1.

    cos k_i follows the arcsine law, whose Gauss rule is Gauss-Chebyshev.
    Adding one axis at a time gives n^2 atoms that are still exact to that
    degree; Lanczos with full reorthogonalisation compresses them back to n
    nodes, the eigenvalues of the Jacobi matrix (Gautschi, Orthogonal
    Polynomials, 2004, sec. 2.2).  The Lanczos products are einsums, which do
    not go through BLAS, so their sums do not depend on the BLAS thread count.
    """
    axis = 2.0 - 2.0 * np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
    nodes, weights = axis, np.full(n, 1.0 / n)
    q = np.empty((n, n * n))                     # Lanczos vectors, one per row
    for _ in range(d - 1):
        x = np.add.outer(nodes, axis).ravel()
        q[0] = np.sqrt(np.repeat(weights / n, n))
        jac = np.zeros((n, n))
        for k in range(n):
            r = x * q[k] - (jac[k, k - 1] * q[k - 1] if k else 0.0)
            jac[k, k] = np.sum(q[k] * r)
            r -= jac[k, k] * q[k]
            r -= np.einsum("ki,k->i", q[:k + 1], np.einsum("ki,i->k", q[:k + 1], r))
            if k + 1 < n:
                jac[k, k + 1] = jac[k + 1, k] = np.sqrt(np.sum(r * r))
                q[k + 1] = r / jac[k, k + 1]
        nodes, vecs = np.linalg.eigh(jac)
        weights = vecs[0] ** 2
    return nodes, weights


@functools.lru_cache(maxsize=128)
def _torus_moments(spec: ModelSpec, side: int) -> np.ndarray:
    """mu_j = E[T_j(W)] over the frequencies of the torus of the given side,
    for j < side; there they equal (T_j(W) delta_0)(0) on Z^d.

    T_j(W) has degree j < side in each cos k_i, so its torus mean is its mean
    under uniform k, which the (side//2 + 1)-point spectral_rule gives
    exactly.
    """
    sigma, weight = spectral_rule(spec.d, side // 2 + 1)
    w = 1.0 - (2.0 / spec.c) * sigma
    mu = np.zeros(side)
    prev, cur = w, np.ones_like(w)               # T_{-1} = T_1
    for j in range(side):
        mu[j] = np.sum(weight * cur)
        prev, cur = cur, 2.0 * w * cur - prev
    mu.setflags(write=False)
    return mu


def channel_norms_sq(spec: ModelSpec, cert: KernelCertificate) -> np.ndarray:
    """Squared l^2 norm over Z^d of every channel of the slice that cert
    gives, exactly, with no box; an array of length 2d + 4.

    A channel b(W) delta_0 of degree n has range n, so on the torus of side
    N >= 2n + 2 it does not wrap, and Parseval makes its squared norm the
    mean E[b(W)^2] over the torus frequencies.  With the moments mu_k =
    E[T_k(W)] and T_k T_l = (T_{k+l} + T_{|k-l|}) / 2 that is the quadratic
    form (1/2) sum_kl a_k a_l (mu_{k+l} + mu_{|k-l|}).  By the cube symmetry
    each shift channel u(x + e_i) + u(x) of R has the squared norm
    E[(2 + 2 cos k_i) b^2] = E[(4 - sigma/d) b^2], sigma = (c/2)(1 - W); the
    same form over the moments of W T_m = (T_{m+1} + T_{|m-1|}) / 2 gives it.
    """
    d, c = spec.d, spec.c
    n = max(cert.degrees)
    mu = _torus_moments(spec, 2 * n + 2)
    m = np.arange(2 * n + 1)
    w_mu = 0.5 * (mu[m + 1] + mu[np.abs(m - 1)])      # E[W T_m]

    def form(a, mom):
        k = np.arange(len(a))
        g = mom[k[:, None] + k] + mom[np.abs(k[:, None] - k)]
        return 0.5 * float(np.sum(a[:, None] * g * a))

    sq = [form(a, mu) for a in cert.cheb]
    s3, s4 = ((4.0 - c / (2.0 * d)) * e + c / (2.0 * d) * form(a, w_mu)
              for e, a in zip(sq[2:], cert.cheb[2:]))
    out = np.array(sq[:2] + [(c - 4.0 * d) * sq[2]] + [s3] * d
                   + [(c - 4.0 * d) * sq[3]] + [s4] * d)
    return out * cert.t ** ((2.0 - spec.gamma) / spec.gamma)


# ---------------------------------------------------------------------------
# component cycling: the scalar kernel
# ---------------------------------------------------------------------------

CACHE_RADIUS_LIMIT = 40   # ScalarKernel keeps the slices it reads up to this support radius


@dataclass
class ScalarKernel:
    """Scalar space-scale kernel obtained by cycling through the 2d+4 slice
    channels and embedding lattice values as constants on unit cells.

    Nonzero only for t > shift = sqrt(d); supported in |x|_2 <= t/2.
    """

    spec: ModelSpec
    family: WeightFamily
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False)
    _norms: dict = dc_field(default_factory=dict, init=False, repr=False)

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
            if slc.support_radius <= CACHE_RADIUS_LIMIT:
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
        return scale * float(slc.at(cell)[j - 1])

    def l2norm_sq(self, t: float) -> float:
        """||qfrak(., t)||^2 over R^d (cell embedding makes it an l^2 sum), from
        the certificate's channel norms, kept per inner scale; no slice is built."""
        if t <= self.shift:
            return 0.0
        tau = (t - self.shift) / 2.0
        n, j, inner = self.cycle_map(tau)
        key = round(inner, 12)
        if key not in self._norms:
            cert = aj_family(max(inner, 1e-12), self.family.params,
                             self.family.profile, gamma_const=self.family.gamma_const)
            self._norms[key] = channel_norms_sq(self.spec, cert)
        return 0.5 * self.n_channels * float(self._norms[key][j - 1])

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


def flatten_cycling(spec: ModelSpec, family: WeightFamily) -> ScalarKernel:
    """Build the scalar kernel view of the vector slices (lazy slice cache)."""
    return ScalarKernel(spec=spec, family=family)
