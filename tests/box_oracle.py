"""Test-only references: full-box references for the orthant slice assembly
and the sampler spectrum, dense functional calculus on small periodic boxes,
and a random-walk estimate of the Green's function at the origin.

The recurrence here runs on the whole centered box of a field that need not
be even: four recurrences from delta_0, one per certificate array, then the
factor R on the last two, the channel concatenation and the prefactor.  Tests
compare `frdecomp.lattice`'s orthant recurrence and slice expansion with it.
The spectrum reference takes the FFT of every channel of every expanded slice;
tests compare the spectral sampler's scale-series spectrum with it.
"""

import math
from typing import Callable, Tuple

import numpy as np

from frdecomp.lattice import (
    BoxOverflowError,
    LatticeField,
    ModelSpec,
    apply_R,
    kernel_slice,
)


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


def apply_cheb_in_w_box(spec: ModelSpec, coeffs, u: LatticeField) -> LatticeField:
    """Apply sum_k c_k T_k(W) to u for W = Id - 2M/(2B)^gamma on the full box."""
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


def slice_box(t: float, spec: ModelSpec, cert, box_radius: int) -> np.ndarray:
    """The (2d+4)-channel slice box from four full-box recurrences."""
    delta = delta_field(spec.d, box_radius)
    ch1 = apply_cheb_in_w_box(spec, cert.cheb[0], delta)
    ch2 = apply_cheb_in_w_box(spec, cert.cheb[1], delta)
    r3 = apply_R(spec, apply_cheb_in_w_box(spec, cert.cheb[2], delta))
    r4 = apply_R(spec, apply_cheb_in_w_box(spec, cert.cheb[3], delta))
    pref = t ** ((2.0 - spec.gamma) / (2.0 * spec.gamma))
    return np.concatenate([ch1.values, ch2.values, r3.values, r4.values], axis=0) * pref


def fft_spectrum(spec: ModelSpec, family, t_nodes, t_weights, side: int):
    """sqrt(var0 + sum_k w_k sum_ch |q_hat_{t_k}|^2) on the rfft grid of the
    torus of the given side, from rfftn of every channel of every expanded
    slice; also the largest slice support radius."""
    d = spec.d
    total = np.full((side,) * (d - 1) + (side // 2 + 1,), family.small_t_mass())
    radius = 0
    for t, w in zip(t_nodes, t_weights):
        slc = kernel_slice(float(t), spec, family)
        radius = max(radius, slc.support_radius)
        # |q_hat|^2 ignores translation, so rfftn may zero-pad the block
        for block in slc.field.values:
            qhat = np.fft.rfftn(block, s=(side,) * d, axes=tuple(range(d)))
            total += w * (qhat.real ** 2 + qhat.imag ** 2)
    return np.sqrt(total), radius


def random_walk_green_origin(d: int, n_steps: int, seed: int = 0,
                             batch: int = 4000) -> Tuple[float, float, float]:
    """Monte Carlo estimate of G(0) for the gff model: expected visits to the
    origin of simple random walk divided by 2d.

    Returns (estimate, standard error, truncation bound): walks run for
    n_steps // batch steps each, and the unseen tail of the return series is
    bounded by the local-CLT envelope C * sum_{n > L} n^(-d/2)."""
    rng = np.random.default_rng(seed)
    length = max(2, n_steps // batch)
    pos = np.zeros((batch, d), dtype=np.int64)
    visits = np.ones(batch)
    arange = np.arange(batch)
    for _ in range(length):
        axis = rng.integers(0, d, size=batch)
        step = rng.integers(0, 2, size=batch) * 2 - 1
        pos[arange, axis] += step
        visits += np.all(pos == 0, axis=1)
    mean = visits.mean() / (2.0 * d)
    se = visits.std(ddof=1) / math.sqrt(batch) / (2.0 * d)
    # p_n(0,0) <= 2 (d / (2 pi n))^(d/2) for even n; integrate the tail
    c_env = 2.0 * (d / (2.0 * np.pi)) ** (d / 2.0)
    tail = c_env * 2.0 / (d - 2.0) * (length - 1.0) ** (1.0 - d / 2.0) / (2.0 * d)
    return float(mean), float(se), float(tail)


def dense_laplacian(d: int, n: int) -> np.ndarray:
    """Dense matrix of -Delta_d on the periodic box (Z/nZ)^d."""
    size = n ** d
    A = np.zeros((size, size))
    idx = np.arange(size)
    coords = np.stack(np.unravel_index(idx, (n,) * d), axis=1)
    for axis in range(d):
        for sgn in (1, -1):
            nb = coords.copy()
            nb[:, axis] = (nb[:, axis] + sgn) % n
            j = np.ravel_multi_index(tuple(nb.T), (n,) * d)
            A[idx, j] -= 1.0
    A[idx, idx] += 2.0 * d
    return A


def dense_functional_calculus(spec: ModelSpec, F: Callable, n: int) -> np.ndarray:
    """F(L) on the periodic n^d box by eigendecomposition, L = (-Delta_d)^p.

    Boxes are capped at ~11^3 entries; this is a reference implementation,
    not a fast path.
    """
    if n ** spec.d > 11 ** 3 + 1:
        raise ValueError("box too large for the dense reference")
    M = dense_laplacian(spec.d, n)
    evals, vecs = np.linalg.eigh(M)
    lam_L = evals ** spec.p
    return (vecs * np.asarray([F(v) for v in lam_L])) @ vecs.T
