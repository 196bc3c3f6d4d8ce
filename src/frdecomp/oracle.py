"""Independent reference computations the construction is checked against.

Nothing here goes through the polynomial/stencil pipeline: lattice Green's
functions come from Fourier quadrature with an analytic treatment of the
k = 0 singularity, and partition-of-unity checks re-integrate the scalar
weights with their own quadrature.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, Tuple

import numpy as np

from .lattice import ModelSpec
from .weights import (
    MODELS,
    WeightFamily,
    continuum_partition_integral,
    partition_integral,
)


# ---------------------------------------------------------------------------
# lattice Green's function by Fourier quadrature
# ---------------------------------------------------------------------------

# (sin z / z - cos z) / z^2 = sum_m (-1)^(m+1) 2m z^(2m-2) / (2m+1)!, through z^16;
# the first omitted term is below 4e-19 for |z| < 1
_D5_SERIES = np.array([(-1) ** (m + 1) * 2 * m / math.factorial(2 * m + 1)
                       for m in range(1, 10)])


def _angular_average(d: int, z):
    """int_{S^{d-1}} cos(z * omega_1) d omega, elementary for d = 3 and d = 5."""
    z = np.asarray(z, dtype=float)
    if d == 3:
        out = 4.0 * np.pi * np.sinc(z / np.pi)
        return out
    if d == 5:
        # below |z| = 1 the closed form cancels (relative error ~ eps/z^2),
        # so the Taylor series in z^2 takes over there
        small = np.abs(z) < 1.0
        zs = np.where(small, 1.0, z)
        main = 8.0 * np.pi ** 2 * (np.sin(zs) / zs - np.cos(zs)) / zs ** 2
        series = 8.0 * np.pi ** 2 * np.polynomial.polynomial.polyval(z * z, _D5_SERIES)
        return np.where(small, series, main)
    raise NotImplementedError("angular average implemented for d in {3, 5}")


def _panel_edges(levels: int) -> np.ndarray:
    """Dyadically refined edges of [0, pi] toward the singular corner at 0."""
    edges = [0.0] + [np.pi / 2 ** j for j in range(levels, -1, -1)]
    return np.array(edges)


def _axis_rule(levels: int, order: int):
    nodes_1d, weights_1d = [], []
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    for a, b in zip(_panel_edges(levels)[:-1], _panel_edges(levels)[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes_1d.append(mid + half * gl_x)
        weights_1d.append(half * gl_w)
    return np.concatenate(nodes_1d), np.concatenate(weights_1d)


def symbol_transform(d: int, F, xs: np.ndarray, sing_power: int,
                     sing_coeff: float = 1.0, levels: int = 7, order: int = 12,
                     cutoff: float = np.pi / 7.0) -> np.ndarray:
    """(2pi)^-d int_{[-pi,pi]^d} cos(k.x) F(sigma(k)) dk for several lags x.

    F may blow up like sing_coeff / sigma^sing_power at k = 0; that part is
    subtracted under a Gaussian cutoff chi and re-added through its radial
    closed form (the exponent d - 1 - 2p is 0 for both models, so the radial
    integrand is bounded).  The remaining integrand is handled by tensor
    Gauss panels refined dyadically toward the origin.

    The weighted integrand on the tensor grid does not change when the axes
    are permuted, so F is evaluated once per sorted index tuple and scattered
    to the full grid in chunks of the first axis.  Each chunk is contracted
    one axis at a time (tensordot) against cos(v k) for the distinct
    coordinate values v of the lags, which gives the transform at every
    combination of those values; the lags are read off that table.
    """
    p = sing_power
    x1, w1 = _axis_rule(levels, order)
    L = len(x1)

    # weighted integrand once per sorted index tuple i_1 <= ... <= i_d
    tuples = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(L), d)),
        dtype=np.intp).reshape(-1, d)
    sigma = np.sum((2.0 - 2.0 * np.cos(x1))[tuples], axis=1)
    k2 = np.sum((x1 * x1)[tuples], axis=1)
    chi = np.exp(-k2 / (2.0 * cutoff ** 2))
    smooth = F(sigma) - sing_coeff * chi / k2 ** p
    # rank of a sorted tuple: sum_j C(i_j + j, j + 1), onto [0, len(tuples))
    binom = [np.array([math.comb(i + j, j + 1) for i in range(L)])
             for j in range(d)]

    def rank(cols):
        return sum(b[c] for b, c in zip(binom, cols))

    packed = np.empty(len(tuples))
    packed[rank(tuples.T)] = np.prod(w1[tuples], axis=1) * smooth

    vals, pos = np.unique(np.abs(xs), return_inverse=True)
    pos = pos.reshape(xs.shape)
    cos_v = np.cos(np.outer(vals, x1))
    table = 0.0
    step = max(1, (1 << 18) // L ** (d - 1))
    for lo in range(0, L, step):
        first = np.arange(lo, min(lo + step, L))
        # sort each index tuple of the chunk: insert one axis at a time into
        # the sorted prefix, broadcasting, so only the last pass is full size
        grid = [first.reshape((-1,) + (1,) * (d - 1))]
        for a in range(1, d):
            carry, upper = np.arange(L).reshape((L,) + (1,) * (d - 1 - a)), []
            for s_j in reversed(grid):
                upper.append(np.maximum(s_j, carry))
                carry = np.minimum(s_j, carry)
            grid = [carry] + upper[::-1]
        block = packed[rank(grid)]
        for axis in range(d - 1, 0, -1):
            block = np.tensordot(block, cos_v, axes=([axis], [1]))
        table = table + np.tensordot(cos_v[:, first], block, axes=([1], [0]))
    # table axes run (v_1, v_d, ..., v_2)
    part_box = table[tuple(pos[:, [0] + list(range(d - 1, 0, -1))].T)]
    part_box = part_box * (2.0 ** d / (2.0 * np.pi) ** d)

    # singular part over all of R^d, radially: d - 1 - 2p = 0 for both models
    r_nodes, r_w = np.polynomial.legendre.leggauss(240)
    upper = 9.0 * cutoff
    r = 0.5 * upper * (r_nodes + 1.0)
    rw = 0.5 * upper * r_w
    chir = np.exp(-r * r / (2.0 * cutoff ** 2))
    xnorm = np.sqrt(np.sum(xs * xs, axis=1))
    ang = _angular_average(d, np.outer(xnorm, r))
    part_sing = (ang * (chir * rw)[None, :]).sum(axis=1)
    part_sing *= sing_coeff / (2.0 * np.pi) ** d
    return part_box + part_sing


def _green_once(spec: ModelSpec, xs: np.ndarray, levels: int, order: int,
                cutoff: float) -> np.ndarray:
    p = spec.p
    return symbol_transform(spec.d, lambda s: 1.0 / s ** p, xs,
                            sing_power=p, levels=levels, order=order,
                            cutoff=cutoff)


@dataclass
class GreensOracle:
    """Cached Green's function values for one lattice model."""

    spec: ModelSpec
    levels: int = 7
    order: int = 12
    cutoff: float = np.pi / 7.0
    cache: Dict[Tuple[int, ...], Tuple[float, float]] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.spec.d <= 2 * self.spec.p:
            raise ValueError("Green's function diverges unless d > 2p")
        if self.spec.d == 5:
            # d = 5 tensor grids are large; coarser refinement, looser target
            self.levels = min(self.levels, 3)
            self.order = min(self.order, 6)

    def values(self, x_list) -> Dict[Tuple[int, ...], Tuple[float, float]]:
        missing = [tuple(int(v) for v in x) for x in x_list
                   if tuple(int(v) for v in x) not in self.cache]
        if missing:
            xs = np.array(missing, dtype=float)
            coarse = _green_once(self.spec, xs, self.levels, self.order, self.cutoff)
            if self.spec.d <= 3:
                fine = _green_once(self.spec, xs, self.levels + 1,
                                   self.order + 2, self.cutoff)
            else:
                # high dimensions: refine the order only; a full extra dyadic
                # level would multiply the node count beyond usefulness
                fine = _green_once(self.spec, xs, self.levels,
                                   self.order + 1, self.cutoff)
            for xm, vc, vf in zip(missing, coarse, fine):
                self.cache[xm] = (float(vf), float(abs(vf - vc)))
        return {tuple(int(v) for v in x): self.cache[tuple(int(v) for v in x)]
                for x in x_list}


def export_greens_csv(path: str, values: Dict[Tuple[int, ...], Tuple[float, float]]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "value", "error"])
        for x, (v, e) in sorted(values.items()):
            writer.writerow([" ".join(str(c) for c in x), repr(v), repr(e)])


# ---------------------------------------------------------------------------
# scalar partition-of-unity check
# ---------------------------------------------------------------------------

def scalar_partition_check(family: WeightFamily, lambda_grid, T: float = 64.0) -> float:
    """max over the grid of |lambda * int_0^inf t^((2-gamma)/gamma) w dt - 1|.

    For the lattice families w is the repaired weight (closed form below
    t = 1, adaptive quadrature on [1, T], exact profile tail above); for the
    continuum families the integrand is wtilde^2.
    """
    errs = []
    for lam in np.asarray(lambda_grid, dtype=float):
        if MODELS[family.params.model].lattice:
            val = partition_integral(lam, family, T=T)
        else:
            val = continuum_partition_integral(lam, family.params.gamma,
                                               family.profile)
        errs.append(abs(val - 1.0))
    return float(np.max(errs))
