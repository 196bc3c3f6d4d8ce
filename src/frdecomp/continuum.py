"""Radial kernels of the continuum decomposition and their reconstructions.

The continuum weight is a Fourier multiplier: at scale t the kernel is the
d-dimensional inverse transform of t^((2-gamma)/(2gamma)) sqrt(c0) *
phi(|xi|^gamma t).  Everything here is radial, so transforms reduce to
one-dimensional Bessel-weighted integrals; for d = 3 and d = 5 the angular
kernels are elementary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oracle import _angular_average
from .weights import BumpProfile, c0_constant

SUPPORT_LEAK_TOL = 1e-6   # admissible relative magnitude beyond radius t


@dataclass(frozen=True)
class RadialKernel:
    """Tabulated radial kernel q_t(r) on a uniform grid up to r_max."""

    t: float
    d: int
    gamma: float
    r_grid: np.ndarray
    values: np.ndarray
    support_radius: float     # theoretical support bound (t, or t + mollifier radius)
    band: float               # transform band used to build the table

    def at(self, r):
        return np.interp(np.abs(r), self.r_grid, self.values, right=0.0)

    def support_leak(self) -> float:
        """max |q| on (support_radius, 2*support_radius] relative to max |q|."""
        mask = (self.r_grid > self.support_radius) & (
            self.r_grid <= 2.0 * self.support_radius
        )
        if not np.any(mask):
            return 0.0
        return float(np.max(np.abs(self.values[mask])) / np.max(np.abs(self.values)))

    def l2norm_sq(self) -> float:
        surface = _sphere_area(self.d)
        return surface * float(
            np.trapezoid(self.values ** 2 * self.r_grid ** (self.d - 1), self.r_grid)
        )


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _multiplier(profile: BumpProfile, gamma: float) -> Callable:
    """The scale-free multiplier sqrt(c0) phi(sigma^gamma)."""
    amp = math.sqrt(c0_constant(profile, gamma))

    def m(sigma):
        return amp * profile.phi_at(sigma ** gamma)

    return m


def _panel_count(oscillations: float) -> int:
    return max(32, int(4 * oscillations) + 8)


def _radial_inverse_transform(mult: Callable, rho_max: float, d: int,
                              r_grid: np.ndarray, oscillations: float) -> np.ndarray:
    """(2pi)^-d int_0^rho_max mult(rho) rho^(d-1) Lambda_d(rho r) drho.

    Composite Gauss panels sized by the total oscillation count of the
    Bessel-type factor, so the rule stays accurate for every tabulated r.
    Rows of r are taken in blocks of at most 2^21 angular values.
    """
    n_panels = _panel_count(oscillations)
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, rho_max, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    rho = (mids[:, None] + halves[:, None] * gl_x[None, :]).ravel()
    w = (halves[:, None] * gl_w[None, :]).ravel()
    fvals = mult(rho) * rho ** (d - 1) * w
    out = np.empty(len(r_grid))
    block = max(1, min(256, (1 << 21) // len(rho)))
    for lo in range(0, len(r_grid), block):
        rg = r_grid[lo:lo + block]
        ang = _angular_average(d, np.outer(rg, rho))
        out[lo:lo + block] = ang @ fvals
    return out / (2.0 * math.pi) ** d


_TABLES: dict = {}          # scale-free radial tables, oldest first
_TABLES_MAX = 16


def _scale_free_table(profile: BumpProfile, d: int, gamma: float, n_radial: int,
                      r_max_factor: float, u_max: float) -> np.ndarray:
    """Q(u) = (2pi)^-d int_0^sigma_max sqrt(c0) phi(sigma^gamma) sigma^(d-1)
    Lambda_d(sigma u) dsigma on linspace(0, u_max, n_radial * r_max_factor + 1),
    sigma_max = s_max^(1/gamma), computed once per key and returned read-only.
    """
    sigma_max = profile.s_max ** (1.0 / gamma)
    oscillations = sigma_max * u_max / (2.0 * math.pi)
    key = (profile.content_key(), d, gamma, n_radial, r_max_factor, u_max,
           _panel_count(oscillations))
    table = _TABLES.get(key)
    if table is None:
        u_grid = np.linspace(0.0, u_max, int(n_radial * r_max_factor) + 1)
        table = _radial_inverse_transform(_multiplier(profile, gamma), sigma_max,
                                          d, u_grid, oscillations)
        table.setflags(write=False)
        if len(_TABLES) >= _TABLES_MAX:
            del _TABLES[next(iter(_TABLES))]
        _TABLES[key] = table
    return table


def radial_kernel(t: float, d: int, gamma: float, profile: BumpProfile,
                  n_radial: int = 512, r_max_factor: float = 4.0) -> RadialKernel:
    """The scale-t kernel of the continuum decomposition, tabulated radially.

    The profile must be the h = 1/2 one: the transform of phi then lives in
    [-1, 1] and the kernel is supported in |x| <= t up to transform
    truncation, certified by support_leak().

    In the scale-free variables sigma = rho t^(1/gamma) and u = r t^(-1/gamma)
    the multiplier loses its t, so

        q_t(r) = t^((2-gamma)/(2gamma) - d/gamma) Q(r t^(-1/gamma))

    with one Bessel transform Q on u in [0, r_max_factor t^(1-1/gamma)].  Q is
    cached by the profile's content key, d, gamma, the grid and the panel
    count; for gamma = 1 its u-range does not depend on t, so every scale
    shares one table.  Each kernel owns a freshly scaled copy of it.
    """
    if abs(profile.h - 0.5) > 1e-12:
        raise ValueError("continuum kernels require the h = 1/2 profile")
    if d not in (3, 5):
        raise NotImplementedError("radial transforms implemented for d in {3, 5}")
    u_max = r_max_factor * t ** (1.0 - 1.0 / gamma)
    table = _scale_free_table(profile, d, gamma, n_radial, r_max_factor, u_max)
    vals = table * t ** ((2.0 - gamma) / (2.0 * gamma) - d / gamma)
    r_grid = np.linspace(0.0, r_max_factor * t, len(table))
    return RadialKernel(t=t, d=d, gamma=gamma, r_grid=r_grid, values=vals,
                        support_radius=t, band=(profile.s_max / t) ** (1.0 / gamma))


def c3_bump(radius: float, d: int) -> Callable:
    """A normalized C^3 radial mollifier: (1 - (r/R)^2)^4 on [0, R].

    Four vanishing derivatives at the edge give C^3 regularity across the
    support boundary; the constant normalizes the R^d integral to 1.
    """
    r = np.linspace(0.0, radius, 2001)
    shape = (1.0 - (r / radius) ** 2) ** 4
    mass = _sphere_area(d) * np.trapezoid(shape * r ** (d - 1), r)

    def eta(rr):
        rr = np.abs(np.asarray(rr, dtype=float))
        val = np.where(rr < radius, (1.0 - (rr / radius) ** 2) ** 4, 0.0) / mass
        return val

    return eta


def mollify(kernel: RadialKernel, eta: Callable, eta_radius: float) -> RadialKernel:
    """Convolve the kernel with a radial mollifier (in the transform domain).

    Radial convolution of radial functions is radial; supports add, so the
    declared radius becomes t + eta_radius.
    """
    d = kernel.d
    # forward transform of eta: int eta(x) exp(-i xi x) dx, radial
    r = np.linspace(0.0, eta_radius, 1025)
    ev = eta(r)

    def eta_hat(rho):
        ang = _angular_average(d, np.outer(np.atleast_1d(rho), r))
        return ang @ (ev * r ** (d - 1)) * (r[1] - r[0])

    # forward transform of the kernel from its table
    rk = kernel.r_grid
    kv = kernel.values

    def q_hat(rho):
        ang = _angular_average(d, np.outer(np.atleast_1d(rho), rk))
        return ang @ (kv * rk ** (d - 1)) * (rk[1] - rk[0])

    new_support = kernel.support_radius + eta_radius
    r_max = kernel.r_grid[-1] + eta_radius
    r_grid = np.linspace(0.0, r_max, len(kernel.r_grid) + 256)
    rho_max = kernel.band

    def mult(rho):
        return q_hat(rho) * eta_hat(rho)

    oscillations = rho_max * r_max / (2.0 * math.pi)
    vals = _radial_inverse_transform(mult, rho_max, d, r_grid, oscillations)
    return RadialKernel(t=kernel.t, d=d, gamma=kernel.gamma, r_grid=r_grid,
                        values=vals, support_radius=new_support, band=rho_max)


def radial_autoconvolution(kernel: RadialKernel, r_out) -> np.ndarray:
    """(q * q)(r) for a radial function in d = 3.

    Uses the shell formula (f*g)(r) = (2 pi / r) int s f(s)
    [int_{|r-s|}^{r+s} u g(u) du] ds, with the inner integral taken from a
    cumulative table.
    """
    if kernel.d != 3:
        raise NotImplementedError("autoconvolution implemented for d = 3")
    r_out = np.atleast_1d(np.asarray(r_out, dtype=float))
    rg = kernel.r_grid
    dr = rg[1] - rg[0]
    ug = kernel.values * rg
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ug[1:] + ug[:-1]) * dr)])

    def U(v):
        v = np.clip(v, 0.0, rg[-1])
        return np.interp(v, rg, cum)

    out = np.empty(len(r_out))
    sf = kernel.values * rg
    for i, r in enumerate(r_out):
        if r == 0.0:
            # limit: (f*f)(0) = 4 pi int s^2 f(s)^2 ds
            out[i] = 4.0 * math.pi * np.trapezoid(kernel.values ** 2 * rg ** 2, rg)
            continue
        inner = U(r + rg) - U(np.abs(r - rg))
        out[i] = 2.0 * math.pi / r * np.trapezoid(sf * inner, rg)
    return out


def continuum_reconstruct(d: int, t_grid, r_list, profile: BumpProfile,
                          gamma: float = 1.0, tail: bool = True):
    """G_rec(r) = int (q_t * q_t)(r) dt over the scale grid, plus a power-law
    tail estimate; to be compared with the Green's function of the Laplacian.

    Returns (values, info) with values mapping r -> reconstructed G(r).
    """
    if d != 3:
        raise NotImplementedError("reconstruction implemented for d = 3")
    t_nodes, t_weights = t_grid
    r_arr = np.asarray(r_list, dtype=float)
    acc = np.zeros(len(r_arr))
    integrand0 = np.empty(len(t_nodes))
    for i, (t, w) in enumerate(zip(t_nodes, t_weights)):
        ker = radial_kernel(float(t), d, gamma, profile)
        conv = radial_autoconvolution(ker, r_arr)
        integrand0[i] = radial_autoconvolution(ker, np.array([0.0]))[0]
        acc += w * conv
    tail_est = 0.0
    slope = None
    if tail:
        sel = t_nodes >= t_nodes[-1] / 2.0
        X = np.log(t_nodes[sel])
        Y = np.log(np.maximum(integrand0[sel], 1e-300))
        slope, logc = np.polyfit(X, Y, 1)
        if slope < -1.0:
            tail_est = math.exp(logc) * t_nodes[-1] ** (slope + 1.0) / (-slope - 1.0)
        acc += tail_est
    values = {float(r): float(v) for r, v in zip(r_arr, acc)}
    info = {"tail": tail_est, "slope": slope, "integrand0": integrand0}
    return values, info


def export_radial_csv(path: str, kernel: RadialKernel):
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["r", "value"])
        for r, v in zip(kernel.r_grid, kernel.values):
            writer.writerow([repr(float(r)), repr(float(v))])
