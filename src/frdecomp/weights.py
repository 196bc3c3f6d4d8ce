"""Scalar weight families for the white-noise decompositions.

This module owns everything that happens before operators enter the picture:
the smooth bump profile and its transform tables, the quadrature constants,
the partial-fraction coefficients, the polynomial weights v_t with their
Chebyshev representation, the small-scale repair below t = 1, and the
half-line certificates that split each weight into squares.

Conventions.  The 1-d Fourier transform is f_hat(xi) = (1/2pi) * int f(x)
exp(-i xi x) dx, so products map to plain convolutions of transforms.  The
profile is phi = kappa^2 with kappa_hat a normalized C_c^infinity bump of
half-width h; the transform of phi^2 is then the fourfold self-convolution
of kappa_hat, with support [-4h, 4h].  The discrete construction needs that
support inside (-1, 1), hence h = 1/4 there; the continuum one only needs
supp(phi_hat) inside [-1, 1] and uses h = 1/2.  Both transforms have one
source, an FFT of the closed-form kappa_hat (_kappa_hat_transforms): it
gives the transform of phi^2 at the frequencies k/t that the weight v_t
reads and, for scales t >= HALF_SHIFT_T, phi_hat = kappa_hat * kappa_hat at
the half steps k/(2t) that their certificates read.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .sos import (
    NotNonnegativeError,
    check_residual,
    cheb_from_third_kind,
    halfline_certificate_cheb,
    on_active_interval,
    prepare_halfline,
)

SHARPNESS = 0.2       # default edge sharpness of the bump profile
AJ_RIDGE = 1e-11      # relative lift applied before the root route
HALF_SHIFT_T = 2 ** 6.5   # scales from here on take the half-shift form


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     rel_tol: float = 1e-10, max_depth: int = 48) -> float:
    """Classic recursive Simpson with Richardson acceptance test."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = abs(whole) + 1e-300

    def recurse(a, fa, b, fb, fm, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * lm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * rm + fb)
        if depth <= 0:
            raise QuadratureError("adaptive Simpson exceeded maximum depth")
        if abs(left + right - whole) <= 15.0 * rel_tol * max(scale, abs(left + right)):
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, fa, m, fm, lm, left, depth - 1)
                + recurse(m, fm, b, fb, rm, right, depth - 1))

    return recurse(a, fa, b, fb, fm, whole, max_depth)


def _composite_simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson over a uniform table (trapezoid patch on odd tails)."""
    n = len(y)
    if n < 3:
        return float(np.trapezoid(y, dx=dx))
    m = n if n % 2 == 1 else n - 1
    core = (y[0] + y[m - 1] + 4.0 * np.sum(y[1:m - 1:2]) + 2.0 * np.sum(y[2:m - 2:2]))
    total = core * dx / 3.0
    if m != n:
        total += 0.5 * dx * (y[-2] + y[-1])
    return float(total)


def _cubic_interp(xq, dx: float, table: np.ndarray):
    """4-point Lagrange interpolation on a uniform grid starting at 0; 0 beyond."""
    xq = np.abs(np.asarray(xq, dtype=float))
    n = len(table)
    pos = xq / dx
    i1 = np.clip(np.floor(pos).astype(int), 1, n - 3)
    u = pos - i1
    y0, y1, y2, y3 = table[i1 - 1], table[i1], table[i1 + 1], table[i1 + 2]
    val = (
        y0 * (-u * (u - 1.0) * (u - 2.0) / 6.0)
        + y1 * ((u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0)
        + y2 * (-(u + 1.0) * u * (u - 2.0) / 2.0)
        + y3 * ((u + 1.0) * u * (u - 1.0) / 6.0)
    )
    out = np.where(pos >= n - 1, 0.0, val)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# bump profile
# ---------------------------------------------------------------------------

def _kappa_hat(xi, h: float, sharpness: float) -> np.ndarray:
    """The bump exp(sharpness * (1 - 1/(1 - (xi/h)^2))) on (-h, h), 0 outside."""
    uu = xi / h
    kap = np.zeros_like(uu)
    pos = np.abs(uu) < 1.0
    kap[pos] = np.exp(sharpness * (1.0 - 1.0 / (1.0 - uu[pos] ** 2)))
    return kap


@dataclass(frozen=True)
class BumpProfile:
    """Tabulated bump data: kappa_hat, phi = kappa^2 and the quadrature
    constants they induce (the transforms are _kappa_hat_transforms).

    kappa_hat(xi) = exp(sharpness * (1 - 1/(1 - (xi/h)^2))) on (-h, h): a
    normalized C_c^infinity bump whose sharpness parameter controls how much
    of the support carries real mass.  Small values spread the transform of
    phi^2 across its full support, which is what pushes the kernels into
    their decay asymptotics at accessible scales; the default is tuned for
    that purpose and the construction is valid for any positive value.
    """

    h: float
    sharpness: float
    grid_step: float                 # step of the s-grid carrying phi
    s_max: float
    phi: np.ndarray                  # phi(s) on 0, step, ..., s_max
    kappa_hat: np.ndarray            # kappa_hat on [0, h], uniform
    cprime: tuple                    # c'_0 .. c'_3; c'_0 is c0 for gamma = 1
    psi_tails: np.ndarray            # Psi_q(s) = int_s^inf y^(2q-1) phi^2, q = 1..4

    def phi_at(self, s):
        return _cubic_interp(s, self.grid_step, self.phi)

    def phi_sq_at(self, s):
        v = self.phi_at(s)
        return v * v

    def psi_at(self, q: int, s):
        """Upper tail integral of y^(2q-1) phi(y)^2 from s to infinity."""
        return _cubic_interp(s, self.grid_step, self.psi_tails[q - 1])

    @cached_property
    def phi_sq_hat0(self) -> float:
        """Transform of phi^2 at 0, which every weight below t = 1 reads:
        the k = 0 value of the t = 1 transform, the one v_1 reads."""
        return float(_kappa_hat_transforms(1.0, self, False)[0][0])

    def __post_init__(self):
        # the tables are read-only, so the content key is hashed once
        hsh = hashlib.sha256()
        self.psi_tails.flags.writeable = False
        for arr in (self.phi, self.kappa_hat):
            arr.flags.writeable = False
            hsh.update(arr.tobytes())
        hsh.update(f"{self.h}:{self.sharpness}:{self.grid_step}:{self.s_max}".encode())
        object.__setattr__(self, "_content_key", hsh.hexdigest()[:16])

    def content_key(self) -> str:
        return self._content_key


def build_bump_profile(h: float, n_grid: int = 4096,
                       sharpness: float = SHARPNESS) -> BumpProfile:
    """Construct the profile tables for a bump of half-width h.

    Parameters
    ----------
    h : float
        Support half-width of kappa_hat.  Use 1/4 for the lattice models and
        1/2 for the continuum ones.
    n_grid : int
        Intervals across [-h, h] for kappa_hat: even (a node at xi = 0), >= 4096.
    sharpness : float
        Exponential sharpness of the bump edges; see BumpProfile.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if n_grid < 4096 or n_grid % 2:
        raise ValueError("n_grid must be even and at least 4096")
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    xi = np.linspace(-h, h, n_grid + 1)
    kappa_hat = _kappa_hat(xi, h, sharpness)[n_grid // 2:]

    # phi = kappa^2, kappa(s_j) = sum_k w_k kappa_hat(xi_k) cos(s_j xi_k) dxi
    # over xi_k = k dxi >= 0 with w_k = 2 off xi = 0, as kappa_hat is even.
    # With c = step * dxi and jk = (j^2 + k^2 - (j - k)^2) / 2 this sum is a
    # chirp-z transform: one linear convolution with the chirp e^(i c n^2/2),
    # by FFT at the smallest 2^a 3^b length >= span (Bluestein).  It runs in
    # long double: in float64, with chirp phases up to 625 rad, its error triples.
    step = 0.01 / h
    s_max = 160.0 / h
    s = np.arange(0.0, s_max + 0.5 * step, step)
    n_s, n_xi = len(s), len(kappa_hat)
    dxi = np.longdouble(2.0 * h) / n_grid
    n = np.arange(1 - n_xi, n_s, dtype=np.longdouble)
    chirp = np.exp(0.5j * (np.longdouble(step) * dxi) * n * n)
    down = chirp[n_xi - 1:].conj()          # e^(-i c j^2/2) for j >= 0
    span = n_s + n_xi - 1                   # size >= span: the convolution does not wrap
    size = min(3 ** b << (-(-span // 3 ** b) - 1).bit_length() for b in range(12))
    wkap = np.where(np.arange(n_xi) == 0, 1.0, 2.0) * kappa_hat * down[:n_xi]
    conv = np.fft.ifft(np.fft.fft(wkap, size) * np.fft.fft(chirp, size))
    phi = ((down * conv[n_xi - 1:span]).real * dxi).astype(np.float64) ** 2

    phisq = phi ** 2
    cprime = tuple(
        1.0 / _composite_simpson(s ** (2 * k + 1) * phisq, step) for k in range(4)
    )
    psi = np.empty((4, len(s)))
    for q in range(1, 5):
        integrand = s ** (2 * q - 1) * phisq
        # right-to-left cumulative trapezoid gives the upper tail
        rev = np.concatenate([[0.0], np.cumsum((integrand[:-1] + integrand[1:]))[::1]])
        tail = (rev[-1] - rev) * 0.5 * step
        psi[q - 1] = tail

    return BumpProfile(
        h=h,
        sharpness=sharpness,
        grid_step=step,
        s_max=s_max,
        phi=phi,
        kappa_hat=kappa_hat,
        cprime=cprime,
        psi_tails=psi,
    )


def c0_constant(profile: BumpProfile, gamma: float) -> float:
    """Homogeneity constant: 1/lambda = c0 * int t^((2-gamma)/gamma) phi(lambda^(gamma/2) t)^2 dt.

    Substituting s = lambda^(gamma/2) t reduces the right side to
    lambda^(-1) * int s^((2-gamma)/gamma) phi(s)^2 ds, so c0 is the reciprocal
    of that profile moment.
    """
    expo = (2.0 - gamma) / gamma
    s = np.arange(len(profile.phi)) * profile.grid_step
    moment = _composite_simpson(s ** expo * profile.phi ** 2, profile.grid_step)
    if moment <= 0:
        raise QuadratureError("profile moment did not converge")
    return 1.0 / moment


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------

def partial_fraction_coeffs(p: int) -> list:
    """Coefficients a_0..a_(p-1) in the expansion of (1 - cos x)^(-p) over
    the lattice 2*pi*Z: the principal part at 0 is sum_j a_j x^(-(2p-2j)).

    Matching Laurent coefficients: 1 - cos x = (x^2/2) g(x^2) with
    g(u) = sum_m (-1)^m 2 u^m / (2m+2)!, so a_j = 2^p * [u^j] g(u)^(-p).
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    terms = p + 2
    g = np.array([(-1.0) ** m * 2.0 / math.factorial(2 * m + 2) for m in range(terms)])
    inv = np.zeros(terms)
    inv[0] = 1.0 / g[0]
    for m in range(1, terms):
        inv[m] = -np.dot(g[1:m + 1], inv[m - 1::-1]) / g[0]
    out = (2.0 ** p) * np.polynomial.polynomial.polypow(inv, p)[:p]
    if np.any(out < 0):
        raise ArithmeticError("partial-fraction coefficients must be nonnegative")
    return [float(v) for v in out]


# ---------------------------------------------------------------------------
# weight parameters and families
# ---------------------------------------------------------------------------

class ModelRow(NamedTuple):
    """One model: its exponent gamma, B(d), minimum dimension, lattice or not."""

    gamma: float
    B: Callable[[int], float]   # spectral bound of the operator in dimension d
    min_d: int
    lattice: bool


MODELS = {
    "gff": ModelRow(1.0, lambda d: 4.0 * d, 3, True),
    "membrane": ModelRow(0.5, lambda d: 16.0 * d * d, 5, True),
    "continuum-gff": ModelRow(1.0, lambda d: math.inf, 3, False),
    "continuum-membrane": ModelRow(0.5, lambda d: math.inf, 5, False),
}


@dataclass(frozen=True)
class WeightParams:
    """Model parameters: gamma with 1/gamma integral, spectral bound B,
    partial-fraction coefficients, and the model tag."""

    gamma: float
    B: float
    pf_coeffs: tuple
    model: str

    def __post_init__(self):
        p = 1.0 / self.gamma
        if abs(p - round(p)) > 1e-12:
            raise ValueError("1/gamma must be a positive integer")
        if any(a < 0 for a in self.pf_coeffs):
            raise ValueError("partial-fraction coefficients must be nonnegative")

    @property
    def p(self) -> int:
        return int(round(1.0 / self.gamma))

    @property
    def two_b_gamma(self) -> float:
        """(2B)^gamma, the right end of the certified interval in mu."""
        return (2.0 * self.B) ** self.gamma

    @classmethod
    def for_model(cls, model: str, d: int) -> "WeightParams":
        row = MODELS.get(model)
        if row is None:
            raise ValueError(f"unknown model {model!r}")
        if d < row.min_d:
            raise ValueError(f"{model} requires d >= {row.min_d}")
        pf = tuple(partial_fraction_coeffs(round(1.0 / row.gamma))) if row.lattice else ()
        return cls(gamma=row.gamma, B=row.B(d), pf_coeffs=pf, model=model)


def iota(gamma: float, t):
    """Small-scale repair profile: 2(1-t) t^((2*gamma-2)/gamma).

    Satisfies int_0^1 t^((2-2*gamma)/gamma) iota(t) dt = 1 and iota(1) = 0 for
    every admissible gamma.
    """
    t = np.asarray(t, dtype=float)
    return 2.0 * (1.0 - t) * t ** ((2.0 * gamma - 2.0) / gamma)


def _theta(lam, params: WeightParams):
    ratio = (np.asarray(lam, dtype=float) / (2.0 * params.B)) ** params.gamma
    return np.arccos(1.0 - np.clip(ratio, 0.0, 2.0))


def wbar_value(t: float, lam, params: WeightParams, profile: BumpProfile):
    """Periodized evaluation of the raw weight \\bar w_t at spectral points lam.

    For t <= 1 only the constant Fourier mode survives, giving the closed
    lambda-independent form.  It divides by t once, last, so that for p = 1
    wbar_t = wbar_1 / t bit for bit.
    """
    p = params.p
    pref = 1.0 / (2.0 * params.B)
    if t <= 1.0:
        val = pref * sum(
            profile.cprime[p - j - 1] * params.pf_coeffs[j] * t ** (-2 * j)
            for j in range(p)
        ) * profile.phi_sq_hat0 / t
        lam = np.asarray(lam, dtype=float)
        out = np.full(lam.shape, val)
        return out if out.shape else float(val)
    th = _theta(lam, params)
    nmax = int(np.ceil((profile.s_max / t + np.pi) / (2.0 * np.pi))) + 1
    ns = 2.0 * np.pi * np.arange(-nmax, nmax + 1)
    args = (np.expand_dims(th, -1) - ns) * t
    per = profile.phi_sq_at(args).sum(axis=-1)
    total = 0.0
    for j in range(p):
        total = total + profile.cprime[p - j - 1] * params.pf_coeffs[j] * t ** (-2 * j) * per
    out = pref * total
    return out if np.ndim(out) else float(out)


def gamma_constant(params: WeightParams, profile: BumpProfile) -> float:
    """Gamma >= 0 compensating the small-t defect: int_0^1 t^((2-gamma)/gamma)
    (wbar_t - wbar_1/t) dt, lambda-independent since wbar is constant below 1.

    Below t = 1, wbar_t = (phi_sq_hat(0)/2B) sum_j c'_{p-j-1} a_j t^-(2j+1)
    and the exponent is 2p - 1, so the integral is termwise elementary:
    (phi_sq_hat(0)/2B) sum_j c'_{p-j-1} a_j (1/(2p-1-2j) - 1/(2p-1)).  The
    j = 0 term vanishes, so Gamma = 0 for p = 1.
    """
    p = params.p
    return profile.phi_sq_hat0 / (2.0 * params.B) * sum(
        profile.cprime[p - j - 1] * params.pf_coeffs[j]
        * (1.0 / (2 * p - 1 - 2 * j) - 1.0 / (2 * p - 1))
        for j in range(1, p))


@dataclass(frozen=True)
class WeightFamily:
    """A ready-to-use weight family: parameters, profile, small-t repair."""

    params: WeightParams
    profile: BumpProfile
    gamma_const: float          # Gamma of the small-t modification
    wbar1: float                # the constant wbar_1

    @property
    def iota(self) -> Callable:
        g = self.params.gamma
        return lambda t: iota(g, t)

    @property
    def small_t_constant(self) -> Callable:
        return lambda t: small_t_weight(t, self.params, self.profile,
                                        gamma_const=self.gamma_const)

    def w(self, t: float, lam):
        """The final weight w_t(lambda): repaired below t = 1, wbar above."""
        if t < 1.0:
            val = self.small_t_constant(t)
            lam = np.asarray(lam, dtype=float)
            out = np.full(lam.shape, val)
            return out if out.shape else float(val)
        return wbar_value(t, lam, self.params, self.profile)

    def small_t_mass(self) -> float:
        """int_0^1 t^((2-gamma)/gamma) w_t dt in closed form."""
        return self.wbar1 / (2.0 * self.params.p - 1.0) + self.gamma_const

    def content_key(self) -> str:
        hsh = hashlib.sha256()
        hsh.update(self.profile.content_key().encode())
        hsh.update(repr((self.params.gamma, self.params.B, self.params.model,
                         self.params.pf_coeffs, self.gamma_const)).encode())
        return hsh.hexdigest()[:16]


def build_weight_family(params: WeightParams, profile: BumpProfile) -> WeightFamily:
    if MODELS[params.model].lattice:
        wbar1 = wbar_value(1.0, 0.0, params, profile)
        gc = gamma_constant(params, profile)
    else:
        wbar1 = 0.0
        gc = 0.0
    return WeightFamily(params=params, profile=profile, gamma_const=gc, wbar1=wbar1)


def small_t_weight(t: float, params: WeightParams, profile: BumpProfile,
                   gamma_const: float = None) -> float:
    """w_t for 0 < t < 1: (wbar_1 + Gamma * iota(t)) / t, independent of lambda."""
    if not 0.0 < t < 1.0:
        raise ValueError("small_t_weight requires 0 < t < 1")
    if gamma_const is None:
        gamma_const = gamma_constant(params, profile)
    wbar1 = wbar_value(1.0, 0.0, params, profile)
    return (wbar1 + gamma_const * float(iota(params.gamma, t))) / t


# ---------------------------------------------------------------------------
# the polynomial weights v_t and their certificates
# ---------------------------------------------------------------------------

def _kappa_hat_transforms(t: float, profile: BumpProfile, half_steps: bool):
    """phi_sq_hat at xi = k/t, 0 <= xi <= max(1, 4h), and if half_steps
    phi_hat at xi = k/(2t), 0 <= xi < 2h (else None).

    kappa_hat is sampled in closed form on the step 1/(qtM), q = 2 if
    half_steps and 1 otherwise, with M the smallest integer that makes it no
    coarser than the profile's own step.  One real FFT gives every trapezoid
    sum of the self-convolutions on that step: its square is phi_hat and its
    fourth power phi_sq_hat.  The integrands are flat at both ends of their
    support, so the rule converges spectrally.  Past a convolution's last
    sample (near 4h, resp. 2h) its values are exact zeros, not FFT noise.
    """
    h = profile.h
    q = 2 if half_steps else 1
    m = math.ceil((len(profile.kappa_hat) - 1) / (q * t * h))
    step = 1.0 / (q * t * m)
    n = math.ceil(h / step) - 1   # kappa_hat vanishes from |xi| = h on
    kap = _kappa_hat(np.arange(-n, n + 1) * step, h, profile.sharpness)
    size = 1 << (8 * n).bit_length()   # at least 8n + 1: the fourfold convolution does not wrap
    sq = np.fft.rfft(kap, size) ** 2

    def samples(spectrum, folds, stride, count):
        # the folds-fold convolution from its centre on, every stride-th step
        conv = np.fft.irfft(spectrum, size)[folds * n:2 * folds * n + 1:stride]
        out = np.zeros(count)
        out[:len(conv)] = conv[:count] * step ** (folds - 1)
        return out

    phi_sq_hat = samples(sq * sq, 4, q * m, math.floor(max(1.0, 4.0 * h) * t) + 1)
    phi_hat = samples(sq, 2, m, math.ceil(4.0 * h * t)) if half_steps else None
    return phi_sq_hat, phi_hat


def _vt_coef(t: float, params: WeightParams, profile: BumpProfile) -> float:
    """coef with v_t(cos x) = coef * sum_k phi_sq_hat(k/t) e^(ikx), k in Z."""
    p = params.p
    return sum(
        profile.cprime[p - j - 1] * params.pf_coeffs[j] * t ** (-(2 * j + 1))
        for j in range(p)
    ) / (2.0 * params.B)


def vt_cheb_coeffs(t: float, params: WeightParams, profile: BumpProfile) -> np.ndarray:
    """Folded Chebyshev coefficients of v_t in the variable 1 - mu/(2B)^gamma.

    beta[k] collects the +k and -k Fourier modes, phi_sq_hat(k/t) for
    k <= floor(t) from _kappa_hat_transforms; all entries are nonnegative,
    so sum(beta) = v_t at mu = 0 is also the maximum over the interval.
    """
    kmax = int(math.floor(t))
    al = np.maximum(_kappa_hat_transforms(t, profile, False)[0][:kmax + 1], 0.0)
    beta = np.concatenate([[al[0]], 2.0 * al[1:]]) * _vt_coef(t, params, profile)
    return beta


def _half_shift_pieces(t: float, params: WeightParams, profile: BumpProfile):
    """The half-shift Polya-Szego form of v_t, in the shifted basis.

    Since phi_sq_hat = phi_hat * phi_hat, cutting the convolution into cells
    of width 1/t gives v_t = (coef/t) int_0^1 |A_s(x)|^2 ds with A_s(x) =
    sum_m phi_hat((m + s)/t) e^(imx) and w = cos x.  The 2-point rule
    s in {0, 1/2} leaves

        v_t ~ (coef/2t) (A_0(w)^2 + 2 (1 + w) V(w)^2),

    A_0 = phi_hat(0) + 2 sum_m phi_hat(m/t) T_m(w) and V = sum_m
    phi_hat((m + 1/2)/t) V_m(w) with third-kind V_m, that is a1 =
    sqrt(coef/2t) A_0, a2 = a3 = sqrt(coef/t) V and a4 = 0 in y = w.  The
    rule's error falls fast in t; check_residual measures it.
    """
    ph = _kappa_hat_transforms(t, profile, True)[1]
    coef = _vt_coef(t, params, profile)
    a0 = ph[0::2] * 2.0
    a0[0] = ph[0]
    a1 = on_active_interval(math.sqrt(coef / (2.0 * t)) * a0)
    a2 = on_active_interval(math.sqrt(coef / t) * cheb_from_third_kind(ph[1::2]))
    return a1, a2, a2, np.zeros(1)


@dataclass(frozen=True)
class KernelCertificate:
    """Sum-of-squares certificate of a weight w_t, in Chebyshev form.

    The four arrays are coefficients in T_k(1 - 2 mu/(2B)^gamma) (Chebyshev
    on the certified interval), with the x-slot scale folded in, so that for
    mu in [0, (2B)^gamma]

        w_t(lambda) = b1(mu)^2 + b2(mu)^2
                      + ((2B)^gamma - mu) (b3(mu)^2 + b4(mu)^2),

    mu = lambda^gamma.  route names how the squares were built (see
    aj_family): "roots" from the spectral factor (see frdecomp.sos),
    "half-shift" from the transform of phi, or "constant" below t = 1.
    Either way deg b1, b2 <= floor(t) and deg b3, b4 <= floor(t) - 1 with
    room to spare.  This form stays well conditioned at the degrees large
    scales need.
    """

    t: float
    c: float
    gamma: float
    cheb: tuple  # four arrays
    route: str

    @property
    def degrees(self) -> tuple:
        return tuple(len(a) - 1 for a in self.cheb)

    def eval_mu(self, mu):
        u = 1.0 - 2.0 * np.asarray(mu, dtype=float) / self.c
        return [np.polynomial.chebyshev.chebval(u, a) for a in self.cheb]

    def w_reconstruct(self, lam):
        """The certified weight at spectral points lam."""
        mu = np.asarray(lam, dtype=float) ** self.gamma
        b1, b2, b3, b4 = self.eval_mu(mu)
        return b1 ** 2 + b2 ** 2 + (self.c - mu) * (b3 ** 2 + b4 ** 2)


def aj_family(t: float, params: WeightParams, profile: BumpProfile,
              gamma_const: float = None) -> KernelCertificate:
    """Certificate for w_t in the variable mu = lambda^gamma:

        w_t(lambda) = b1(mu)^2 + b2(mu)^2 + ((2B)^gamma - mu)(b3(mu)^2 + b4(mu)^2).

    For t < 1 the weight is the constant small_t_weight(t), certified by
    b1 = sqrt(w_t).  For t >= 1, s(y) = v_t((2B)^gamma (1 - y)), whose
    coefficients are the transform of phi^2 at the frequencies k/t
    (vt_cheb_coeffs), is certified by one of two routes:

    * below HALF_SHIFT_T, the root route: s is lifted by AJ_RIDGE * max(v_t),
      which keeps noise-level minima strictly positive and sits far below
      the certified residual tolerance, and the certificate is read off the
      spectral factor h of s(z^2) = |h(z)|^2, built from the roots of s;
    * from HALF_SHIFT_T on, the half-shift form (_half_shift_pieces), built
      from phi_hat = kappa_hat * kappa_hat with no roots, refinement or lift,
      read from a second _kappa_hat_transforms call on the half steps.

    Both routes share the engine's grid check and residual gate (see
    frdecomp.sos).  Raises NotNonnegativeError, naming t, if the grid check
    finds v_t below zero (a profile whose transform support is too wide for
    the degree truncation), and CertificateError if the certificate misses
    sos.RESIDUAL_TOL against s.
    """
    c = params.two_b_gamma
    zero = np.zeros(1)
    if t < 1.0:
        w = small_t_weight(t, params, profile, gamma_const=gamma_const)
        return KernelCertificate(
            t=t, c=c, gamma=params.gamma,
            cheb=(np.array([math.sqrt(w)]), zero, zero, zero), route="constant",
        )
    beta = vt_cheb_coeffs(t, params, profile)
    vmax = float(np.sum(beta))
    # s(x) = v_t((2B)^gamma - x): in y = x/(2B)^gamma the Chebyshev
    # coefficients of s are exactly those of v_t in w = 1 - mu/(2B)^gamma
    try:
        if t >= HALF_SHIFT_T:
            route = "half-shift"
            s = prepare_halfline(beta, vmax)[0]
            p1, q1, p2, q2 = check_residual(s, _half_shift_pieces(t, params, profile))
        else:
            route = "roots"
            lifted = np.array(beta)
            lifted[0] += AJ_RIDGE * vmax
            p1, q1, p2, q2 = halfline_certificate_cheb(lifted, vmax)
    except NotNonnegativeError as exc:
        raise NotNonnegativeError(
            f"v_t is not nonnegative at t = {t:g}: {exc}; the profile's "
            "transform support is too wide for degree floor(t)") from exc
    nfloor = int(math.floor(t))
    scale3 = 1.0 / math.sqrt(c)  # the x-slot carries x = (2B)^gamma * y
    cert = KernelCertificate(
        t=t, c=c, gamma=params.gamma,
        cheb=(p1, q1, p2 * scale3, q2 * scale3), route=route,
    )
    d1, d2, d3, d4 = cert.degrees
    if max(d1, d2) > nfloor or max(d3, d4) > max(nfloor - 1, 0):
        raise AssertionError(
            f"certificate degrees {cert.degrees} exceed bounds at t = {t:g}"
        )
    return cert


def wtilde(lam: float, t: float, gamma: float, profile: BumpProfile):
    """Continuum weight sqrt(c0) * phi(lambda^(gamma/2) t); needs the h = 1/2 profile."""
    if abs(profile.h - 0.5) > 1e-12:
        raise ValueError("the continuum weight requires the h = 1/2 profile")
    c0 = c0_constant(profile, gamma)
    lam = np.asarray(lam, dtype=float)
    return math.sqrt(c0) * profile.phi_at(lam ** (gamma / 2.0) * t)


# ---------------------------------------------------------------------------
# partition-of-unity integrals
# ---------------------------------------------------------------------------

_TAIL_BLOCK = 8192  # lam values per block of tail_weight_integral


def tail_weight_integral(lam, T: float, params: WeightParams,
                         profile: BumpProfile):
    """Exact upper tail int_T^inf t^((2-gamma)/gamma) wbar_t(lam) dt via the
    tabulated moments Psi_q of phi^2.  Vectorized over lam, in blocks of
    _TAIL_BLOCK values, so the periodisation's (block, 2 nmax + 1) arrays stay
    bounded however many lam are asked for."""
    p = params.p
    lam = np.asarray(lam, dtype=float)
    nmax = int(np.ceil((profile.s_max / max(T, 1.0) + np.pi) / (2.0 * np.pi))) + 1
    ns = 2.0 * np.pi * np.arange(-nmax, nmax + 1)
    th = _theta(lam, params).reshape(-1)
    out = np.empty(th.shape)
    for start in range(0, th.size, _TAIL_BLOCK):
        args = np.abs(th[start:start + _TAIL_BLOCK, None] - ns)
        args = np.where(args < 1e-300, 1e-300, args)
        total = 0.0
        for j in range(p):
            q = p - j
            total = total + (
                profile.cprime[q - 1] * params.pf_coeffs[j]
                * np.sum(profile.psi_at(q, args * T) / args ** (2 * q), axis=-1)
            )
        out[start:start + _TAIL_BLOCK] = total / (2.0 * params.B)
    return out.reshape(lam.shape) if lam.ndim else float(out[0])


def partition_integral(lam: float, family: WeightFamily, T: float = 64.0,
                       rel_tol: float = 1e-8) -> float:
    """lambda * int_0^inf t^((2-gamma)/gamma) w_t(lambda) dt, assembled as the
    closed small-t mass, adaptive quadrature on [1, T], and the exact tail."""
    params, profile = family.params, family.profile
    expo = (2.0 - params.gamma) / params.gamma

    def f(u):  # log substitution keeps the grid resolution scale-free
        t = math.exp(u)
        return t ** (expo + 1.0) * wbar_value(t, lam, params, profile)

    quad = adaptive_simpson(f, 0.0, math.log(T), rel_tol=rel_tol)
    total = family.small_t_mass() + quad + tail_weight_integral(lam, T, params, profile)
    return lam * total


def continuum_partition_integral(lam: float, gamma: float, profile: BumpProfile,
                                 rel_tol: float = 1e-9) -> float:
    """lambda * int_0^inf t^((2-gamma)/gamma) wtilde_t(lambda)^2 dt."""
    c0 = c0_constant(profile, gamma)
    expo = (2.0 - gamma) / gamma
    root = lam ** (gamma / 2.0)
    upper = profile.s_max / root

    def f(t):
        v = profile.phi_at(root * t)
        return t ** expo * v * v

    # split at the phi peak scale to help the adaptive rule
    mid = min(1.0 / root, upper)
    val = adaptive_simpson(f, 0.0, mid, rel_tol=rel_tol)
    if upper > mid:
        val += adaptive_simpson(f, mid, upper, rel_tol=rel_tol)
    return lam * c0 * val
