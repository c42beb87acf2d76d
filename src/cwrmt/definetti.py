"""Mixing measures on (-1, 1) of the form e^{-S F(t)/2} / (1 - t^2).

Provides the Curie-Weiss potential F_beta, exact moments, inverse-CDF
sampling, minimum classification, and the matching Laplace-method
asymptotics for moments.  A potential is stated in y = artanh t only, as
G(y) = F(tanh y); a measure is computed in y, where the 1/(1 - t^2) factor
is the Jacobian and the density is e^{-S (G(y) - G(y*))/2} with y* the
minimum of G on [0, inf).
"""

from __future__ import annotations

import math
import threading
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable

import numpy as np

from .errors import (
    ClassificationError,
    DomainError,
    IntegrabilityError,
    NumericError,
)

__all__ = [
    "Potential",
    "DeFinettiMeasure",
    "LaplaceExpansion",
    "PointMass",
    "curie_weiss_potential",
    "magnetization",
    "find_minimum",
    "laplace_moment_asymptotic",
]

_Y_MAX = 18.5  # the minimum is searched on [0, _Y_MAX], where tanh y < 1
_T_MAX = 1.0 - 2.0**-53  # largest double below 1: |t| beyond it rounds to 1
_NU_MAX = 12  # the highest order of a minimum that is classified
_T_SLICE = 2**14  # draws per slice of `sample_t`'s map from u to t
_GUIDE = 2**12  # cells of `sample_t`'s guide over [0, 1), and one for u = 1
# integrand values e^-45 below the peak carry < 1e-16 of the mass; beyond
# the cutoff the integrand must stay that low out to y = _Y_FAR
_LOG_TAIL, _Y_FAR = 45.0, 1e6
_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
# a panel is split while its 16- and 8-node masses differ by more than
# _MASS_TOL of the total or the CDF table errs by more than _TABLE_TOL on it
_MASS_TOL, _TABLE_TOL, _MAX_PANELS = 1e-13, 1e-8, 20_000
_BREAKS_PER_WIDTH = 2  # initial breaks per Laplace width, out to 8 widths


def _cached_once(fn):
    """lru_cache'd `fn` behind a lock: when threads of the pool ask for the
    same fresh key at once, the first builds it and the others wait for it."""
    cached, lock = lru_cache(maxsize=64)(fn), threading.Lock()

    @wraps(fn)
    def call(*args):
        with lock:
            return cached(*args)
    return call


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """An even potential F on (-1, 1), finite inside and diverging at the
    endpoints, stated in y = artanh t with the normalisation F(0) = 0.

    `fn_y(y, y0) = G(y) - G(y0)` with G(y) = F(tanh y), for y, y0 >= 0; it
    must accept numpy arrays y.  Measures read G at |y|, so F is even by
    construction.
    """

    fn_y: Callable[[np.ndarray, float], np.ndarray]
    label: str = ""

    def __post_init__(self):
        probe = 1.0 - 1e-6
        if not math.isfinite(float(self.fn_y(np.asarray(math.atanh(probe)),
                                             0.0))):
            raise DomainError(
                f"potential {self.label!r} not finite at t={probe}")


def _excess(p: Potential, y, y0: float) -> np.ndarray:
    """G(|y|) - G(y0) with G(y) = F(tanh y); +inf where it is not finite."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        v = p.fn_y(np.abs(np.asarray(y, dtype=float)), y0)
    return np.where(np.isfinite(v), v, np.inf)


def _cw_excess(beta: float, u: np.ndarray, y0: float) -> np.ndarray:
    """G(u) - G(y0) for G(y) = y^2/beta - 2 ln cosh y = F_beta(tanh y).
    ln cosh u - ln cosh y0 = log1p(2 sinh((u+y0)/2) sinh((u-y0)/2) / cosh y0),
    or (u - y0) + log1p(expm1(-2(u-y0)) / (1 + e^{2 y0})) where sinh overflows.
    """
    d = u - y0
    with np.errstate(over="ignore", invalid="ignore"):
        ln = np.log1p(2.0 * np.sinh(0.5 * (u + y0)) * np.sinh(0.5 * d)
                      / math.cosh(y0))
        if np.any(u >= 300.0):
            ln = np.where(u < 300.0, ln, d + np.log1p(
                np.expm1(-2.0 * d) / (1.0 + math.exp(2.0 * y0))))
    return d * (u + y0) / beta - 2.0 * ln


@_cached_once
def curie_weiss_potential(beta: float) -> Potential:
    """F_beta(t) = (1/beta) * artanh(t)^2 + ln(1 - t^2), stated as its
    y-form G(y) = y^2/beta - 2 ln cosh y; one object per beta.
    F_beta''(0) = 2(1-beta)/beta and F_beta''''(0) = 16/beta - 12.
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    return Potential(lambda y, y0: _cw_excess(beta, y, y0),
                     label=f"curie_weiss(beta={beta:g})")


# ---------------------------------------------------------------------------
# magnetization and minimum classification
# ---------------------------------------------------------------------------

def _bisect(rises: Callable[[float], bool], lo: float, hi: float,
            tol: float) -> float:
    """Where the predicate `rises` turns from False (at lo) to True (at hi),
    to within tol or the spacing of doubles."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (lo, mid) if rises(mid) else (mid, hi)
    return 0.5 * (lo + hi)


def magnetization(beta: float) -> float:
    """Largest non-negative solution of tanh(beta*t) = t.

    Zero for beta <= 1; for beta > 1 the unique positive fixed point, found by
    bisection with residual below 1e-12.
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta <= 1.0:
        return 0.0
    lo = 1e-8
    if math.tanh(beta * lo) <= lo:  # only for beta extremely close to 1
        lo = 1e-16
    m = _bisect(lambda t: math.tanh(beta * t) <= t, lo, 1.0 - 1e-15, 1e-16)
    if abs(math.tanh(beta * m) - m) >= 1e-12:
        raise NumericError(f"fixed-point residual too large at beta={beta}")
    return m


@dataclass(frozen=True)
class LaplaceExpansion:
    """Local data of the minimum of a potential on [0, 1).

    Near the minimum a, F(t) - F(a) ~ P (t - a)^nu for an even order nu.
    F_at_a is F(a) under the normalisation F(0) = 0.
    """

    a: float
    nu: int
    P: float
    F_at_a: float

    def __post_init__(self):
        if self.nu not in range(2, _NU_MAX + 1, 2):
            raise ClassificationError(
                f"nu must be an even order in [2, {_NU_MAX}], got {self.nu}")
        if not self.P > 0:
            raise ClassificationError(f"P must be positive, got {self.P}")
        if not 0.0 <= self.a < 1.0:
            raise ClassificationError(f"minimum location {self.a} not in [0,1)")


# a Taylor coefficient of G at y* up to this counts as zero: at a = 0 the
# h^2 one is F''(0)/2, so |F''(0)| <= 1e-8 is not quadratic
_FLAT = 5e-9
# steps h of the Taylor fit, and the weights that extrapolate a polynomial in
# h^2 of degree < 6 from them to h = 0 (Richardson): its Lagrange basis at 0
_H2 = (0.05 * 0.5 ** np.arange(6)) ** 2
_TO_ZERO = np.array([np.prod(np.delete(_H2, j) / (np.delete(_H2, j) - x))
                     for j, x in enumerate(_H2)])
_SLOPE_STEP = 1e-7  # half-width of the difference that gives the sign of G'


@_cached_once
def _minimum(p: Potential) -> tuple[float, LaplaceExpansion]:
    """The minimiser y* of G(y) = F(tanh y) on [0, inf) and its expansion:
    nu is the least order whose Taylor coefficient P_y of the even part of
    G(y* + h) - G(y*) is not zero, and P = P_y cosh^(2 nu) y*, as
    dy/dt = cosh^2 y.  Computed once per potential."""
    ys = np.linspace(0.0, _Y_MAX, 4097)
    vals = _excess(p, ys, 0.0)
    i = int(np.argmin(vals))
    if i >= len(ys) - 2 or vals[-1] <= vals[i]:
        raise ClassificationError(
            f"minimum at the boundary t -> 1 for {p.label!r}")
    h = _SLOPE_STEP
    y = _bisect(lambda y: float(_excess(p, y + h, y)
                                - _excess(p, y - h, y)) > 0,
                ys[max(i - 1, 0)], ys[i + 1], 1e-15)
    if y < 1e-6:
        y = 0.0
    # the h^nu coefficient of the even part of G(y + h) - G(y), if the lower
    # ones vanish, is that part over h^nu extrapolated to h = 0
    h = np.sqrt(_H2)
    even = 0.5 * (_excess(p, y + h, y) + _excess(p, y - h, y))
    for nu in range(2, _NU_MAX + 1, 2):
        coef = float(_TO_ZERO @ (even / _H2 ** (nu // 2)))
        if abs(coef) > _FLAT:
            break
    else:
        raise ClassificationError(
            f"minimum of {p.label!r} flat beyond order {_NU_MAX}; "
            "cannot classify")
    if coef < 0:
        raise ClassificationError(
            f"order-{nu} coefficient negative at argmin for {p.label!r}")
    P = coef * math.cosh(y) ** (2 * nu)
    return y, LaplaceExpansion(a=math.tanh(y), nu=nu, P=P,
                               F_at_a=float(_excess(p, y, 0.0)))


def find_minimum(p: Potential) -> LaplaceExpansion:
    """Locate and classify the minimum of the potential on [0, 1)."""
    return _minimum(p)[1]


def laplace_moment_asymptotic(exp: LaplaceExpansion, K: int,
                              scale: float) -> float:
    """Leading Laplace-method asymptotics of the K-th moment of the measure
    e^{-scale*F/2}/(1-t^2) for an even potential with minimum data `exp`.
    """
    if K < 0:
        raise DomainError(f"K must be non-negative, got {K}")
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    if exp.a > 0.0:
        # two symmetric minima at +-a; odd moments cancel
        return 0.5 * (exp.a**K + (-exp.a) ** K)
    if K % 2 == 1:
        return 0.0
    nu = exp.nu
    # Gamma((K+1)/nu) / Gamma(1/nu) * (2 / (P scale))^(K/nu), in logs: the
    # Gamma function alone overflows a double from K = 344 at nu = 2
    log_m = (math.lgamma((K + 1) / nu) - math.lgamma(1 / nu) + K / nu
             * (math.log(2.0) - math.log(exp.P) - math.log(scale)))
    with suppress(OverflowError):  # a moment that rounds to 0 is no check
        if 0.0 < (m := math.exp(log_m)) < math.inf:
            return m
    raise NumericError(
        f"Laplace asymptotic of moment K={K} at scale={scale:g} is "
        f"e^{log_m:.6g}, beyond the double range")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

class PointMass:
    """Degenerate mixing measure concentrated at a single t0 (the iid case
    is t0 = 0).  Implements the same moment interface as DeFinettiMeasure.
    """

    def __init__(self, t0: float = 0.0):
        if not -1.0 < t0 < 1.0:
            raise DomainError(f"t0 must lie in (-1, 1), got {t0}")
        self.t0 = float(t0)

    def moment(self, K: int) -> float:
        if K < 0:
            raise DomainError(f"K must be non-negative, got {K}")
        return self.t0**K

    def sample_t(self, rng, size=None):
        if size is None:
            return self.t0
        return np.full(size, self.t0)


def _nodes(a: np.ndarray, b: np.ndarray, rule):
    """Gauss-Legendre nodes and weights, one row per panel [a_i, b_i]."""
    x, w = rule
    half = 0.5 * (b - a)[:, None]
    return 0.5 * (a + b)[:, None] + half * x, half * w


def _cubic(s, f0, f1, d0, d1):
    """Cubic Hermite on s in [0, 1] through f0, f1 with end slopes d0, d1
    (per unit s), kept within [f0, f1]."""
    df = f1 - f0
    v = f0 + s * (d0 + s * (3.0 * df - 2.0 * d0 - d1
                            + s * (d0 + d1 - 2.0 * df)))
    return np.clip(v, f0, f1)


def _hermite(x, xs, fs, dfdx, guide=None):
    """The cubic Hermite interpolant of the table (xs, fs, dfdx) at x, which
    is clipped to the table; xs may repeat, fs must not decrease.  A `guide`
    (of xs on [0, 1]) spares the search where it knows the interval."""
    x = np.clip(x, xs[0], xs[-1])
    if guide is None:
        i = np.searchsorted(xs, x, side="right") - 1
    else:
        i = guide[(x * _GUIDE).astype(np.intp)]
        miss = i < 0
        i[miss] = np.searchsorted(xs, x[miss], side="right") - 1
    i = np.clip(i, 0, len(xs) - 2)
    h = xs[i + 1] - xs[i]
    return _cubic((x - xs[i]) / h, fs[i], fs[i + 1], h * dfdx[i],
                  h * dfdx[i + 1])


class DeFinettiMeasure:
    """Normalized probability measure e^{-S F(t)/2} / (Z (1-t^2)) on (-1, 1).

    Construction does all the numerics eagerly, on y = artanh t >= 0 (the
    density is even): Gauss-Legendre panels, split where their 16- and 8-node
    masses disagree, give log Z and the moments; the same panel breaks are
    the points of one cubic Hermite table of the CDF of |y|, with the density
    as exact slopes, split until its measured error is at most 1e-8.
    `sample_t`, `cdf` and `mass` all read that table.  Instances are
    immutable afterwards and safe to share across threads.
    """

    def __init__(self, potential: Potential, scale: float):
        if not 0 < scale < math.inf:
            raise DomainError(f"scale must be positive and finite, got "
                              f"{scale} for {potential.label!r}")
        self.potential = potential
        self.scale = float(scale)
        self._where = f"{potential.label!r}, scale={self.scale:g}"
        self._y0, self.minimum = _minimum(potential)
        self._build(self._initial_breaks())
        # the table row of every u in [g, g + 1) / _GUIDE, or -1 if they differ
        edges = np.arange(_GUIDE + 2) / _GUIDE
        lo = np.searchsorted(self._us, edges[:-1], "right")
        hi = np.searchsorted(self._us, edges[1:], "left")
        self._guide = np.where(lo == hi, lo - 1, -1)
        self.log_normalizer = (-0.5 * self.scale * self.minimum.F_at_a
                               + math.log(2.0 * self._mass))
        ts = np.tanh(self._ys)
        i0 = int(self._ys[0] == 0.0)  # y = 0 appears once in the full table
        self.cdf_table = (
            np.concatenate([-ts[::-1], ts[i0:]]),
            np.concatenate([0.5 - 0.5 * self._us[::-1],
                            0.5 + 0.5 * self._us[i0:]]))

    # -- quadrature and table ------------------------------------------------

    def _density(self, y) -> np.ndarray:
        """The integrand in y, e^{-S (G(y) - G(y*))/2}: 1 at the mode."""
        return np.exp(-0.5 * self.scale * _excess(self.potential, y, self._y0))

    def _initial_breaks(self) -> np.ndarray:
        """Breaks at the mode +- j widths and at the tail cutoffs, where the
        integrand has dropped below e^-45 (inside, that may be y = 0)."""
        e, y0 = self.minimum, self._y0
        width = (math.cosh(y0) ** 2
                 * (2.0 / (self.scale * e.P)) ** (1.0 / e.nu))
        steps = width * 2.0 ** np.arange(
            max(math.log2(_Y_FAR / width), 0.0) + 2.0)
        with np.errstate(divide="ignore"):
            low_out = np.log(self._density(y0 + steps)) < -_LOG_TAIL
            inner = y0 - steps[steps < y0]
            low_in = np.log(self._density(inner)) < -_LOG_TAIL
        if not low_out.any():
            raise IntegrabilityError(
                "integrand tail does not decay; density not normalizable "
                f"({self._where})")
        k = int(np.argmax(low_out))
        if not low_out[k:].all():
            raise IntegrabilityError(
                "integrand rebounds beyond the tail cutoff; "
                f"density not normalizable ({self._where})")
        hi = y0 + steps[k]
        lo = inner[np.argmax(low_in)] if low_in.any() else 0.0
        j = np.arange(-8 * _BREAKS_PER_WIDTH, 8 * _BREAKS_PER_WIDTH + 1)
        pts = np.concatenate([y0 + width * j / _BREAKS_PER_WIDTH,
                              y0 + steps, y0 - steps, [lo, hi]])
        return np.unique(np.clip(pts, lo, hi))

    def _build(self, breaks: np.ndarray):
        """Split panels until the quadrature and the table both pass."""
        while True:
            a, b = breaks[:-1], breaks[1:]
            ys16, w16 = _nodes(a, b, _GL16)
            dw = self._density(ys16) * w16
            ys8, w8 = _nodes(a, b, _GL8)
            mass8 = (self._density(ys8) * w8).sum(axis=1)
            cum = np.concatenate([[0.0], np.cumsum(dw.sum(axis=1))])
            total = cum[-1]
            if not (math.isfinite(total) and total > 0.0):
                raise IntegrabilityError(
                    f"normalizing integral not finite ({self._where})")
            loose = np.abs(cum[1:] - cum[:-1] - mass8) > _MASS_TOL * total
            # the table ends at the first break whose CDF rounds to 1
            us = cum / total
            n = int(np.argmax(us >= 1.0)) + 1
            ys, us = breaks[:n], us[:n]
            ps = self._density(ys) / total
            # slopes dy/du; a density that underflowed gets a huge finite one
            dydu = 1.0 / np.maximum(ps, 1e-300)
            err = self._table_error(ys, us, ps, dydu, total)
            split = loose.copy()
            split[:n - 1] |= err > _TABLE_TOL
            if not split.any():
                break
            if len(breaks) + split.sum() > _MAX_PANELS:
                if loose.any():
                    raise IntegrabilityError(
                        "quadrature failed to converge within "
                        f"{_MAX_PANELS} panels ({self._where})")
                raise NumericError(
                    f"inverse-CDF table error {err.max():.3g} exceeds "
                    f"{_TABLE_TOL:g} within {_MAX_PANELS} panels "
                    f"({self._where})")
            breaks = np.sort(np.concatenate([breaks, 0.5 * (a + b)[split]]))
        self.table_error = float(err.max(initial=0.0))
        self._mass = total
        self._w, self._t = dw.ravel(), np.tanh(ys16).ravel()
        self._ys, self._us, self._ps, self._dydu = ys, us, ps, dydu

    def _table_error(self, ys, us, ps, dydu, total) -> np.ndarray:
        """Per table interval: the inverse interpolant's CDF error at the
        middle u plus the forward interpolant's error at the middle y, each
        against a 16-node Gauss integral from the interval's left end."""
        a, b, u0, u1 = ys[:-1], ys[1:], us[:-1], us[1:]
        hu, hy = u1 - u0, b - a
        y_inv = _cubic(0.5, a, b, hu * dydu[:-1], hu * dydu[1:])
        u_fwd = _cubic(0.5, u0, u1, hy * ps[:-1], hy * ps[1:])
        ymid = 0.5 * (a + b)

        def cdf_at(y):
            x, w = _nodes(a, y, _GL16)
            return u0 + (self._density(x) * w).sum(axis=1) / total
        return (np.abs(cdf_at(y_inv) - 0.5 * (u0 + u1))
                + np.abs(u_fwd - cdf_at(ymid)))

    # -- public surface -------------------------------------------------------

    def moment(self, K: int) -> float:
        """Exact K-th moment of the mixing measure by quadrature.  Odd moments
        vanish by symmetry of the even potential, no quadrature involved."""
        if K < 0:
            raise DomainError(f"K must be non-negative, got {K}")
        if K == 0:
            return 1.0
        if K % 2 == 1:
            return 0.0
        return float(np.dot(self._w, self._t**K) / self._mass)

    def mass(self, lo: float, hi: float) -> float:
        """mu([lo, hi]) from the CDF table."""
        return float(self.cdf(hi) - self.cdf(lo))

    def cdf(self, t) -> np.ndarray | float:
        arr = np.asarray(t, dtype=float)
        y = np.arctanh(np.minimum(np.abs(arr), _T_MAX))
        h = _hermite(y, self._ys, self._us, self._ps)
        out = 0.5 + np.copysign(0.5 * h, arr)
        return float(out) if np.isscalar(t) else out

    def sample_t(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draw(s) of the latent mean t: the sign of 2u - 1 and
        |y| from the table at |2u - 1|; |t| is kept inside (-1, 1).  The u
        are drawn in one call and mapped _T_SLICE at a time (the map is
        elementwise), so the temporaries stay small."""
        u = np.asarray(rng.random() if size is None else rng.random(size))
        t = np.empty(u.shape)
        for i in range(0, u.size, _T_SLICE):
            v = 2.0 * u.reshape(-1)[i:i + _T_SLICE] - 1.0
            y = _hermite(np.abs(v), self._us, self._ys, self._dydu,
                         self._guide)
            t.reshape(-1)[i:i + _T_SLICE] = np.copysign(
                np.minimum(np.tanh(y), _T_MAX), v)
        return float(t) if size is None else t
