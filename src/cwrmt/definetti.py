"""Mixing measures on (-1, 1) of the form e^{-S F(t)/2} / (1 - t^2).

Provides the Curie-Weiss potential F_beta with analytic derivatives, log-domain
quadrature (in the substituted variable y = artanh t, which absorbs the
1/(1-t^2) endpoint factor), exact moments, inverse-CDF sampling, minimum
classification, and the matching Laplace-method asymptotics for moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gamma as gamma_fn
from scipy.special import logsumexp

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
    "log_density_unnormalized",
    "magnetization",
    "find_minimum",
    "laplace_moment_asymptotic",
]

# Quadrature tail cutoff: integrand values more than e^-45 below the peak
# contribute < 1e-16 of the total mass.
_LOG_TAIL = 45.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_LOGZ_TOL = 1e-11


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """An even potential F on (-1, 1), finite inside and diverging at the
    endpoints.

    `fn` should accept numpy arrays.  Derivative callables are optional;
    missing ones are replaced by central finite differences with step `fd_step`.
    Only even potentials are supported: `even=False` raises DomainError.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[float], float] | None = None
    d2: Callable[[float], float] | None = None
    d4: Callable[[float], float] | None = None
    even: bool = True
    label: str = ""
    fd_step: float = 1e-4

    def __post_init__(self):
        for probe in (1.0 - 1e-6, -(1.0 - 1e-6)):
            v = float(self.fn(np.asarray(probe)))
            if not math.isfinite(v):
                raise DomainError(
                    f"potential {self.label!r} not finite at t={probe}")
        if not self.even:
            raise DomainError(f"potential {self.label!r} is not even; "
                              "only even potentials are supported")
        ts = np.array([0.1, 0.35, 0.7, 0.95, 1.0 - 1e-6])
        if np.max(np.abs(self(ts) - self(-ts))) > 1e-12:
            raise DomainError(
                f"potential {self.label!r} flagged even but is not")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        try:
            return np.asarray(self.fn(t), dtype=float)
        except (TypeError, ValueError):
            return np.vectorize(self.fn, otypes=[float])(t)

    def first_derivative(self, t: float) -> float:
        if self.d1 is not None:
            return float(self.d1(t))
        h = self.fd_step
        return float((self(t + h) - self(t - h)) / (2 * h))

    def second_derivative(self, t: float) -> float:
        if self.d2 is not None:
            return float(self.d2(t))
        h = self.fd_step
        return float((self(t + h) - 2 * self(t) + self(t - h)) / h**2)

    def fourth_derivative(self, t: float) -> float:
        if self.d4 is not None:
            return float(self.d4(t))
        if self.d2 is not None:
            # 2nd difference of the analytic 2nd derivative
            h = self.fd_step
            return (self.d2(t + h) - 2 * self.d2(t) + self.d2(t - h)) / h**2
        h = max(self.fd_step, 1e-3)
        c = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
        ts = t + h * np.arange(-2, 3)
        return float(np.dot(c, self(ts)) / h**4)


def _cw_value(beta: float, t: np.ndarray) -> np.ndarray:
    at = np.arctanh(t)
    return at * at / beta + np.log1p(-t * t)


def _cw_A(beta, t, u, w):
    # helper polynomial in the closed-form derivatives of F_beta
    return (2.0 / beta) * (1.0 + 2.0 * t * u) - 2.0 * (1.0 + t * t)


def _cw_d1(beta: float, t: float) -> float:
    w = 1.0 / (1.0 - t * t)
    return 2.0 * w * (math.atanh(t) / beta - t)


def _cw_d2(beta: float, t: float) -> float:
    u = math.atanh(t)
    w = 1.0 / (1.0 - t * t)
    return _cw_A(beta, t, u, w) * w * w


def _cw_d4(beta: float, t: float) -> float:
    u = math.atanh(t)
    w = 1.0 / (1.0 - t * t)
    A = _cw_A(beta, t, u, w)
    A1 = (4.0 / beta) * (u + t * w) - 4.0 * t
    A2 = (8.0 / beta) * (w + t * t * w * w) - 4.0
    return (A2 * w**2 + 8.0 * t * A1 * w**3 + 4.0 * A * w**3
            + 24.0 * t * t * A * w**4)


def curie_weiss_potential(beta: float) -> Potential:
    """F_beta(t) = (1/beta) * artanh(t)^2 + ln(1 - t^2), with analytic
    derivatives.  F_beta''(0) = 2(1-beta)/beta and F_beta''''(0) = 16/beta - 12.
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    return Potential(
        fn=lambda t: _cw_value(beta, t),
        d1=lambda t: _cw_d1(beta, t),
        d2=lambda t: _cw_d2(beta, t),
        d4=lambda t: _cw_d4(beta, t),
        label=f"curie_weiss(beta={beta:g})",
    )


def log_density_unnormalized(m, t):
    """log of the unnormalized density -S F(t)/2 - ln(1 - t^2).

    `m` needs only `.potential` and `.scale` attributes, so the value exists
    even for densities that are not normalizable.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise DomainError("t must lie in the open interval (-1, 1)")
    out = -0.5 * m.scale * m.potential(arr) - np.log1p(-arr * arr)
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# magnetization and minimum classification
# ---------------------------------------------------------------------------

def magnetization(beta: float) -> float:
    """Largest non-negative solution of tanh(beta*t) = t.

    Zero for beta <= 1; for beta > 1 the unique positive fixed point, found by
    bisection with residual below 1e-12.
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta <= 1.0:
        return 0.0
    lo, hi = 1e-8, 1.0 - 1e-15
    f = lambda t: math.tanh(beta * t) - t
    if f(lo) <= 0:  # pathological only for beta extremely close to 1
        lo = 1e-16
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    m = 0.5 * (lo + hi)
    if abs(math.tanh(beta * m) - m) >= 1e-12:
        raise NumericError(f"fixed-point residual too large at beta={beta}")
    return m


@dataclass(frozen=True)
class LaplaceExpansion:
    """Local data of the minimum of a potential on [0, 1).

    For a quadratic minimum (nu=2) P = F''(a)/2; for a quartic minimum at 0
    (nu=4) P = F''''(0)/24.  Q and lam describe the 1/(1-t^2) density factor
    at the minimum.
    """

    a: float
    nu: int
    P: float
    lam: float
    Q: float
    F_at_a: float

    def __post_init__(self):
        if self.nu not in (2, 4):
            raise ClassificationError(f"nu must be 2 or 4, got {self.nu}")
        if not self.P > 0:
            raise ClassificationError(f"P must be positive, got {self.P}")
        if not 0.0 <= self.a < 1.0:
            raise ClassificationError(f"minimum location {self.a} not in [0,1)")


_D2_THRESHOLD = 1e-8  # |F''(a)| below this means "not quadratic"


def find_minimum(p: Potential) -> LaplaceExpansion:
    """Locate and classify the minimum of the potential on [0, 1)."""
    grid = np.linspace(0.0, 1.0 - 1e-7, 20001)
    vals = p(grid)
    idx = int(np.argmin(vals))
    if idx >= len(grid) - 2:
        raise ClassificationError(
            f"minimum at the boundary t -> 1 for {p.label!r}")
    lo = grid[max(idx - 1, 0)]
    hi = grid[idx + 1]
    res = minimize_scalar(lambda t: float(p(t)), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-13})
    a = float(res.x)
    if a < 1e-6:
        a = 0.0
    else:
        # function values locate a quadratic minimum only to ~sqrt(eps);
        # polish on the first derivative to reach 1e-12
        wlo, whi = max(a - 1e-6, 0.0), min(a + 1e-6, 1.0 - 1e-9)
        if p.first_derivative(wlo) < 0 < p.first_derivative(whi):
            a = float(brentq(p.first_derivative, wlo, whi, xtol=1e-13))
    d2 = p.second_derivative(a)
    if abs(d2) > _D2_THRESHOLD:
        if d2 < 0:
            raise ClassificationError(
                f"second derivative negative at argmin for {p.label!r}")
        nu, P = 2, d2 / 2.0
    else:
        d4 = p.fourth_derivative(a)
        if d4 <= _D2_THRESHOLD:
            raise ClassificationError(
                f"minimum of {p.label!r} flat beyond fourth order; "
                "cannot classify")
        nu, P = 4, d4 / 24.0
    return LaplaceExpansion(a=a, nu=nu, P=P, lam=1.0,
                            Q=1.0 / (1.0 - a * a), F_at_a=float(p(a)))


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def laplace_moment_asymptotic(exp: LaplaceExpansion, K: int,
                              scale: float) -> float:
    """Leading Laplace-method asymptotics of the K-th moment of the measure
    e^{-scale*F/2}/(1-t^2) for an even potential with minimum data `exp`.
    """
    if K < 0:
        raise DomainError(f"K must be non-negative, got {K}")
    if K == 0:
        return 1.0
    if exp.a > 0.0:
        # two symmetric minima at +-a; odd moments cancel
        return 0.5 * (exp.a**K + (-exp.a) ** K)
    if K % 2 == 1:
        return 0.0
    if exp.nu == 2:
        return _double_factorial(K - 1) * exp.P ** (-K / 2) * scale ** (-K / 2)
    c_k = gamma_fn((K + 1) / 4.0) / gamma_fn(0.25) * 2.0 ** (K / 4.0)
    return c_k * exp.P ** (-K / 4) * scale ** (-K / 4)


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

    def abs_moment(self) -> float:
        return abs(self.t0)

    def sample_t(self, rng, size=None):
        if size is None:
            return self.t0
        return np.full(size, self.t0)


class DeFinettiMeasure:
    """Normalized probability measure e^{-S F(t)/2} / (Z (1-t^2)) on (-1, 1).

    Construction performs the normalizing quadrature eagerly (in the variable
    y = artanh t, log domain, panel-doubling until logZ is stable to ~1e-11)
    and builds a monotone inverse-CDF table for sampling.  Instances are
    immutable afterwards and safe to share across threads.
    """

    def __init__(self, potential: Potential, scale: float, n_cdf: int = 4096):
        if not scale > 0:
            raise DomainError(
                f"scale must be positive, got {scale} for {potential.label!r}")
        self.potential = potential
        self.scale = float(scale)
        self._where = f"{potential.label!r}, scale={self.scale:g}"
        self.minimum = find_minimum(potential)
        self._breaks = self._converge_panels()
        self.log_normalizer = self._log_integral(extra_log=None)
        self._moment_cache: dict[int, float] = {}
        self._build_cdf_table(n_cdf)

    # -- quadrature machinery ------------------------------------------------

    def _log_density_y(self, y: np.ndarray) -> np.ndarray:
        """log of the unnormalized integrand in y = artanh t (the Jacobian
        cancels the 1/(1-t^2) factor exactly)."""
        t = np.tanh(np.asarray(y, dtype=float))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            v = -0.5 * self.scale * self.potential(t)
        return np.where(np.isfinite(v), v, -np.inf)

    def _mode_info(self):
        """Mode locations in y and a Gaussian-like width estimate."""
        a, nu = self.minimum.a, self.minimum.nu
        y0 = math.atanh(a)
        if nu == 2:
            g2 = self.potential.second_derivative(a) * (1 - a * a) ** 2
            width = math.sqrt(2.0 / (self.scale * g2))
        else:
            g4 = self.potential.fourth_derivative(0.0)
            width = (48.0 / (self.scale * g4)) ** 0.25
        modes = [y0] if y0 == 0.0 else [-y0, y0]
        return modes, width

    def _find_cutoff(self, peak_log: float, start: float) -> float:
        """Smallest y >= start where the integrand has dropped by e^-45 and
        stays down all the way to tanh saturation (a rebound means mass is
        escaping toward the endpoints, i.e. the density is not normalizable).
        """
        target = peak_log - _LOG_TAIL
        y = max(start, 1e-3)
        for _ in range(200):
            if float(self._log_density_y(np.asarray(y))) < target:
                break
            y *= 1.5
        else:
            raise IntegrabilityError(
                "integrand tail does not decay; density not normalizable "
                f"({self._where})")
        probes = y * 2.0 ** np.arange(1, 12)
        probes = np.append(probes[probes < 800.0], 800.0)
        if np.any(self._log_density_y(probes) >= target):
            raise IntegrabilityError(
                "integrand rebounds beyond the tail cutoff; "
                f"density not normalizable ({self._where})")
        return y

    def _initial_breaks(self) -> np.ndarray:
        modes, width = self._mode_info()
        peak_log = float(np.max(self._log_density_y(np.asarray(modes))))
        Y = self._find_cutoff(peak_log, abs(modes[-1]) + width)
        pts = [np.linspace(-Y, Y, 17)]
        for m in modes:
            lo = max(m - 12 * width, -Y)
            hi = min(m + 12 * width, Y)
            if hi > lo:
                pts.append(np.linspace(lo, hi, 25))
        breaks = np.unique(np.concatenate(pts))
        return breaks

    def _panel_nodes(self, breaks: np.ndarray):
        a, b = breaks[:-1], breaks[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        ys = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        logw = np.log(half)[:, None] + np.log(_GL_WEIGHTS)[None, :]
        return ys.ravel(), logw.ravel()

    def _converge_panels(self) -> np.ndarray:
        breaks = self._initial_breaks()
        prev = None
        for _ in range(14):
            ys, logw = self._panel_nodes(breaks)
            val = float(logsumexp(self._log_density_y(ys) + logw))
            if not math.isfinite(val):
                raise IntegrabilityError(
                    f"normalizing integral not finite ({self._where})")
            if prev is not None and abs(val - prev) < _LOGZ_TOL:
                break
            prev = val
            breaks = np.unique(np.concatenate(
                [breaks, 0.5 * (breaks[:-1] + breaks[1:])]))
        else:
            raise IntegrabilityError(
                "quadrature failed to converge (divergent refinement) "
                f"({self._where})")
        return breaks

    def _log_integral(self, extra_log) -> float:
        """log of integral of exp(log density + extra_log(y)) dy."""
        ys, logw = self._panel_nodes(self._breaks)
        vals = self._log_density_y(ys) + logw
        if extra_log is not None:
            vals = vals + extra_log(ys)
        return float(logsumexp(vals))

    # -- public surface -------------------------------------------------------

    def log_density(self, t) -> np.ndarray | float:
        """log of the unnormalized density -S F(t)/2 - ln(1 - t^2)."""
        return log_density_unnormalized(self, t)

    def normalize(self) -> float:
        """Return log Z (computed eagerly at construction)."""
        return self.log_normalizer

    def moment(self, K: int) -> float:
        """Exact K-th moment of the mixing measure by quadrature.  Odd moments
        vanish by symmetry of the even potential, no quadrature involved."""
        if K < 0:
            raise DomainError(f"K must be non-negative, got {K}")
        if K == 0:
            return 1.0
        if K % 2 == 1:
            return 0.0
        if K in self._moment_cache:
            return self._moment_cache[K]
        with np.errstate(divide="ignore"):
            log_num = self._log_integral(
                lambda y: K * np.log(np.abs(np.tanh(y))))
        val = math.exp(log_num - self.log_normalizer)
        self._moment_cache[K] = val
        return val

    def abs_moment(self) -> float:
        """Exact value of integral |t| dmu(t)."""
        with np.errstate(divide="ignore"):
            log_num = self._log_integral(
                lambda y: np.log(np.abs(np.tanh(y))))
        return math.exp(log_num - self.log_normalizer)

    def mass(self, lo: float, hi: float) -> float:
        """mu([lo, hi]) via the CDF table interpolant."""
        return float(self.cdf(hi) - self.cdf(lo))

    def cdf(self, t) -> np.ndarray | float:
        ts, cs = self.cdf_table
        out = np.interp(np.asarray(t, dtype=float), ts, cs,
                        left=0.0, right=1.0)
        return float(out) if np.isscalar(t) else out

    def sample_t(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draw(s) of the latent mean t."""
        u = rng.random() if size is None else rng.random(size)
        u = np.clip(u, self._cdf_y[0], self._cdf_y_last)
        y = self._inverse_cdf(u)
        t = np.tanh(y)
        return float(t) if size is None else t

    # -- CDF table -----------------------------------------------------------

    def _build_cdf_table(self, n_cdf: int):
        breaks = self._breaks
        subdiv = max(1, math.ceil(n_cdf / (len(breaks) - 1)))
        edges = np.unique(np.concatenate(
            [np.linspace(breaks[i], breaks[i + 1], subdiv + 1)
             for i in range(len(breaks) - 1)]))
        a, b = edges[:-1], edges[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        ys = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        logw = np.log(half)[:, None] + np.log(_GL_WEIGHTS)[None, :]
        log_inc = logsumexp(self._log_density_y(ys.ravel()).reshape(ys.shape)
                            + logw, axis=1)
        log_cum = np.logaddexp.accumulate(log_inc)
        cdf = np.exp(log_cum - log_cum[-1])
        cdf = np.concatenate([[0.0], cdf])
        cdf[-1] = 1.0
        ts = np.tanh(edges)
        # keep a strictly increasing table in both coordinates; drop
        # denormal-tiny CDF steps, which would give unusable interpolant slopes
        ts_k, cdf_k, ys_k = [], [], []
        last_t, last_c = -np.inf, -np.inf
        for t_i, c_i, y_i in zip(ts, cdf, edges):
            if t_i > last_t and (c_i > last_c + 1e-15 or c_i == 1.0 > last_c):
                ts_k.append(t_i)
                cdf_k.append(c_i)
                ys_k.append(y_i)
                last_t, last_c = t_i, c_i
        ts_k = np.asarray(ts_k)
        cdf_k = np.asarray(cdf_k)
        ys_k = np.asarray(ys_k)
        self.cdf_table = (ts_k, cdf_k)
        self._inverse_cdf = PchipInterpolator(cdf_k, ys_k, extrapolate=False)
        self._cdf_y = cdf_k
        self._cdf_y_last = cdf_k[-1]
        self._table_ys = ys_k
        err = self._interp_error_estimate()
        if err > 1e-6:
            raise NumericError(
                f"inverse-CDF table error {err:.3g} exceeds 1e-6 "
                f"({self._where})")

    def _interp_error_estimate(self) -> float:
        """Max deviation between the interpolated CDF and a direct
        re-integration, probed at table midpoints."""
        ys, cdf = self._table_ys, self._cdf_y
        idx = np.linspace(1, len(ys) - 1, 33, dtype=int)
        err = 0.0
        fwd = PchipInterpolator(ys, cdf, extrapolate=False)
        for i in idx:
            ym = 0.5 * (ys[i - 1] + ys[i])
            # fine Gauss integral of the density over [ys[i-1], ym]
            half = 0.5 * (ym - ys[i - 1])
            mid = 0.5 * (ym + ys[i - 1])
            nodes = mid + half * _GL_NODES
            logw = math.log(half) + np.log(_GL_WEIGHTS)
            inc = math.exp(
                logsumexp(self._log_density_y(nodes) + logw)
                - self.log_normalizer)
            err = max(err, abs(float(fwd(ym)) - (cdf[i - 1] + inc)))
        return err
