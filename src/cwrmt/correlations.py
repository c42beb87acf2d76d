"""Exact, asymptotic, and Monte Carlo correlation functions, plus the
approximately-uncorrelated criterion checker.

For spin ensembles all squared entries are 1, so the criterion reduces to
boundedness of N^{l/2} |integral t^l dmu_N| across an N-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import ensembles
from .ensembles import EnsembleConfig, _cw_measure, _latent, seed_stream
from .errors import DomainError, UnsupportedEnsembleError

__all__ = [
    "UncorrelatedFit",
    "mc_correlation",
    "mc_trace_moment",
    "check_approx_uncorrelated",
]


def mc_correlation(cfg: EnsembleConfig, positions,
                   replicas: int) -> tuple[float, float]:
    """Sample mean and standard error of the product of entries at the given
    unordered positions.  Only the needed entries are sampled: for each
    replica a latent t is drawn (per diagonal for the diagonal ensemble) and
    the spins at the positions are conditionally iid given it.
    """
    if replicas < 100:
        raise DomainError(f"replicas must be >= 100, got {replicas}")
    sym = [(min(i, j), max(i, j)) for (i, j) in positions]
    if len(set(sym)) != len(sym):
        raise DomainError("positions must be distinct after symmetrization")
    rng = seed_stream(cfg.seed, cfg.replica_index, "mc")
    if cfg.kind == "diagonal_cw":
        diags = sorted({j - i for (i, j) in sym})
        ts = _cw_measure(cfg.beta, float(cfg.N)).sample_t(
            rng, size=(len(diags), replicas)).T
        ts = ts[:, [diags.index(j - i) for (i, j) in sym]]
    else:
        ts = _latent(cfg, rng, replicas)
    spins = np.where(rng.random((replicas, len(sym))) < 0.5 * (1.0 + ts),
                     1.0, -1.0)
    prod = spins.prod(axis=1)
    est = float(prod.mean())
    stderr = float(prod.std(ddof=1) / math.sqrt(replicas))
    return est, stderr


def mc_trace_moment(cfg: EnsembleConfig, k: int, gamma: float,
                    replicas: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[(1/N) tr (X/N^gamma)^k] by batched sampling
    and eigensolves; the stochastic counterpart of the exact class-sum."""
    if cfg.kind == "diagonal_cw":
        raise UnsupportedEnsembleError(
            "the trace-moment oracle needs a single shared latent t")
    if replicas < 2:
        raise DomainError(f"replicas must be >= 2, got {replicas}")
    rng = seed_stream(cfg.seed, cfg.replica_index, "mc")
    vals = np.empty(replicas)
    done = 0
    batch = max(1, min(replicas, int(2e7 // (cfg.N * cfg.N))))
    while done < replicas:
        n = min(batch, replicas - done)
        # looked up at call time, so a wrapped module attribute is used
        _, X = ensembles.sample_full_cw_batch(cfg, n, rng)
        lam = np.linalg.eigvalsh(X.astype(float) / cfg.N**gamma)
        vals[done:done + n] = (lam**k).mean(axis=1)
        done += n
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))


@dataclass(frozen=True)
class UncorrelatedFit:
    ell: int
    observed: dict  # N -> |E(prod X)| = |moment(mu_N, ell)|
    normalized: dict  # N -> N^{ell/2} * observed
    fitted_constant: float
    bounded: bool


def check_approx_uncorrelated(measures: Mapping[int, object], ell: int,
                              N_grid: Sequence[int]) -> UncorrelatedFit:
    """Evaluate the decay criterion |E(X_1 ... X_ell)| <= C / N^{ell/2} on a
    grid of sizes.

    "Bounded" is a finite-grid proxy: either the normalized sequence has no
    strictly increasing run over the top three grid points with its maximum
    before the final point, or its growth is below 5% per decade of N.
    """
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    grid = sorted(N_grid)
    observed = {N: abs(measures[N].moment(ell)) for N in grid}
    normalized = {N: N ** (ell / 2.0) * observed[N] for N in grid}
    vals = np.array([normalized[N] for N in grid])
    fitted = float(vals.max())
    if len(grid) >= 3:
        tail_increasing = vals[-3] < vals[-2] < vals[-1]
        max_before_end = int(np.argmax(vals)) < len(vals) - 1
        cond1 = (not tail_increasing) and max_before_end
    else:
        cond1 = False
    with np.errstate(divide="ignore"):
        decades = math.log10(grid[-1]) - math.log10(grid[0])
        if decades > 0 and vals[0] > 0 and vals[-1] > 0:
            growth_per_decade = (vals[-1] / vals[0]) ** (1.0 / decades) - 1.0
        else:
            growth_per_decade = 0.0
    cond2 = growth_per_decade < 0.05
    return UncorrelatedFit(
        ell=ell, observed=observed, normalized=normalized,
        fitted_constant=fitted, bounded=bool(cond1 or cond2))
