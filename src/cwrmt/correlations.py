"""Monte Carlo correlation functions and trace moments, and the exact
approximately-uncorrelated criterion.

For spin ensembles all squared entries are 1, so the criterion
|E(X_p1 ... X_pl)| <= C_l N^{-l/2} at distinct positions is a decay condition
on the moments of the mixing measure, decided by its minimum and scale.
"""

from __future__ import annotations

import math

import numpy as np

from . import ensembles
from .definetti import find_minimum
from .ensembles import EnsembleConfig, _latent, _law, _t_measure, seed_stream
from .errors import DomainError, UnsupportedEnsembleError

__all__ = [
    "approx_uncorrelated",
    "mc_correlation",
    "mc_trace_moment",
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
        ts = _t_measure(cfg).sample_t(rng, size=(len(diags), replicas)).T
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
        X = ensembles.sample_full_cw_batch(cfg, n, rng)
        lam = np.linalg.eigvalsh(X.astype(float) / cfg.N**gamma)
        vals[done:done + n] = (lam**k).mean(axis=1)
        done += n
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))


def approx_uncorrelated(cfg: EnsembleConfig) -> bool:
    """Whether cfg's entries are approximately uncorrelated, i.e. whether
    |E(X_p1 ... X_pl)| <= C_l N^{-l/2} at distinct positions for every l.

    By Laplace's method the l-th moment of a measure at scale N^s tends to
    a^l if its minimum a > 0 and decays as N^{-ls/nu} if a = 0, so the bound
    holds iff a = 0 and s >= nu/2.  The iid kind is trivially uncorrelated.
    """
    if cfg.kind == "iid":
        return True
    potential, s = _law(cfg)
    m = find_minimum(potential)
    return m.a == 0.0 and s >= m.nu / 2
