"""Monte Carlo correlation functions and trace moments, and the exact
approximately-uncorrelated criterion.

For spin ensembles all squared entries are 1, so the criterion
|E(X_p1 ... X_pl)| <= C_l N^{-l/2} at distinct positions is a decay condition
on the moments of the mixing measure, decided by its minimum and scale.
"""

from __future__ import annotations

import math

import numpy as np

from . import circuits, ensembles
from .definetti import find_minimum
from .ensembles import EnsembleConfig, _latent, _law, _t_measure, seed_stream
from .errors import DomainError, ResourceError, UnsupportedEnsembleError

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
    for p in positions:
        if not all(1 <= v <= cfg.N for v in p):
            raise DomainError(f"position {tuple(p)} lies outside the "
                              f"matrix: 1 <= i, j <= N={cfg.N}")
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


def _traces(X: np.ndarray, k: int) -> np.ndarray:
    """tr X^k per ±1 matrix of the stack X, as an exact int64 tr(P Q) with
    Q = X^(k//2), P = X^(k - k//2).  For N^k < 2^63 every entry and partial
    sum of P and Q is an integer of size at most N^ceil(k/2) < 2^42, so the
    float64 (BLAS) powers are exact; only the final contraction, of size up
    to N^k, is summed in int64."""
    X = X.astype(np.float64)
    if k == 1:
        return X.trace(axis1=1, axis2=2).astype(np.int64)
    Q = X
    for _ in range(k // 2 - 1):
        Q = Q @ X
    Q_int = Q.astype(np.int64)
    P_int = (Q @ X).astype(np.int64) if k % 2 else Q_int
    return np.einsum("bij,bji->b", P_int, Q_int)


def mc_trace_moment(cfg: EnsembleConfig, k: int, gamma: float,
                    replicas: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[(1/N) tr (X/N^gamma)^k] from exact integer
    traces of batched samples; int64 holds tr X^k, of size at most N^k, while
    N^k < 2^63."""
    if cfg.kind == "diagonal_cw":
        raise UnsupportedEnsembleError(
            "the trace-moment oracle needs a single shared latent t")
    for name, value, least in (("k", k, 1), ("replicas", replicas, 2)):
        if value < least:
            raise DomainError(f"{name} must be >= {least}, got {value}")
    if cfg.N**k >= 2**63:
        raise ResourceError(f"N={cfg.N}, k={k}: int64 traces need N^k < 2^63")
    norm = circuits._scaling(cfg.N, 1 + k * gamma, k, gamma)
    rng = seed_stream(cfg.seed, cfg.replica_index, "mc")
    traces = np.empty(replicas, dtype=np.int64)
    batch = max(1, min(replicas, int(2e7 // (cfg.N * cfg.N))))
    block = max(1, 2**15 // cfg.N**2)  # about 256 kB per power
    for done in range(0, replicas, batch):
        n = min(batch, replicas - done)
        # looked up at call time, so a wrapped module attribute is used
        X = ensembles.sample_full_cw_batch(cfg, n, rng)
        out = traces[done:done + n]
        for j in range(0, n, block):
            out[j:j + block] = _traces(X[j:j + block], k)
    return (float(traces.mean()) / norm,
            float(traces.std(ddof=1)) / math.sqrt(replicas) / norm)


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
