"""Samplers for symmetric +-1 matrix ensembles.

Four kinds: the full Curie-Weiss ensemble (all N(N+1)/2 upper-triangle spins
conditionally iid given one latent t with mixing scale N^2), the diagonal
Curie-Weiss ensemble (one latent t per diagonal, mixing scale N), generalized
ensembles e^{-N^alpha F} with an arbitrary even potential, and the iid
Rademacher baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .definetti import (DeFinettiMeasure, PointMass, Potential, _cached_once,
                        curie_weiss_potential)
from .errors import ConfigError, DomainError, UnsupportedEnsembleError

__all__ = [
    "EnsembleConfig",
    "SpinMatrix",
    "ScaledMatrix",
    "sample_matrix",
    "scale",
    "mixing_measure",
    "seed_stream",
]

N_MAX = 4096

# rows per block of `_spin_fill`, and the most doubles it draws in one call
# (2 MB)
_BLOCK = 64
_DRAW_MAX = 2**18

_PURPOSE_CODES = {"latent": 0, "spins": 1, "mc": 2}


def seed_stream(seed: int, replica: int, purpose: str) -> np.random.Generator:
    """Deterministic, disjoint substream for (seed, replica, purpose).

    The latent-t draw and the spin draws of one replica never share a stream,
    so replicas can run in parallel and still reproduce bit-identically.
    """
    try:
        code = _PURPOSE_CODES[purpose]
    except KeyError:
        raise ConfigError(f"unknown stream purpose {purpose!r}") from None
    ss = np.random.SeedSequence(seed, spawn_key=(replica, code))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class EnsembleConfig:
    kind: str  # full_cw | diagonal_cw | generalized | iid
    N: int
    beta: float | None = None
    alpha: float | None = None
    potential: Potential | None = None
    seed: int = 0
    replica_index: int = 0

    def __post_init__(self):
        if self.kind not in ("full_cw", "diagonal_cw", "generalized", "iid"):
            raise ConfigError(f"unknown ensemble kind {self.kind!r}")
        if not 1 <= self.N <= N_MAX:
            raise ConfigError(f"N must be in [1, {N_MAX}], got {self.N}")
        if self.kind in ("full_cw", "diagonal_cw"):
            if self.beta is None or not self.beta > 0:
                raise ConfigError(f"{self.kind} requires beta > 0")
        if self.kind == "generalized":
            if self.alpha is None or not self.alpha > 0:
                raise ConfigError("generalized kind requires alpha > 0")
            if self.potential is None and self.beta is None:
                raise ConfigError(
                    "generalized kind requires a potential (or beta for F_beta)")
        # generalized reads beta only for F_beta, when no potential is given
        for key, unread in (("alpha", self.kind != "generalized"),
                            ("potential", self.kind != "generalized"),
                            ("beta", self.kind == "iid"
                             or self.potential is not None)):
            if unread and getattr(self, key) is not None:
                raise ConfigError(f"kind {self.kind} does not read {key}")
        if self.replica_index < 0:
            raise ConfigError("replica_index must be non-negative")


@dataclass(frozen=True)
class SpinMatrix:
    N: int
    entries: np.ndarray  # int8, symmetric, values in {-1, +1}
    latent_t: float | np.ndarray | None

    def __post_init__(self):
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class ScaledMatrix:
    """View of a spin matrix with entries divided by N^exponent.

    exponent=1/2 is the semicircle normalization A_N, exponent=1 the B_N
    matrix of the norm-transition experiments.
    """

    source: SpinMatrix
    exponent: float

    @property
    def values(self) -> np.ndarray:
        return self.source.entries.astype(float) / self.source.N**self.exponent


def scale(X: SpinMatrix, gamma: float) -> ScaledMatrix:
    if gamma < 0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    return ScaledMatrix(source=X, exponent=gamma)


# ---------------------------------------------------------------------------
# mixing measures (cached: construction runs adaptive quadrature)
# ---------------------------------------------------------------------------

@_cached_once
def _measure(potential: Potential, scale_: float) -> DeFinettiMeasure:
    return DeFinettiMeasure(potential, scale_)


def _law(cfg: EnsembleConfig) -> tuple[Potential, float]:
    """(F, s) of the law e^{-N^s F/2}/(1-t^2) of cfg's latent t."""
    if cfg.kind == "iid":
        raise UnsupportedEnsembleError("iid has no mixing measure")
    if cfg.kind == "generalized":
        return cfg.potential or curie_weiss_potential(cfg.beta), cfg.alpha
    return curie_weiss_potential(cfg.beta), 2 if cfg.kind == "full_cw" else 1


def _t_measure(cfg: EnsembleConfig):
    """The law of one latent t of cfg (of each t_k for diagonal_cw)."""
    if cfg.kind == "iid":
        return PointMass(0.0)
    potential, s = _law(cfg)
    return _measure(potential, float(cfg.N) ** s)


def mixing_measure(cfg: EnsembleConfig):
    """The de Finetti mixing measure of the shared latent t for ensembles
    with a single t (full, generalized, iid).  Raises for diagonal_cw, whose
    latent field is one t per diagonal."""
    if cfg.kind == "diagonal_cw":
        raise UnsupportedEnsembleError(
            "diagonal_cw has no single shared mixing measure")
    return _t_measure(cfg)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _latent(cfg: EnsembleConfig, rng: np.random.Generator,
            size: int) -> np.ndarray:
    """Latent means of `size` draws: shape (size, 1) for the kinds with one
    shared t, (size, N) for diagonal_cw (t_k of diagonal k)."""
    width = cfg.N if cfg.kind == "diagonal_cw" else 1
    return _t_measure(cfg).sample_t(rng, size=(size, width))


def _spin_fill(N: int, ts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Stack of symmetric matrices, one per row of latent means `ts`: row i
    of the upper triangle (incl. diagonal) is drawn across the stack, entry
    (i, j) with mean ts[:, j - i] (one column: the same mean everywhere).
    Rows go in blocks of _BLOCK: each row is mirrored inside its diagonal
    block, and each block's off-diagonal strip by one transposed copy.
    The uniforms of several rows come from one `rng.random` call of at
    most _DRAW_MAX doubles, split by row; a row longer than that is drawn
    in slices of the stack.  It is the same stream as one call per row,
    but a few long fills made without the GIL, so pool threads sample in
    parallel."""
    B = len(ts)
    p = 0.5 * (1.0 + ts)
    X = np.empty((B, N, N), dtype=np.int8)
    step = max(1, min(_BLOCK, _DRAW_MAX // (B * N)))  # rows per draw
    for r0 in range(0, N, _BLOCK):
        r1 = min(r0 + _BLOCK, N)
        for d0 in range(r0, r1, step):
            rows = range(d0, min(d0 + step, r1))
            # matrices per draw: all, unless one row is longer than the cap
            span = B if step > 1 else max(1, _DRAW_MAX // (N - d0))
            for b0 in range(0, B, span):
                b = slice(b0, b0 + span)
                u = rng.random(len(p[b]) * sum(N - i for i in rows))
                at = 0
                for i in rows:
                    row = X[b, i, i:]
                    np.less(u[at:at + row.size].reshape(row.shape),
                            p[b, :N - i], out=row)
                    at += row.size
                    X[b, i + 1:r1, i] = row[:, 1:r1 - i]
                del u  # before the next draw: one buffer alive at a time
        X[:, r1:, r0:r1] = X[:, r0:r1, r1:].transpose(0, 2, 1)
    X *= 2
    X -= 1  # 1 where u < p, else -1
    return X


def sample_matrix(cfg: EnsembleConfig) -> SpinMatrix:
    """One draw of cfg's ensemble: latent means from the replica's "latent"
    stream, then conditionally iid spins from its "spins" stream.  The iid
    kind's point mass at 0 records no latent t."""
    ts = _latent(cfg, seed_stream(cfg.seed, cfg.replica_index, "latent"), 1)
    X = _spin_fill(cfg.N, ts,
                   seed_stream(cfg.seed, cfg.replica_index, "spins"))[0]
    if cfg.kind == "diagonal_cw":
        latent = ts[0]
    else:
        latent = None if cfg.kind == "iid" else float(ts[0, 0])
    return SpinMatrix(N=cfg.N, entries=X, latent_t=latent)


def sample_full_cw_batch(cfg: EnsembleConfig, replicas: int,
                         rng: np.random.Generator) -> np.ndarray:
    """X of shape (replicas, N, N): draws for Monte Carlo from one stream,
    latent means (see `_latent`) first, then spins.  Intended for small N."""
    return _spin_fill(cfg.N, _latent(cfg, rng, replicas), rng)
