"""Matrix samplers: symmetry, spin support, latent-variable bookkeeping,
deterministic streams, and conditional-iid structure."""

import hashlib
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cwrmt import (
    DeFinettiMeasure,
    EnsembleConfig,
    PointMass,
    Potential,
    curie_weiss_potential,
    mixing_measure,
    sample_matrix,
    scale,
    seed_stream,
)
from cwrmt import ensembles
from cwrmt.ensembles import N_MAX, sample_full_cw_batch
from cwrmt.errors import ConfigError, DomainError, UnsupportedEnsembleError


def _cfg(kind, N, **kw):
    defaults = {"full_cw": {"beta": 0.5}, "diagonal_cw": {"beta": 0.5},
                "generalized": {"beta": 0.5, "alpha": 1.0}, "iid": {}}
    args = dict(defaults[kind])
    args.update(kw)
    return EnsembleConfig(kind=kind, N=N, **args)


ALL_KINDS = ["full_cw", "diagonal_cw", "generalized", "iid"]


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("N", [1, 2, 7, 16])
def test_symmetry_and_spin_support(kind, N):
    X = sample_matrix(_cfg(kind, N, seed=3))
    assert X.entries.shape == (N, N)
    assert np.array_equal(X.entries, X.entries.T)
    assert np.all(np.abs(X.entries) == 1)
    if kind == "iid":
        assert X.latent_t is None
    else:
        lat = np.atleast_1d(X.latent_t)
        assert np.all((-1.0 < lat) & (lat < 1.0))


def test_entries_read_only():
    X = sample_matrix(_cfg("iid", 4))
    with pytest.raises(ValueError):
        X.entries[0, 0] = -X.entries[0, 0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_determinism(kind):
    a = sample_matrix(_cfg(kind, 12, seed=42))
    b = sample_matrix(_cfg(kind, 12, seed=42))
    assert np.array_equal(a.entries, b.entries)
    c = sample_matrix(_cfg(kind, 12, seed=42, replica_index=1))
    assert not np.array_equal(a.entries, c.entries)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="bogus", N=4)
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="iid", N=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="iid", N=N_MAX + 1)
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="full_cw", N=4)  # missing beta
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="generalized", N=4, beta=0.5)  # missing alpha
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="iid", N=4, replica_index=-1)
    # a key the kind does not read would be echoed in summary.json as if it
    # had shaped the run
    with pytest.raises(ConfigError, match="kind full_cw does not read alpha"):
        EnsembleConfig(kind="full_cw", N=4, beta=0.5, alpha=2.0)
    with pytest.raises(ConfigError, match="kind iid does not read alpha"):
        EnsembleConfig(kind="iid", N=4, alpha=2.0)
    with pytest.raises(ConfigError, match="kind iid does not read beta"):
        EnsembleConfig(kind="iid", N=4, beta=0.5)
    sextic = Potential(lambda y, y0: y**6 - y0**6, label="y6")
    for kind, beta in (("full_cw", 0.5), ("diagonal_cw", 0.5), ("iid", None)):
        with pytest.raises(ConfigError,
                           match=f"kind {kind} does not read potential"):
            EnsembleConfig(kind=kind, N=4, beta=beta, potential=sextic)
    # beta only names F_beta, so a given potential leaves it unread
    with pytest.raises(ConfigError,
                       match="kind generalized does not read beta"):
        EnsembleConfig(kind="generalized", N=4, alpha=2.0, beta=0.5,
                       potential=sextic)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_seed_stream_reproducible_and_disjoint():
    a = seed_stream(1, 0, "latent").random(8)
    b = seed_stream(1, 0, "latent").random(8)
    assert np.array_equal(a, b)
    c = seed_stream(1, 0, "spins").random(8)
    d = seed_stream(1, 1, "latent").random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_seed_stream_no_shared_windows_across_replicas():
    # sanity scan, not cryptographic: no common length-4 window in the first
    # 10^4 outputs of two replica streams
    x = seed_stream(2, 0, "spins").integers(0, 2**32, 10_000)
    y = seed_stream(2, 1, "spins").integers(0, 2**32, 10_000)
    wx = {tuple(x[i:i + 4]) for i in range(len(x) - 3)}
    wy = {tuple(y[i:i + 4]) for i in range(len(y) - 3)}
    assert not (wx & wy)


def test_seed_stream_bad_purpose():
    with pytest.raises(ConfigError):
        seed_stream(0, 0, "nope")


# ---------------------------------------------------------------------------
# mixing measures
# ---------------------------------------------------------------------------

def test_mixing_measure_scales():
    m_full = mixing_measure(_cfg("full_cw", 30))
    assert m_full.scale == 900.0
    m_gen = mixing_measure(_cfg("generalized", 30, alpha=1.0))
    assert m_gen.scale == 30.0
    assert isinstance(mixing_measure(_cfg("iid", 30)), PointMass)
    with pytest.raises(UnsupportedEnsembleError):
        mixing_measure(_cfg("diagonal_cw", 30))


def test_small_beta_approaches_iid():
    m = mixing_measure(_cfg("full_cw", 30, beta=0.01))
    assert m.moment(2) < 1e-4


# ---------------------------------------------------------------------------
# conditional-iid structure
# ---------------------------------------------------------------------------

def test_entry_mean_tracks_latent_t():
    cfg = _cfg("full_cw", 500, seed=11)
    X = sample_matrix(cfg)
    iu = np.triu_indices(cfg.N)
    M = len(iu[0])
    emp = float(np.mean(X.entries[iu]))
    assert abs(emp - X.latent_t) < 3.5 / math.sqrt(M)


def test_conditional_iid_halves_agree():
    cfg = _cfg("full_cw", 500, seed=13)
    X = sample_matrix(cfg)
    iu = np.triu_indices(cfg.N)
    vals = X.entries[iu].astype(float)
    half = len(vals) // 2
    assert abs(vals[:half].mean() - vals[half:].mean()) < \
        6.0 / math.sqrt(cfg.N**2 / 2.0)


def test_supercritical_plus_fraction_matches_latent():
    cfg = _cfg("full_cw", 100, beta=2.0, seed=17)
    X = sample_matrix(cfg)
    iu = np.triu_indices(cfg.N)
    frac = float(np.mean(X.entries[iu] == 1))
    assert abs(frac - 0.5 * (1.0 + X.latent_t)) < 0.02


def test_exchangeability_of_entry_positions():
    # (X(1,2)+X(3,4)) and (X(1,5)+X(2,7)) must be equal in law; compare
    # empirical distributions over 10^4 replicas at KS < 0.03
    cfg = _cfg("full_cw", 8, beta=1.5, seed=19)
    R = 10_000
    rng = seed_stream(cfg.seed, 0, "mc")
    m = mixing_measure(cfg)
    ts = m.sample_t(rng, size=R)
    spins = np.where(rng.random((R, 4)) < 0.5 * (1.0 + ts[:, None]), 1, -1)
    s_a = spins[:, 0] + spins[:, 1]
    s_b = spins[:, 2] + spins[:, 3]
    support = np.array([-2, 0, 2])
    ecdf_a = np.array([np.mean(s_a <= v) for v in support])
    ecdf_b = np.array([np.mean(s_b <= v) for v in support])
    assert np.max(np.abs(ecdf_a - ecdf_b)) < 0.03


# ---------------------------------------------------------------------------
# diagonal ensemble
# ---------------------------------------------------------------------------

def test_diagonal_latent_field_per_diagonal():
    cfg = _cfg("diagonal_cw", 20, seed=23)
    X = sample_matrix(cfg)
    assert len(X.latent_t) == 20
    assert np.all((-1.0 < X.latent_t) & (X.latent_t < 1.0))


def test_diagonal_single_site():
    X = sample_matrix(_cfg("diagonal_cw", 1, seed=29))
    assert X.entries.shape == (1, 1)
    assert X.entries[0, 0] in (-1, 1)


def test_diagonal_cross_diagonal_decorrelation():
    # entries (0,1) and (0,2) sit on different diagonals; their product
    # should average to ~0 across replicas
    R = 1000
    prods = np.empty(R)
    for r in range(R):
        X = sample_matrix(_cfg("diagonal_cw", 10, seed=31,
                                    replica_index=r))
        prods[r] = X.entries[0, 1] * X.entries[0, 2]
    assert abs(prods.mean()) < 0.1


# ---------------------------------------------------------------------------
# generalized ensemble
# ---------------------------------------------------------------------------

def test_generalized_alpha_two_matches_full():
    # scale N^2 with the same potential reproduces the full ensemble draw
    # under the same seed path
    full = sample_matrix(_cfg("full_cw", 24, seed=41))
    gen = sample_matrix(_cfg("generalized", 24, alpha=2.0, seed=41))
    assert np.array_equal(full.entries, gen.entries)
    assert full.latent_t == gen.latent_t


def test_generalized_smaller_alpha_wider_latent():
    m1 = mixing_measure(_cfg("generalized", 400, alpha=1.0, beta=0.75))
    m2 = mixing_measure(_cfg("generalized", 400, alpha=2.0, beta=0.75))
    assert m1.moment(2) > m2.moment(2)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def test_scale_views():
    X = sample_matrix(_cfg("iid", 4, seed=43))
    assert np.array_equal(scale(X, 0.0).values, X.entries.astype(float))
    assert np.all(np.abs(scale(X, 0.5).values) == 0.5)
    assert np.all(np.abs(scale(X, 1.0).values) == 0.25)
    assert scale(X, 0.5).exponent == 0.5
    with pytest.raises(DomainError):
        scale(X, -0.5)


def test_generalized_measure_shared_across_replicas():
    # a generalized config given only beta builds its measure once, not once
    # per replica
    cfgs = [_cfg("generalized", 30, beta=0.6, alpha=1.0, replica_index=r)
            for r in (0, 1)]
    assert mixing_measure(cfgs[0]) is mixing_measure(cfgs[1])


def test_racing_replicas_build_a_measure_once(monkeypatch):
    # more threads than cores miss the cache for the same fresh key at once;
    # the slowed build keeps the first inside it while the others ask
    builds = []
    init = DeFinettiMeasure.__init__

    def slow_init(self, *args, **kwargs):
        builds.append(args)
        time.sleep(0.05)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DeFinettiMeasure, "__init__", slow_init)
    potential = curie_weiss_potential(0.4321)  # a key no other test uses
    barrier = threading.Barrier(4)
    got = []

    def ask():
        barrier.wait(timeout=10)
        got.append(ensembles._measure(potential, 1e4))

    threads = [threading.Thread(target=ask) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert len(got) == 4 and all(m is got[0] for m in got)


# ---------------------------------------------------------------------------
# one sampler for every kind
# ---------------------------------------------------------------------------

# SHA-256 of the int8 entries of one N=9, seed=1 draw; the shared-t kinds'
# streams are those of the per-kind samplers this one replaced, diagonal_cw's
# spins are drawn row by row over the upper triangle
DRAW_SHA256 = {
    "full_cw": "581e8c0865b37f2cc317d31014470d8ae42c5724cb22a54a89c85e181ca2892d",
    "diagonal_cw":
        "cbf862083461314b2ef739750d47cdc45edfcbe53536b11cc785e44b8c4984d3",
    "generalized":
        "6a730d757f81af96eee23f26b623df5dd324660701e53067d1aab859fb8fea3d",
    "iid": "bb83209006af2cbede3695f9db65f18b48f55c6ac3c89da534fc2cf7bbaab26d",
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_draw_streams_pinned(kind):
    kw = {"iid": {}, "generalized": {"beta": 0.7, "alpha": 1.5}}.get(
        kind, {"beta": 0.7})
    X = sample_matrix(EnsembleConfig(kind=kind, N=9, seed=1, **kw))
    assert hashlib.sha256(X.entries.tobytes()).hexdigest() == \
        DRAW_SHA256[kind]


@pytest.mark.parametrize("seed", range(5))
def test_diagonal_spins_follow_their_diagonal_t(seed):
    # at beta=5 every |t_k| exceeds 0.999, so the mean of a long diagonal
    # has the sign of its own t_k; a gather with the wrong offset mixes
    # diagonals of independent signs
    X = sample_matrix(_cfg("diagonal_cw", 300, beta=5.0, seed=seed))
    for k in range(300 - 50 + 1):
        mean = np.diagonal(X.entries, offset=k).mean()
        assert np.sign(mean) == np.sign(X.latent_t[k]), k


def test_batch_stream_pinned():
    # SHA-256 of the int8 stack of 64 N=5 draws: the latent means first,
    # then row i of every matrix in the batch before row i + 1
    X = sample_full_cw_batch(EnsembleConfig("full_cw", N=5, beta=0.7), 64,
                             seed_stream(1, 0, "mc"))
    assert X.shape == (64, 5, 5)
    assert np.array_equal(X, X.transpose(0, 2, 1))
    assert hashlib.sha256(X.tobytes()).hexdigest() == \
        "cf6d53f5dc2eedfee4b4223704f5282fd0716736279324e2065a8d5c68d28482"


def _row_fill(N, ts, rng):
    """Reference sampler: row i of the upper triangle drawn across the
    stack, entry (i, j) with mean ts[:, j - i], written to row i and
    mirrored into column i."""
    p = 0.5 * (1.0 + ts)
    X = np.empty((len(ts), N, N), dtype=np.int8)
    for i in range(N):
        row = np.where(rng.random((len(ts), N - i)) < p[:, :N - i], 1, -1)
        X[:, i, i:] = row
        X[:, i:, i] = row
    return X


@pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 129, 200])
@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("per_diagonal", [False, True])
def test_block_fill_matches_row_fill(N, B, per_diagonal):
    # the blocked sampler draws the same stream as the row-by-row one, at
    # sizes on both sides of a block edge, with one shared mean per matrix
    # (shape (B, 1)) and with one mean per diagonal (shape (B, N))
    ts = np.random.default_rng(N).uniform(
        -0.9, 0.9, (B, N if per_diagonal else 1))
    X = ensembles._spin_fill(N, ts, np.random.default_rng(7))
    assert X.dtype == np.int8
    assert np.array_equal(X, _row_fill(N, ts, np.random.default_rng(7)))


@pytest.mark.parametrize("N, B, rows_per_draw", [
    (6, 50_000, 1), (65, 2_100, 1), (300, 20, 43)])
@pytest.mark.parametrize("per_diagonal", [False, True])
def test_capped_block_fill_matches_row_fill(N, B, rows_per_draw,
                                            per_diagonal):
    # where B * N * _BLOCK exceeds _DRAW_MAX one draw covers fewer rows
    # than a block: one row (the first two cases, the second across a block
    # edge) or 43, so a block of 64 takes draws of 43 and 21 rows
    assert max(1, ensembles._DRAW_MAX // (B * N)) == rows_per_draw
    test_block_fill_matches_row_fill(N, B, per_diagonal)


class _CountingRng:
    """A Generator whose `random` records the size of every call."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def random(self, size):
        self.sizes.append(int(np.prod(size)))
        return self.rng.random(size)


def test_spin_fill_draws_a_block_per_call():
    # N = 300, one matrix: one call per block of 64 rows
    rng = _CountingRng(7)
    ensembles._spin_fill(300, np.full((1, 1), 0.3), rng)
    assert len(rng.sizes) <= 5
    assert sum(rng.sizes) == 300 * 301 // 2


def test_spin_fill_draw_size_is_capped():
    # 10^5 matrices at N = 6 (the oracle's batches): one row across the
    # stack, B * N doubles, exceeds _DRAW_MAX, so it is drawn in slices of
    # the stack
    B, N = 10**5, 6
    rng = _CountingRng(7)
    ensembles._spin_fill(N, np.full((B, 1), 0.3), rng)
    assert max(rng.sizes) <= ensembles._DRAW_MAX
    assert sum(rng.sizes) == B * N * (N + 1) // 2


def test_spin_fill_holds_one_draw_at_a_time():
    # at N = 6, B = 10^5 each draw is one row of 4.8 MB; the next is made
    # after the last is freed, so the peak stays below the int8 stack and
    # 1.5 rows (the rest: the means p and the mirror's copy)
    B, N = 10**5, 6
    ts = np.full((B, 1), 0.3)
    tracemalloc.start()
    try:
        ensembles._spin_fill(N, ts, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= B * N * N + 1.5 * 8 * B * N


@pytest.mark.parametrize("kind", ["full_cw", "diagonal_cw"])
def test_threads_do_not_change_draws(kind):
    # replicas sampled by a 2-worker pool at once give the bytes of a
    # sequential loop
    cfgs = [_cfg(kind, 200, seed=5, replica_index=r) for r in range(4)]
    alone = [sample_matrix(c).entries.tobytes() for c in cfgs]
    with ThreadPoolExecutor(2) as pool:
        pooled = [X.entries.tobytes() for X in pool.map(sample_matrix, cfgs)]
    assert pooled == alone


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sampler_peak_memory(kind):
    # one draw allocates the N^2 int8 matrix and one row of temporaries at a
    # time, not a float64 per upper-triangle entry (about 12.5 N^2 bytes)
    N = 1024
    cfg = _cfg(kind, N)
    sample_matrix(cfg)  # builds and caches the mixing measure
    tracemalloc.start()
    try:
        sample_matrix(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * N**2
