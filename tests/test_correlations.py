"""Exact vs asymptotic vs Monte Carlo correlations, and the exact decision
of the approximately-uncorrelated criterion."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from cwrmt import (
    DeFinettiMeasure,
    EnsembleConfig,
    Potential,
    approx_uncorrelated,
    curie_weiss_potential,
    find_minimum,
    magnetization,
    mc_correlation,
    mc_trace_moment,
    mixing_measure,
)
from cwrmt import ensembles
from cwrmt.correlations import _traces
from cwrmt.errors import DomainError, ResourceError, UnsupportedEnsembleError


def _cw_measure(beta, scale):
    return DeFinettiMeasure(curie_weiss_potential(beta), scale)


# ---------------------------------------------------------------------------
# exact correlations
# ---------------------------------------------------------------------------

def test_exact_zeroth_order():
    assert _cw_measure(0.5, 1e3).moment(0) == 1.0


def test_exact_supercritical_pair():
    m = _cw_measure(2.0, 1e6)
    assert m.moment(2) == pytest.approx(
        magnetization(2.0) ** 2, rel=0.01)


def test_exact_subcritical_fourth_order():
    # (4-1)!! (beta/(1-beta))^2 / S^2 = 3e-8 at beta=1/2, S=1e4
    m = _cw_measure(0.5, 1e4)
    assert m.moment(4) == pytest.approx(3e-8, rel=0.10)


def test_exact_odd_orders_vanish():
    m = _cw_measure(1.5, 1e4)
    for K in (1, 3, 5):
        assert m.moment(K) == 0.0


# ---------------------------------------------------------------------------
# Monte Carlo correlations
# ---------------------------------------------------------------------------

def test_mc_iid_uncorrelated():
    cfg = EnsembleConfig(kind="iid", N=20, seed=101)
    est, se = mc_correlation(cfg, [(1, 2), (3, 4)], 5000)
    assert abs(est) <= 3 * se


def test_mc_matches_quadrature_subcritical():
    cfg = EnsembleConfig(kind="full_cw", N=100, beta=0.5, seed=103)
    est, se = mc_correlation(cfg, [(1, 2), (3, 4)], 20_000)
    exact = mixing_measure(cfg).moment(2)
    assert abs(est - exact) <= 3 * se


def test_mc_supercritical_plateau():
    cfg = EnsembleConfig(kind="full_cw", N=100, beta=1.5, seed=107)
    est, se = mc_correlation(cfg, [(1, 2), (3, 4)], 20_000)
    # finite-N latent fluctuations add O(1/N) on top of the MC error
    assert abs(est - magnetization(1.5) ** 2) <= 3 * se + 10.0 / 100


def test_mc_diagonal_ensemble_positions():
    cfg = EnsembleConfig(kind="diagonal_cw", N=50, beta=0.5, seed=109)
    est, se = mc_correlation(cfg, [(1, 2), (3, 4), (1, 3)], 2000)
    assert se >= 0
    assert abs(est) <= 3 * se + 0.1


def test_mc_duplicate_positions_rejected():
    cfg = EnsembleConfig(kind="iid", N=10, seed=113)
    with pytest.raises(DomainError):
        mc_correlation(cfg, [(1, 2), (2, 1)], 500)


@pytest.mark.parametrize("position", [(0, 1), (10, 11), (11, 2)])
def test_mc_positions_outside_the_matrix_rejected(position):
    # positions are 1-based like X_ij: 1 <= i, j <= N
    cfg = EnsembleConfig(kind="full_cw", N=10, beta=0.5, seed=113)
    with pytest.raises(DomainError,
                       match=rf"position {re.escape(str(position))} .*N=10"):
        mc_correlation(cfg, [(1, 2), position], 500)


def test_mc_replica_floor():
    cfg = EnsembleConfig(kind="iid", N=10, seed=127)
    with pytest.raises(DomainError):
        mc_correlation(cfg, [(1, 2)], 99)


def test_mc_trace_moment_rejects_diagonal():
    cfg = EnsembleConfig(kind="diagonal_cw", N=10, beta=0.5, seed=131)
    with pytest.raises(UnsupportedEnsembleError):
        mc_trace_moment(cfg, 4, 0.5, 200)


# ---------------------------------------------------------------------------
# approximately-uncorrelated criterion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,beta,alpha,holds", [
    ("full_cw", 0.5, None, True),
    ("full_cw", 1.0, None, True),
    ("full_cw", 1.1, None, False),
    ("diagonal_cw", 0.5, None, True),
    ("diagonal_cw", 0.9, None, True),
    ("diagonal_cw", 1.0, None, False),
    ("generalized", 1.0, 2.0, True),
    ("generalized", 1.0, 1.5, False),
    ("iid", None, None, True),
])
def test_approx_uncorrelated(kind, beta, alpha, holds):
    # holds iff the minimum is at 0 and the scale exponent s >= nu/2: full_cw
    # (s = 2) up to beta = 1, diagonal_cw (s = 1) below it, generalized at
    # beta = 1 (nu = 4) from alpha = 2
    cfg = EnsembleConfig(kind=kind, N=64, beta=beta, alpha=alpha)
    assert approx_uncorrelated(cfg) is holds


@pytest.mark.parametrize("alpha,holds", [(2.0, False), (3.0, True)])
def test_approx_uncorrelated_sextic(alpha, holds):
    # artanh(t)^6 = y^6 has a minimum of order nu = 6 at 0, so the bound
    # holds from alpha = nu/2 = 3
    sextic = Potential(lambda y, y0: y**6 - y0**6, label="artanh6")
    cfg = EnsembleConfig(kind="generalized", N=64, alpha=alpha,
                         potential=sextic)
    assert find_minimum(sextic).nu == 6
    assert approx_uncorrelated(cfg) is holds


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
def test_normalized_moment_slope_matches_minimum(beta, s):
    # Laplace's method: N^{l/2} m_l at scale S = N^s grows like N^{l/2} when
    # the minimum a > 0 and like N^{l(1/2 - s/nu)} when a = 0; it stays
    # bounded exactly when approx_uncorrelated holds for the kind of scale N^s
    kind = {1: "diagonal_cw", 2: "full_cw"}[s]
    holds = approx_uncorrelated(EnsembleConfig(kind=kind, N=64, beta=beta))
    pot = curie_weiss_potential(beta)
    m = find_minimum(pot)
    grid = [1e5, 1e6]
    measures = [DeFinettiMeasure(pot, N ** s) for N in grid]
    for ell in (2, 4):
        predicted = ell / 2 if m.a > 0 else ell * (0.5 - s / m.nu)
        logs = [math.log(N ** (ell / 2) * mu.moment(ell))
                for N, mu in zip(grid, measures)]
        slope = (logs[1] - logs[0]) / math.log(grid[1] / grid[0])
        assert slope == pytest.approx(predicted, abs=0.05)
        assert (predicted <= 0) is holds


# ---------------------------------------------------------------------------
# scaling exponents of the mixing-measure moments
# ---------------------------------------------------------------------------

def test_quadratic_scaling_slope_minus_one():
    scales = [1e3, 1e4, 1e5, 1e6]
    logs = [math.log(_cw_measure(0.5, S).moment(2)) for S in scales]
    slope = np.polyfit(np.log(scales), logs, 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_quartic_scaling_slope_minus_half():
    scales = [1e3, 1e4, 1e5, 1e6]
    logs = [math.log(_cw_measure(1.0, S).moment(2)) for S in scales]
    slope = np.polyfit(np.log(scales), logs, 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


@pytest.mark.parametrize("K", [2, 4, 6])
def test_laplace_ratio_on_correlation_cases(K):
    from cwrmt import find_minimum, laplace_moment_asymptotic
    pot = curie_weiss_potential(0.5)
    exp = find_minimum(pot)
    ratios = [DeFinettiMeasure(pot, S).moment(K)
              / laplace_moment_asymptotic(exp, K, S)
              for S in (1e4, 1e5, 1e6)]
    devs = [abs(r - 1.0) for r in ratios]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.02


def test_mc_trace_moment_needs_two_replicas():
    # a single replica has no standard error
    cfg = EnsembleConfig(kind="full_cw", N=4, beta=0.5, seed=137)
    with pytest.raises(DomainError, match="replicas must be >= 2, got 1"):
        mc_trace_moment(cfg, 4, 0.5, 1)


def test_mc_trace_moment_needs_a_positive_walk_length():
    cfg = EnsembleConfig(kind="full_cw", N=4, beta=0.5, seed=137)
    with pytest.raises(DomainError, match="k must be >= 1, got 0"):
        mc_trace_moment(cfg, 0, 0.5, 100)


# ---------------------------------------------------------------------------
# exact integer traces
# ---------------------------------------------------------------------------

def test_mc_trace_moment_int64_guard():
    # 39^12 > 2^63 - 1: tr X^k of a +-1 matrix could overflow int64
    cfg = EnsembleConfig("full_cw", N=39, beta=0.5)
    with pytest.raises(ResourceError, match=r"N=39, k=12"):
        mc_trace_moment(cfg, 12, 0.5, 100)


def test_traces_exact_at_the_int64_boundary():
    # 38^12 < 2^63: the all-ones matrix J has tr J^k = N^k, the largest
    # |tr X^k| of a +-1 matrix, and every partial sum stays below it; 37^12
    # is odd and above 2^53, so a float64 contraction would round it
    for N in (38, 37):
        J = np.ones((2, N, N), dtype=np.int8)
        assert _traces(J, 12).tolist() == [N**12, N**12]
    cfg = EnsembleConfig("full_cw", N=38, beta=0.5, seed=139)
    est, se = mc_trace_moment(cfg, 12, 0.5, 2)
    assert math.isfinite(est) and math.isfinite(se)


@pytest.mark.parametrize("N,k", [(98, 8), (99, 8), (38, 12)])
def test_mc_trace_moment_exact_on_the_all_ones_matrix(monkeypatch, N, k):
    # tr J^k = N^k, the largest |tr X^k| of a +-1 matrix; 98^8 <= 2^53 <
    # 99^8 < 38^12 < 2^63, so these cells straddle float64's exact range
    def ones(cfg, n, rng):
        return np.ones((n, cfg.N, cfg.N), dtype=np.int8)
    monkeypatch.setattr(ensembles, "sample_full_cw_batch", ones)
    gamma = 0.5
    cfg = EnsembleConfig("full_cw", N=N, beta=0.5, seed=151)
    assert mc_trace_moment(cfg, k, gamma, 4) == (N**k / N**(1 + k * gamma),
                                                 0.0)


@pytest.mark.parametrize("gamma", [400.0, -400.0, 1e308, math.nan])
def test_mc_trace_moment_rejects_a_scale_beyond_the_doubles(gamma):
    # float(N) ** (1 + k gamma) overflowed at 400 and rounded to 0 at -400
    # (a ZeroDivisionError); at 1e308 it was inf, so both results read 0
    cfg = EnsembleConfig("full_cw", N=4, beta=0.5, seed=1)
    named = re.escape(f"N=4, k=4, gamma={gamma:g}") + "$"
    with pytest.raises(DomainError, match=named):
        mc_trace_moment(cfg, 4, gamma, 100)


@pytest.mark.parametrize("k", range(1, 11))
def test_traces_match_eigenvalue_power_sums(k):
    rng = np.random.default_rng(k)
    for N in range(1, 7):
        U = np.triu(rng.choice(np.array([-1, 1]), size=(50, N, N)))
        X = U + np.triu(U, 1).transpose(0, 2, 1)
        lam = np.linalg.eigvalsh(X.astype(float))
        assert (_traces(X.astype(np.int8), k).tolist()
                == np.rint((lam ** k).sum(-1)).astype(np.int64).tolist())


def test_mc_trace_moment_memory_is_blocked():
    # the powers are formed a few thousand matrices at a time, not
    # for the whole 10^5-matrix batch at once
    cfg = EnsembleConfig("full_cw", N=6, beta=0.5, seed=149)
    mixing_measure(cfg)  # build the cached measure outside the window
    tracemalloc.start()
    try:
        mc_trace_moment(cfg, 10, 0.5, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6


def test_mc_trace_moment_cell_memory():
    # two oracle cells run at once, so one cell holds its 3.6 MB int8
    # stack, the latent draws, one 2 MB draw of uniforms and 256 kB
    # blocks of powers; 2 MB blocks and whole-row draws peaked at 12.8 MB
    cfg = EnsembleConfig("full_cw", N=6, beta=0.5, seed=149)
    mixing_measure(cfg)  # build the cached measure outside the window
    tracemalloc.start()
    try:
        mc_trace_moment(cfg, 10, 0.5, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
