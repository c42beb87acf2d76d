"""Closed-walk combinatorics: circuit statistics, relabeling classes, the
exact trace-moment class sum, and the simple-proper-edge bound.

`circuit_stats` (a per-walk loop) and `doubled_tree_count` (a closed form)
and `restricted_growth_strings` (a list comprehension) below are oracles
independent of the vectorised class blocks they check."""

import csv
import io
import itertools
import math
import re
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwrmt import (
    DeFinettiMeasure,
    EnsembleConfig,
    PointMass,
    curie_weiss_potential,
    enumerate_classes,
    exact_trace_moment,
    mixing_measure,
    verify_simple_edge_bound,
)
from cwrmt import circuits, ensembles
from cwrmt.circuits import class_counts, falling_factorial
from cwrmt.errors import DomainError, NumericError, ResourceError

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570,
        4213597]


@dataclass(frozen=True)
class CircuitStats:
    rho: int  # distinct vertices
    sigma_simple: int  # multiplicity-1 edges, loops included
    sigma_simple_proper: int  # multiplicity-1 non-loop edges
    multiplicities: dict  # unordered pair (v, w) with v <= w -> nu(v, w)
    odd_edge_count: int  # pairs with odd multiplicity
    loop_count: int  # distinct vertices carrying a loop


def circuit_stats(values: Sequence[int]) -> CircuitStats:
    """Edge multiplicities and derived counts of the closed walk `values`."""
    k = len(values)
    if k < 1:
        raise DomainError("index tuple must be non-empty")
    mult: Counter = Counter()
    for m in range(k):
        v, w = values[m], values[(m + 1) % k]
        mult[(v, w) if v <= w else (w, v)] += 1
    rho = len(set(values))
    sigma_simple = sum(1 for nu in mult.values() if nu == 1)
    sigma_simple_proper = sum(
        1 for (v, w), nu in mult.items() if nu == 1 and v != w)
    odd = sum(1 for nu in mult.values() if nu % 2 == 1)
    loops = sum(1 for (v, w) in mult if v == w)
    # inequality of the simple-edge bound, checked on every construction
    if rho - sigma_simple / 2 > k / 2 + 1:
        raise NumericError(
            f"simple-edge bound violated by walk {tuple(values)}: "
            f"rho={rho}, sigma_simple={sigma_simple}, k={k}")
    return CircuitStats(rho=rho, sigma_simple=sigma_simple,
                        sigma_simple_proper=sigma_simple_proper,
                        multiplicities=dict(mult), odd_edge_count=odd,
                        loop_count=loops)


def restricted_growth_strings(k: int) -> list:
    """The canonical strings of length k in lexicographic order: c_1 = 1 and
    c_m <= 1 + max(c_1, ..., c_{m-1}), one label at a time."""
    rows = [(1,)]
    for _ in range(k - 1):
        rows = [r + (c,) for r in rows for c in range(1, max(r) + 2)]
    return rows


def doubled_tree_count(k: int, N: int) -> int:
    """Number of length-k walks on {1..N} whose graph is a doubled tree
    (rho = k/2 + 1 distinct vertices, no simple edge): the Catalan number
    C_{k/2} rooted planar trees times the vertex labelings."""
    if k % 2 != 0 or k < 2:
        raise DomainError(f"k must be a positive even integer, got {k}")
    c = math.comb(k, k // 2) // (k // 2 + 1)
    return c * falling_factorial(N, k // 2 + 1)


# ---------------------------------------------------------------------------
# circuit statistics
# ---------------------------------------------------------------------------

def test_stats_hand_case_double_edges():
    st_ = circuit_stats((1, 2, 1, 3))
    assert st_.rho == 3
    assert st_.multiplicities == {(1, 2): 2, (1, 3): 2}
    assert st_.sigma_simple == 0
    assert st_.sigma_simple_proper == 0
    assert st_.odd_edge_count == 0
    assert st_.loop_count == 0


def test_stats_hand_case_double_loop():
    st_ = circuit_stats((1, 1))
    assert st_.rho == 1
    assert st_.multiplicities == {(1, 1): 2}
    assert st_.sigma_simple == 0
    assert st_.loop_count == 1
    assert st_.odd_edge_count == 0


def test_stats_hand_case_triangle():
    st_ = circuit_stats((1, 2, 3))
    assert st_.rho == 3
    assert st_.sigma_simple == 3
    assert st_.sigma_simple_proper == 3
    assert st_.odd_edge_count == 3


def test_stats_loop_simple_counting():
    # a multiplicity-1 loop counts as simple but not simple-proper
    st_ = circuit_stats((1, 1, 2))
    assert st_.multiplicities == {(1, 1): 1, (1, 2): 2}
    assert st_.sigma_simple == 1
    assert st_.sigma_simple_proper == 0
    assert st_.loop_count == 1
    assert st_.odd_edge_count == 1


def test_stats_empty_rejected():
    with pytest.raises(DomainError):
        circuit_stats(())


@given(st.lists(st.integers(1, 6), min_size=1, max_size=10))
@settings(max_examples=200)
def test_stats_invariants_random_tuples(values):
    k = len(values)
    st_ = circuit_stats(tuple(values))
    assert sum(st_.multiplicities.values()) == k
    assert st_.rho <= min(k, 6)
    assert st_.sigma_simple <= k
    assert st_.sigma_simple_proper <= st_.sigma_simple
    assert st_.odd_edge_count % 2 == k % 2
    # vertex/simple-edge bound, also asserted inside the constructor
    assert st_.rho - st_.sigma_simple / 2 <= k / 2 + 1


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------

def test_classes_k1_k2_k3():
    assert [c.canonical for c in enumerate_classes(1)] == [(1,)]
    assert sorted(c.canonical for c in enumerate_classes(2)) == \
        [(1, 1), (1, 2)]
    assert sorted(c.canonical for c in enumerate_classes(3)) == \
        [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]


@pytest.mark.parametrize("k", range(1, 9))
def test_class_counts_are_bell_numbers(k):
    assert len(enumerate_classes(k)) == BELL[k]


@pytest.mark.parametrize("k", range(1, 9))
def test_partition_identity(k):
    # classes partition {1..N}^k, so falling-factorial sizes sum to N^k
    classes = enumerate_classes(k)
    for N in range(1, k + 1):
        assert sum(falling_factorial(N, c.rho) for c in classes) == N**k


def test_classes_match_exhaustive_enumeration():
    # independent oracle: canonicalize every raw tuple of {1..4}^4
    def canon(tup):
        seen, out = {}, []
        for v in tup:
            seen.setdefault(v, len(seen) + 1)
            out.append(seen[v])
        return tuple(out)

    raw = Counter(canon(t) for t in itertools.product(range(1, 5), repeat=4))
    classes = {c.canonical: c for c in enumerate_classes(4)}
    assert set(raw) == set(classes)
    for canonical, count in raw.items():
        assert falling_factorial(4, classes[canonical].rho) == count


def test_canonical_first_occurrence_order():
    for c in enumerate_classes(5):
        seq = c.canonical
        assert seq[0] == 1
        for m in range(1, len(seq)):
            assert seq[m] <= max(seq[:m]) + 1


def test_enumeration_guards():
    with pytest.raises(DomainError):
        enumerate_classes(0)
    with pytest.raises(ResourceError):
        enumerate_classes(13)


@pytest.mark.parametrize("k", range(1, 11))
def test_csv_chunks_match_csv_writer(k, monkeypatch):
    # the oracle: csv.writer over rows built one class at a time; 7-row
    # blocks split inside every k with Bell(k) > 7, and 700-row blocks keep
    # k = 9 and 10 to a few hundred blocks
    rows = 7 if k < 9 else 700
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    for c in enumerate_classes(k):
        w.writerow([k, "-".join(str(v) for v in c.canonical), c.rho,
                    c.sigma_simple, c.sigma_simple_proper, c.odd_edge_count])
    monkeypatch.setattr(circuits, "_CHUNK_ROWS", rows)
    chunks = [circuits._csv_bytes(k, walks, cols)
              for walks, cols in circuits._class_blocks(k)]
    assert b"".join(chunks) == buf.getvalue().encode()
    assert 1 <= min(chunk.count(b"\r\n") for chunk in chunks)
    assert max(chunk.count(b"\r\n") for chunk in chunks) <= rows
    # only the last block of each prefix's completions may be short
    least = -(-BELL[k] // rows)
    assert least <= len(chunks) <= least + BELL[max(k - circuits._TAIL, 0)] - 1


# ---------------------------------------------------------------------------
# class blocks and count tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 10))
def test_table_columns_match_circuit_stats(k, monkeypatch):
    # 100-row blocks slice the completion tables of every k >= 6
    monkeypatch.setattr(circuits, "_CHUNK_ROWS", 100)
    rows = []
    for walks, cols in circuits._class_blocks(k):
        assert len(walks) <= 100
        rows += zip(map(tuple, walks.tolist()), *(c.tolist() for c in cols))
    assert [row[0] for row in rows] == restricted_growth_strings(k)
    for canonical, *got in rows:
        st_ = circuit_stats(canonical)
        k_proper = sum(nu for (v, w), nu in st_.multiplicities.items()
                       if v != w)
        assert got == [st_.rho, st_.sigma_simple, st_.sigma_simple_proper,
                       st_.odd_edge_count, k_proper]


@pytest.mark.parametrize("k", range(1, 13))
def test_table_counts_bell_and_partition_identity(k):
    # reads only the (rho, odd) count matrix: no class objects at k = 11, 12
    counts = class_counts(k)
    assert int(counts.sum()) == BELL[k]
    by_rho = counts.sum(axis=1).tolist()
    for N in range(1, k + 1):
        assert sum(c * falling_factorial(N, rho)
                   for rho, c in enumerate(by_rho)) == N**k


def test_table_is_cached_and_read_only():
    counts = class_counts(6)
    assert class_counts(6) is counts
    with pytest.raises(ValueError):
        counts[0, 0] = 0


def test_fresh_table_is_built_once_across_threads(monkeypatch):
    # the oracle's pool runs two cells of one k at once; the second thread
    # waits for the first one's count table instead of enumerating again
    real, calls = circuits._class_blocks, []

    def slow(k):
        calls.append(k)
        time.sleep(0.05)  # the other thread asks meanwhile
        return real(k)

    monkeypatch.setattr(circuits, "_class_blocks", slow)
    monkeypatch.setattr(circuits, "class_counts", ensembles._cached_once(
        circuits.class_counts.__wrapped__))  # an empty cache
    both = threading.Barrier(2)

    def ask(k):
        both.wait()
        return circuits.class_counts(k)

    with ThreadPoolExecutor(2) as pool:
        first, second = pool.map(ask, [7, 7])
    assert calls == [7]
    assert first is second


def test_table_build_memory_is_bounded():
    # the counts are summed over streamed blocks; a cached table of every
    # class, built through fan arrays of all Bell(k) rows, peaked at 19 MB
    tracemalloc.start()
    try:
        circuits.class_counts.__wrapped__(11)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# exact_trace_moment(full_cw beta=0.5 measure, N, k, 0.5) before the class
# table replaced per-class float summation
ORACLE_CELLS_BEFORE = {
    (4, 2): 1.0, (4, 4): 1.7839533228963267, (5, 4): 1.8216040258474187,
    (6, 6): 4.2331510618876855, (4, 8): 9.696250262147876,
    (6, 8): 11.05885406568049, (4, 10): 26.61519455883256,
    (6, 10): 31.840067229832034}


@pytest.mark.parametrize("N,k", sorted(ORACLE_CELLS_BEFORE))
def test_exact_moment_matches_fraction_sum(N, k):
    m = mixing_measure(EnsembleConfig(kind="full_cw", N=N, beta=0.5))
    tuples = Counter()
    for c in enumerate_classes(k):
        tuples[c.odd_edge_count] += falling_factorial(N, c.rho)
    exact = sum(n * Fraction(m.moment(odd))
                for odd, n in tuples.items()) / N ** (1 + k // 2)
    got = exact_trace_moment(m, N, k, 0.5)
    assert abs(Fraction(got) - exact) <= Fraction(1, 10**15) * abs(exact)
    before = ORACLE_CELLS_BEFORE[(N, k)]
    assert got == pytest.approx(before, rel=1e-12, abs=0)


def test_exact_moment_large_N_catalan():
    # N^k = 1e72: exact integer class sizes, no overflow or guard on N
    assert exact_trace_moment(PointMass(0.0), 10**6, 12, 0.5) == \
        pytest.approx(132.0, abs=1e-3)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -math.inf])
def test_exact_moment_rejects_non_finite_gamma(gamma):
    with pytest.raises(DomainError):
        exact_trace_moment(PointMass(0.0), 4, 2, gamma)


@pytest.mark.parametrize("gamma", [400.0, -400.0, 1e308, -1e308])
def test_exact_moment_rejects_a_scale_beyond_the_doubles(gamma):
    # N^(k - 1 - k gamma) overflowed at -400 and rounded to 0 at 400
    named = re.escape(f"N=4, k=4, gamma={gamma:g}") + "$"
    with pytest.raises(DomainError, match=named):
        exact_trace_moment(PointMass(0.0), 4, 4, gamma)


# ---------------------------------------------------------------------------
# vertex bound equality characterization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 9))
def test_vertex_bound_equality_iff_doubled_tree(k):
    for c in enumerate_classes(k):
        lhs = c.rho - c.sigma_simple / 2
        assert lhs <= k / 2 + 1
        is_equal = lhs == k / 2 + 1
        is_doubled_tree = (c.rho == k // 2 + 1 and c.sigma_simple == 0
                           and k % 2 == 0)
        assert is_equal == is_doubled_tree


@pytest.mark.parametrize("run_pass", [
    lambda: circuits.class_counts.__wrapped__(3),  # uncached
    lambda: enumerate_classes(3),
    lambda: verify_simple_edge_bound(3),
    lambda: list(circuits._checked_blocks(3)[1]),  # graphcheck's pass
], ids=["counts", "enumerate", "verify", "graphcheck"])
def test_every_pass_checks_the_vertex_bound(monkeypatch, run_pass):
    # with no simple edge counted, the triangle (1, 2, 3) has
    # rho = 3 > k/2 + 1 = 2.5, and every pass over the blocks stops there
    real = circuits._edge_columns
    monkeypatch.setattr(circuits, "_edge_columns", lambda walks: (
        np.zeros(len(walks), dtype=np.int8), *real(walks)[1:]))
    with pytest.raises(NumericError, match=r"walk \(1, 2, 3\): rho=3"):
        run_pass()


# ---------------------------------------------------------------------------
# exact trace moments
# ---------------------------------------------------------------------------

def test_iid_second_moment_exact():
    for N in (1, 3, 10, 100):
        assert exact_trace_moment(PointMass(0.0), N, 2, 0.5) == \
            pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_iid_odd_moments_vanish(k):
    assert exact_trace_moment(PointMass(0.0), 6, k, 0.5) == 0.0


def test_odd_moments_vanish_for_even_potential():
    m = DeFinettiMeasure(curie_weiss_potential(0.5), 25.0)
    assert exact_trace_moment(m, 5, 3, 0.5) == 0.0


def test_matches_raw_tuple_enumeration():
    # independent oracle: brute-force sum over all raw index tuples
    m = DeFinettiMeasure(curie_weiss_potential(0.5), 9.0)
    for N, k in [(3, 4), (4, 3), (4, 4), (3, 6)]:
        total = 0.0
        for tup in itertools.product(range(1, N + 1), repeat=k):
            total += m.moment(circuit_stats(tup).odd_edge_count)
        expected = total / N ** (1.0 + 0.5 * k)
        assert exact_trace_moment(m, N, k, 0.5) == \
            pytest.approx(expected, rel=1e-12)


def test_matches_monte_carlo():
    from cwrmt.correlations import mc_trace_moment
    cfg = EnsembleConfig(kind="full_cw", N=5, beta=0.5, seed=97)
    m = mixing_measure(cfg)
    exact = exact_trace_moment(m, 5, 4, 0.5)
    est, se = mc_trace_moment(cfg, 4, 0.5, 20_000)
    assert abs(exact - est) <= 3 * se


def test_catalan_limit_iid():
    vals = [exact_trace_moment(PointMass(0.0), N, 4, 0.5)
            for N in (4, 8, 16, 32, 64)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - 2.0) < 0.1


def test_supercritical_growth_and_decay():
    grow = []
    shrink = []
    for N in range(4, 11):
        mN = DeFinettiMeasure(curie_weiss_potential(1.5), float(N) ** 2)
        grow.append(exact_trace_moment(mN, N, 4, 0.5))
        shrink.append(exact_trace_moment(mN, N, 4, 1.0))
    assert all(a < b for a, b in zip(grow, grow[1:]))
    assert all(a > b for a, b in zip(shrink, shrink[1:]))


def test_resource_guards():
    with pytest.raises(ResourceError):
        exact_trace_moment(PointMass(0.0), 1000, 13, 0.5)
    with pytest.raises(DomainError):
        exact_trace_moment(PointMass(0.0), 0, 2, 0.5)


def test_paired_circuit_exact_check_k2():
    # for k=2 the trace is deterministic: every pair of length-2 circuits
    # traverses each unordered position an even number of times, so the
    # paired expectation E[((1/N) tr A^2)^2] is exactly 1
    m = DeFinettiMeasure(curie_weiss_potential(0.5), 16.0)
    for N in (2, 3, 4):
        total = 0.0
        for ci in itertools.product(range(1, N + 1), repeat=2):
            for cj in itertools.product(range(1, N + 1), repeat=2):
                mult = Counter()
                for tup in (ci, cj):
                    for a in range(2):
                        v, w = tup[a], tup[(a + 1) % 2]
                        mult[(v, w) if v <= w else (w, v)] += 1
                odd = sum(1 for nu in mult.values() if nu % 2 == 1)
                total += m.moment(odd)
        assert total / N**4 == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# simple-proper-edge bound
# ---------------------------------------------------------------------------

def test_triangle_hand_case():
    st_ = circuit_stats((1, 2, 3))
    k_proper = sum(nu for (v, w), nu in st_.multiplicities.items() if v != w)
    t = 1
    assert st_.rho > k_proper / 2 + t
    assert st_.sigma_simple_proper >= 2 * t + 1


@pytest.mark.parametrize("k_max", [4, 6, 8])
def test_simple_edge_bound_no_violations(k_max):
    report = verify_simple_edge_bound(k_max)
    assert report["violations"] == []
    assert report["classes_checked"] == sum(BELL[1:k_max + 1])


def test_simple_edge_bound_guard():
    with pytest.raises(ResourceError):
        verify_simple_edge_bound(13)


def test_simple_edge_bound_reports_each_violated_t(monkeypatch):
    # with every simple proper edge removed from the blocks, the bound fails
    # for exactly the (class, t) pairs the per-t loop of the theorem admits
    real = circuits._class_blocks

    def stripped(k):
        for walks, (rho, simple, sp, odd, k_proper) in real(k):
            yield walks, (rho, simple, np.zeros_like(sp), odd, k_proper)

    monkeypatch.setattr(circuits, "_class_blocks", stripped)
    expected = []
    for k in range(1, 7):
        for c in enumerate_classes(k):
            st_ = circuit_stats(c.canonical)
            k_proper = sum(nu for (v, w), nu in st_.multiplicities.items()
                           if v != w)
            t = 1
            while st_.rho > k_proper / 2 + t:
                expected.append({"k": k, "canonical": c.canonical, "t": t,
                                 "rho": st_.rho, "k_proper": k_proper,
                                 "sigma_simple_proper": 0})
                t += 1
    assert expected
    assert verify_simple_edge_bound(6)["violations"] == expected


def test_simple_edge_bound_reports_the_boundary_t(monkeypatch):
    # with exactly 2t simple proper edges at the largest admitted t, each
    # such class violates the bound at that t only
    real = circuits._class_blocks

    def at_boundary(k):
        for walks, (rho, simple, sp, odd, k_proper) in real(k):
            t_top = (2 * rho - k_proper - 1) // 2
            yield walks, (rho, simple, np.where(t_top >= 1, 2 * t_top, sp),
                          odd, k_proper)

    monkeypatch.setattr(circuits, "_class_blocks", at_boundary)
    violations = verify_simple_edge_bound(6)["violations"]
    assert violations
    for v in violations:
        assert v["sigma_simple_proper"] == 2 * v["t"]
        assert 2 * v["rho"] - v["k_proper"] - 1 in (2 * v["t"], 2 * v["t"] + 1)


def test_simple_edge_bound_memory_is_bounded():
    # the check reads int8 block columns in place; widening rho and t_top
    # to intp for every class of a cached table peaked near 17 MB at k = 11
    tracemalloc.start()
    try:
        verify_simple_edge_bound(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize("k_max", [0, -1])
def test_simple_edge_bound_rejects_vacuous_k_max(k_max):
    with pytest.raises(DomainError):
        verify_simple_edge_bound(k_max)


# ---------------------------------------------------------------------------
# doubled trees
# ---------------------------------------------------------------------------

def test_doubled_tree_counts():
    assert doubled_tree_count(2, 2) == 2
    assert doubled_tree_count(4, 3) == 12
    assert doubled_tree_count(2, 1) == 0
    with pytest.raises(DomainError):
        doubled_tree_count(3, 5)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_doubled_tree_count_matches_class_enumeration(k):
    N = k
    expected = sum(falling_factorial(N, c.rho) for c in enumerate_classes(k)
                   if c.rho == k // 2 + 1 and c.sigma_simple == 0)
    assert doubled_tree_count(k, N) == expected
