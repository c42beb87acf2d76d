"""Combinatorics of closed index walks (Eulerian circuits) for the moment
method.

An index tuple (i_1, ..., i_k) traverses the edges {i_m, i_{m+1}} with
wraparound i_{k+1} = i_1.  Tuples are grouped into equivalence classes by
first-occurrence relabeling; weighting each class by a falling factorial of N
turns class enumeration into an exact expectation of (1/N) tr (X/N^gamma)^k
for any ensemble whose entries are conditionally iid spins given one latent t.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DomainError, NumericError, ResourceError

__all__ = [
    "CircuitStats",
    "CircuitClass",
    "circuit_stats",
    "enumerate_classes",
    "exact_trace_moment",
    "verify_simple_edge_bound",
    "doubled_tree_count",
    "falling_factorial",
]

K_MAX = 10  # Bell(10) = 115975 classes; the enumeration guard


def falling_factorial(N: int, r: int) -> int:
    """N (N-1) ... (N-r+1); zero when r > N."""
    out = 1
    for j in range(r):
        out *= N - j
        if out == 0:
            return 0
    return out


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


@dataclass(frozen=True)
class CircuitClass:
    """Canonical representative of one relabeling class: labels 1, 2, ...
    appear in first-use order."""

    canonical: tuple
    rho: int
    sigma_simple: int
    sigma_simple_proper: int
    odd_edge_count: int

    def count_at(self, N: int) -> int:
        """Number of tuples in {1..N}^k belonging to this class."""
        return falling_factorial(N, self.rho)


def _restricted_growth_strings(k: int) -> Iterator[tuple]:
    """All length-k sequences with c_1 = 1 and c_m <= 1 + max(previous)."""
    seq = [1] * k

    def rec(m: int, mx: int):
        if m == k:
            yield tuple(seq)
            return
        for c in range(1, mx + 2):
            seq[m] = c
            yield from rec(m + 1, max(mx, c))

    yield from rec(1, 1) if k > 1 else iter([(1,)])


def enumerate_classes(k: int) -> list[CircuitClass]:
    """One canonical representative per relabeling class of length-k walks.

    Classes partition the tuples of every ambient size N, with class sizes
    N (N-1) ... (N-rho+1) summing to N^k.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > K_MAX:
        raise ResourceError(
            f"k={k} exceeds the class-enumeration guard ({K_MAX})")
    out = []
    for canon in _restricted_growth_strings(k):
        st = circuit_stats(canon)
        out.append(CircuitClass(
            canonical=canon, rho=st.rho, sigma_simple=st.sigma_simple,
            sigma_simple_proper=st.sigma_simple_proper,
            odd_edge_count=st.odd_edge_count))
    return out


def exact_trace_moment(m, N: int, k: int, gamma: float) -> float:
    """Exact E[(1/N) tr (X_N / N^gamma)^k] for an ensemble whose entries are
    conditionally iid spins given a single latent t with mixing measure `m`.

    Because the entries are +-1, each walk contributes t^(odd multiplicity
    count) conditionally, so the expectation is a moment of the mixing
    measure.  `m` needs only a .moment(K) method (DeFinettiMeasure or
    PointMass); the diagonal ensemble has no shared t and is not supported.
    """
    if N < 1 or k < 1:
        raise DomainError("N and k must be positive")
    if k * math.log(max(N, 2)) > math.log(1e8):
        raise ResourceError(f"N^k = {N}^{k} exceeds the enumeration guard 1e8")
    moments: dict[int, float] = {}
    total = 0.0
    for cls in enumerate_classes(k):
        odd = cls.odd_edge_count
        if odd not in moments:
            moments[odd] = m.moment(odd)
        total += cls.count_at(N) * moments[odd]
    return total / N ** (1.0 + k * gamma)


def verify_simple_edge_bound(k_max: int) -> dict:
    """Exhaustively check, over all circuit classes with k <= k_max, that a
    class whose loop-deleted graph satisfies rho > k_proper/2 + t has at
    least 2t+1 simple proper edges.  Returns a report dict; violations is
    empty when the bound holds."""
    if k_max > K_MAX:
        raise ResourceError(
            f"k_max={k_max} exceeds the class-enumeration guard ({K_MAX})")
    checked = 0
    violations = []
    for k in range(1, k_max + 1):
        for cls in enumerate_classes(k):
            st = circuit_stats(cls.canonical)
            k_proper = sum(nu for (v, w), nu in st.multiplicities.items()
                           if v != w)
            checked += 1
            t = 1
            while st.rho > k_proper / 2 + t:
                if not st.sigma_simple_proper >= 2 * t + 1:
                    violations.append({
                        "k": k, "canonical": cls.canonical, "t": t,
                        "rho": st.rho, "k_proper": k_proper,
                        "sigma_simple_proper": st.sigma_simple_proper})
                t += 1
    return {"k_max": k_max, "classes_checked": checked,
            "violations": violations}


def doubled_tree_count(k: int, N: int) -> int:
    """Number of length-k walks on {1..N} whose graph is a doubled tree
    (rho = k/2 + 1 distinct vertices, no simple edge): the Catalan number
    C_{k/2} rooted planar trees times the vertex labelings."""
    if k % 2 != 0 or k < 2:
        raise DomainError(f"k must be a positive even integer, got {k}")
    c = math.comb(k, k // 2) // (k // 2 + 1)
    return c * falling_factorial(N, k // 2 + 1)


def classes_csv_rows(k: int) -> Iterator[tuple]:
    """(k, canonical, rho, sigma_simple, sigma_simple_proper, odd_edge_count)
    rows for the class-table CSV."""
    for cls in enumerate_classes(k):
        yield (k, "-".join(map(str, cls.canonical)), cls.rho,
               cls.sigma_simple, cls.sigma_simple_proper, cls.odd_edge_count)
