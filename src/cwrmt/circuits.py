"""Combinatorics of closed index walks (Eulerian circuits) for the moment
method.

An index tuple (i_1, ..., i_k) traverses the edges {i_m, i_{m+1}} with
wraparound i_{k+1} = i_1.  Tuples are grouped into equivalence classes by
first-occurrence relabeling; weighting each class by a falling factorial of N
turns class enumeration into an exact expectation of (1/N) tr (X/N^gamma)^k
for any ensemble whose entries are conditionally iid spins given one latent t.
All classes of one walk length k live in one cached integer table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .ensembles import _cached_once
from .errors import DomainError, NumericError, ResourceError

__all__ = [
    "CircuitClass",
    "ClassTable",
    "class_table",
    "enumerate_classes",
    "exact_trace_moment",
    "verify_simple_edge_bound",
    "falling_factorial",
]

K_MAX = 12  # Bell(12) = 4213597 classes; the class-table guard
_CHUNK_ROWS = 1 << 14  # walks per block of the edge statistics


falling_factorial = math.perm  # N (N-1) ... (N-r+1); zero when r > N


@dataclass(frozen=True)
class CircuitClass:
    """Canonical representative of one relabeling class: labels 1, 2, ...
    appear in first-use order."""

    canonical: tuple
    rho: int
    sigma_simple: int
    sigma_simple_proper: int
    odd_edge_count: int


@dataclass(frozen=True)
class ClassTable:
    """Every relabeling class of length-k walks, one row per class in
    lexicographic order of the canonical strings.  All arrays are read-only:
    `canonical` has shape (Bell(k), k), the columns shape (Bell(k),), and
    `counts[rho, odd]` is the number of classes with those two values."""

    canonical: np.ndarray
    rho: np.ndarray
    sigma_simple: np.ndarray
    sigma_simple_proper: np.ndarray
    odd_edge_count: np.ndarray
    k_proper: np.ndarray  # steps between distinct vertices
    counts: np.ndarray


def _check_walk_length(k: int, name: str = "k") -> None:
    if k < 1:
        raise DomainError(f"{name} must be >= 1, got {k}")
    if k > K_MAX:
        raise ResourceError(
            f"{name}={k} exceeds the class-table guard ({K_MAX}; "
            f"Bell({K_MAX}) = 4213597 classes)")


def _restricted_growth_strings(k: int) -> np.ndarray:
    """All length-k sequences with c_1 = 1 and c_m <= 1 + max(previous), in
    lexicographic order, as a (Bell(k), k) int8 array."""
    rows = np.ones((1, 1), dtype=np.int8)
    top = np.ones(1, dtype=np.int8)  # running maximum of each row
    for _ in range(1, k):
        # a prefix whose maximum is c has c + 1 children
        fan = top.astype(np.intp) + 1
        first = np.cumsum(fan) - fan
        last = (np.arange(fan.sum()) - np.repeat(first, fan) + 1).astype(
            np.int8)
        rows = np.column_stack([np.repeat(rows, fan, axis=0), last])
        top = np.maximum(np.repeat(top, fan), last)
    return rows


def _edge_columns(walks: np.ndarray) -> tuple:
    """(sigma_simple, sigma_simple_proper, odd_edge_count, k_proper) of each
    row of `walks`, from the sorted edge codes min*(k+2)+max of the row."""
    k = walks.shape[1]
    a = walks.astype(np.int16)
    b = np.roll(a, -1, axis=1)
    edges = np.sort(np.minimum(a, b) * (k + 2) + np.maximum(a, b), axis=1)
    starts = np.ones(edges.shape, dtype=bool)
    starts[:, 1:] = edges[:, 1:] != edges[:, :-1]
    ends = np.ones(edges.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    pos = np.arange(k, dtype=np.int8)
    # offset of each step within its run of equal edges; at a run's end it
    # is the edge's multiplicity minus one
    offset = pos - np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    simple = ends & (offset == 0)
    proper = edges // (k + 2) != edges % (k + 2)
    return tuple(col.sum(axis=1, dtype=np.int8) for col in (
        simple, simple & proper, ends & (offset % 2 == 0), proper))


@_cached_once
def class_table(k: int) -> ClassTable:
    """The cached class table of walk length k (1 <= k <= K_MAX), built
    once when pool threads ask for it at the same time.

    Classes partition the tuples of every ambient size N, with class sizes
    N (N-1) ... (N-rho+1) summing to N^k.
    """
    _check_walk_length(k)
    canonical = _restricted_growth_strings(k)
    blocks = [_edge_columns(canonical[i:i + _CHUNK_ROWS])
              for i in range(0, len(canonical), _CHUNK_ROWS)]
    simple, simple_proper, odd, k_proper = map(np.concatenate, zip(*blocks))
    rho = canonical.max(axis=1)
    bad = np.flatnonzero(2 * rho - simple > k + 2)
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"simple-edge bound violated by walk "
            f"{tuple(canonical[i].tolist())}: rho={rho[i]}, "
            f"sigma_simple={simple[i]}, k={k}")
    counts = np.bincount(rho.astype(np.intp) * (k + 1) + odd,
                         minlength=(k + 1) ** 2).reshape(k + 1, k + 1)
    arrays = dict(canonical=canonical, rho=rho, sigma_simple=simple,
                  sigma_simple_proper=simple_proper, odd_edge_count=odd,
                  k_proper=k_proper, counts=counts)
    for arr in arrays.values():
        arr.flags.writeable = False
    return ClassTable(**arrays)


def enumerate_classes(k: int) -> list[CircuitClass]:
    """One canonical representative per relabeling class of length-k walks,
    read from the class table."""
    t = class_table(k)
    return [CircuitClass(tuple(c), *cols) for c, *cols in zip(
        t.canonical.tolist(), t.rho.tolist(), t.sigma_simple.tolist(),
        t.sigma_simple_proper.tolist(), t.odd_edge_count.tolist())]


def exact_trace_moment(m, N: int, k: int, gamma: float) -> float:
    """Exact E[(1/N) tr (X_N / N^gamma)^k] for an ensemble whose entries are
    conditionally iid spins given a single latent t with mixing measure `m`.

    Because the entries are +-1, each walk contributes t^(odd multiplicity
    count) conditionally, so the expectation is a moment of the mixing
    measure.  `m` needs only a .moment(K) method (DeFinettiMeasure or
    PointMass); the diagonal ensemble has no shared t and is not supported.
    The class sizes are summed as exact integers and the moments as exact
    fractions, so only the final scaling rounds.
    """
    if N < 1 or k < 1:
        raise DomainError("N and k must be positive")
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma}")
    counts = class_table(k).counts.T.tolist()  # [odd][rho]
    total = Fraction(0)
    for odd, by_rho in enumerate(counts):
        if any(by_rho):
            tuples = sum(c * falling_factorial(N, rho)
                         for rho, c in enumerate(by_rho) if c)
            total += tuples * Fraction(m.moment(odd))
    # the walks number N^k, so total / N^k is a moment average in [-1, 1]
    return float(total / N ** k) * N ** (k - 1 - k * gamma)


def verify_simple_edge_bound(k_max: int) -> dict:
    """Exhaustively check, over all circuit classes with k <= k_max, that a
    class whose loop-deleted graph satisfies rho > k_proper/2 + t has at
    least 2t+1 simple proper edges.  Returns a report dict; violations is
    empty when the bound holds."""
    _check_walk_length(k_max, "k_max")
    checked = 0
    violations = []
    for k in range(1, k_max + 1):
        table = class_table(k)
        rho = table.rho
        # the largest t the hypothesis admits is the hardest for the bound
        t_top = (2 * rho - table.k_proper - 1) // 2
        sp = table.sigma_simple_proper
        flagged = np.flatnonzero((t_top >= 1) & (sp <= 2 * t_top))
        for i in flagged.tolist():
            violations.extend(
                {"k": k, "canonical": tuple(table.canonical[i].tolist()),
                 "t": t, "rho": int(rho[i]),
                 "k_proper": int(table.k_proper[i]),
                 "sigma_simple_proper": int(sp[i])}
                for t in range(1, int(t_top[i]) + 1) if sp[i] < 2 * t + 1)
        checked += len(rho)
    return {"k_max": k_max, "classes_checked": checked,
            "violations": violations}


def classes_csv_chunks(k: int) -> Iterator[bytes]:
    """The classes of walk length k as CSV rows (k, canonical labels joined
    by '-', rho, sigma_simple, sigma_simple_proper, odd_edge_count) with
    csv.writer's CRLF line ends, in chunks of at most _CHUNK_ROWS rows."""
    t = class_table(k)
    # every value is 0..K_MAX: its NUL-padded decimal digits, then its
    # separator; the NULs are dropped once a chunk is laid out
    digits = np.array([b"%d" % v for v in range(K_MAX + 1)], dtype="S2")
    digits = digits.view(np.uint8).reshape(-1, 2)
    seps = np.frombuffer(b"," + b"-" * (k - 1) + b",,,,\r", dtype=np.uint8)
    for i in range(0, len(t.rho), _CHUNK_ROWS):
        part = slice(i, i + _CHUNK_ROWS)
        vals = np.column_stack([
            np.full(len(t.rho[part]), k, dtype=np.int8), t.canonical[part],
            t.rho[part], t.sigma_simple[part], t.sigma_simple_proper[part],
            t.odd_edge_count[part]])
        cells = np.empty(vals.shape + (3,), dtype=np.uint8)
        cells[..., :2] = digits[vals]
        cells[..., 2] = seps
        lines = np.column_stack([cells.reshape(len(vals), -1),
                                 np.full(len(vals), ord("\n"), np.uint8)])
        yield lines.tobytes().replace(b"\0", b"")
