"""Combinatorics of closed index walks (Eulerian circuits) for the moment
method.

An index tuple (i_1, ..., i_k) traverses the edges {i_m, i_{m+1}} with
wraparound i_{k+1} = i_1.  Tuples are grouped into equivalence classes by
first-occurrence relabeling; weighting each class by a falling factorial of N
turns class enumeration into an exact expectation of (1/N) tr (X/N^gamma)^k
for any ensemble whose entries are conditionally iid spins given one latent t.
The classes of one walk length k are streamed in blocks of canonical
strings; only their (rho, odd) count table is cached.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .definetti import _cached_once
from .errors import DomainError, NumericError, ResourceError

__all__ = [
    "CircuitClass",
    "class_counts",
    "enumerate_classes",
    "exact_trace_moment",
    "verify_simple_edge_bound",
    "falling_factorial",
]

K_MAX = 12  # Bell(12) = 4213597 classes; the class-enumeration guard
_CHUNK_ROWS = 1 << 14  # most walks per class block
_TAIL = 6  # labels per completion table of a class block's prefix


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


def _check_walk_length(k: int, name: str = "k") -> None:
    if k < 1:
        raise DomainError(f"{name} must be >= 1, got {k}")
    if k > K_MAX:
        raise ResourceError(
            f"{name}={k} exceeds the class-enumeration guard ({K_MAX}; "
            f"Bell({K_MAX}) = 4213597 classes)")


def _growth_strings(n: int, top: int = 0) -> tuple:
    """Continuations c_1..c_n, c_m <= 1 + the largest label so far, of a
    prefix whose largest label is `top`, in lexicographic order, as an int8
    array, with each row's largest label; top = 0 gives canonical strings."""
    rows = np.empty((1, 0), dtype=np.int8)
    tops = np.full(1, top, dtype=np.int8)
    for _ in range(n):
        # a row whose largest label is c has c + 1 children
        fan = tops.astype(np.intp) + 1
        first = np.cumsum(fan) - fan
        last = (np.arange(fan.sum()) - np.repeat(first, fan) + 1).astype(
            np.int8)
        rows = np.column_stack([np.repeat(rows, fan, axis=0), last])
        tops = np.maximum(np.repeat(tops, fan), last)
    return rows, tops


def _edge_columns(walks: np.ndarray) -> tuple:
    """(sigma_simple, sigma_simple_proper, odd_edge_count, k_proper) of each
    row of `walks`, from the sorted edge codes min*(k+2)+max of the row."""
    k = walks.shape[1]
    a = walks.astype(np.int16)
    b = np.roll(a, -1, axis=1)
    edges = np.sort(np.minimum(a, b) * (k + 2) + np.maximum(a, b), axis=1)
    edges = edges.T.copy()  # row m: each walk's m-th edge, a contiguous run
    starts = np.ones(edges.shape, dtype=bool)
    starts[1:] = edges[1:] != edges[:-1]
    ends = np.ones(edges.shape, dtype=bool)
    ends[:-1] = starts[1:]
    pos = np.arange(k, dtype=np.int8)[:, None]
    # offset of each step within its run of equal edges; at a run's end it
    # is the edge's multiplicity minus one
    offset = pos - np.maximum.accumulate(starts * pos, axis=0)
    simple = ends & (offset == 0)
    proper = edges // (k + 2) != edges % (k + 2)
    return tuple(col.sum(axis=0, dtype=np.int8) for col in (
        simple, simple & proper, ends & (offset % 2 == 0), proper))


def _class_blocks(k: int) -> Iterator[tuple]:
    """(walks, (rho, sigma_simple, sigma_simple_proper, odd_edge_count,
    k_proper)) of the classes of length-k walks in lexicographic order: each
    prefix of k - _TAIL labels joined to the completions of its top label,
    at most _CHUNK_ROWS per block, each block checked on the vertex bound."""
    _check_walk_length(k)
    prefixes, tops = _growth_strings(max(k - _TAIL, 0))
    tails = {top: _growth_strings(k - prefixes.shape[1], top)
             for top in set(tops.tolist())}
    for prefix, top in zip(prefixes, tops.tolist()):
        rows, row_tops = tails[top]
        for i in range(0, len(rows), _CHUNK_ROWS):
            tail, rho = rows[i:i + _CHUNK_ROWS], row_tops[i:i + _CHUNK_ROWS]
            walks = np.hstack([np.tile(prefix, (len(tail), 1)), tail])
            cols = (rho, *_edge_columns(walks))
            j = np.argmax(2 * rho - cols[1])  # the block's worst walk
            if 2 * rho[j] - cols[1][j] > k + 2:
                raise NumericError(
                    f"simple-edge bound violated by walk "
                    f"{tuple(walks[j].tolist())}: rho={rho[j]}, "
                    f"sigma_simple={cols[1][j]}, k={k}")
            yield walks, cols


@_cached_once
def class_counts(k: int) -> np.ndarray:
    """The cached, read-only table whose entry [rho, odd] counts the classes
    of length-k walks (1 <= k <= K_MAX) with rho vertices and odd edges of
    odd multiplicity, built once when pool threads ask at the same time.
    Class sizes N (N-1) ... (N-rho+1) sum to N^k for every N."""
    counts = np.zeros((k + 1) ** 2, dtype=np.intp)
    for _, (rho, _, _, odd, _) in _class_blocks(k):
        counts += np.bincount(rho.astype(np.intp) * (k + 1) + odd,
                              minlength=len(counts))
    counts = counts.reshape(k + 1, k + 1)
    counts.flags.writeable = False
    return counts


def enumerate_classes(k: int) -> list[CircuitClass]:
    """One canonical representative per relabeling class of length-k walks,
    in lexicographic order."""
    classes = []
    for walks, cols in _class_blocks(k):
        classes += map(CircuitClass, map(tuple, walks.tolist()),
                       *(col.tolist() for col in cols[:4]))
    return classes


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
    counts = class_counts(k).T.tolist()  # [odd][rho]
    total = Fraction(0)
    for odd, by_rho in enumerate(counts):
        if any(by_rho):
            tuples = sum(c * falling_factorial(N, rho)
                         for rho, c in enumerate(by_rho) if c)
            total += tuples * Fraction(m.moment(odd))
    # the walks number N^k, so total / N^k is a moment average in [-1, 1]
    return float(total / N ** k) * _scaling(N, k - 1 - k * gamma, k, gamma)


def _scaling(N: int, e: float, k: int, gamma: float) -> float:
    """N^e as a finite positive double, else DomainError naming N, k, gamma."""
    with suppress(OverflowError):
        if 0.0 < (value := float(N) ** e) < math.inf:
            return value
    raise DomainError(f"N^{e:g} is not a finite positive double at N={N}, "
                      f"k={k}, gamma={gamma:g}")


def _checked_blocks(k_max: int) -> tuple[dict, Iterator[tuple]]:
    """Check k_max; then verify_simple_edge_bound's report, and an iterator
    over (k, walks, cols) of the class blocks of every k <= k_max that adds
    each block's classes and bound violations to the report as it goes by."""
    _check_walk_length(k_max, "k_max")
    report = {"k_max": k_max, "classes_checked": 0, "violations": []}

    def blocks():
        for k in range(1, k_max + 1):
            for walks, cols in _class_blocks(k):
                rho, _, sp, _, k_proper = cols
                # the largest t the hypothesis admits is the hardest one
                t_top = (2 * rho - k_proper - 1) // 2
                flagged = np.flatnonzero((t_top >= 1) & (sp <= 2 * t_top))
                for i in flagged.tolist():
                    report["violations"].extend(
                        {"k": k, "canonical": tuple(walks[i].tolist()),
                         "t": t, "rho": int(rho[i]),
                         "k_proper": int(k_proper[i]),
                         "sigma_simple_proper": int(sp[i])}
                        for t in range(1, int(t_top[i]) + 1)
                        if sp[i] < 2 * t + 1)
                report["classes_checked"] += len(walks)
                yield k, walks, cols
    return report, blocks()


def verify_simple_edge_bound(k_max: int) -> dict:
    """Exhaustively check, over all circuit classes with k <= k_max, that a
    class whose loop-deleted graph satisfies rho > k_proper/2 + t has at
    least 2t+1 simple proper edges.  Returns a report dict; violations is
    empty when the bound holds."""
    report, blocks = _checked_blocks(k_max)
    for _ in blocks:
        pass
    return report


def _csv_bytes(k: int, walks: np.ndarray, cols: tuple) -> bytes:
    """One class block of walk length k as CSV rows (k, canonical labels
    joined by '-', rho, sigma_simple, sigma_simple_proper, odd_edge_count)
    with csv.writer's CRLF line ends."""
    vals = np.column_stack([np.full(len(walks), k, dtype=np.int8), walks,
                            *cols[:4]])
    # every value is 0..K_MAX: its tens digit or a NUL, its units digit,
    # then its separator; the NULs are dropped once the block is laid out
    lines = np.empty((len(vals), 3 * vals.shape[1] + 1), dtype=np.uint8)
    cells = lines[:, :-1].reshape(vals.shape + (3,))
    tens = vals >= 10
    cells[..., 0] = tens * np.uint8(ord("1"))
    cells[..., 1] = vals - 10 * tens.view(np.int8) + ord("0")
    cells[..., 2] = list(b"," + b"-" * (k - 1) + b",,,,\r")
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0")
