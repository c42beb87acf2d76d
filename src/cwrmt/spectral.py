"""Spectra and semicircle reference statistics.

Eigenvalues come from LAPACK's dense symmetric solver dsyevd (esd, moments),
held at one OpenBLAS thread by `cwrmt run`.  With numpy's ILP64 OpenBLAS it
runs in place, through LAPACKE, on the float64 matrix `A.values` makes, so a
replica holds one N x N float64 array and its int8 spins; otherwise
`np.linalg.eigvalsh` solves a copy.  ||A|| alone comes from certified Lanczos
(norm).  The semicircle pdf/cdf/moments are closed-form, with Catalan numbers
as the even moments.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import ScaledMatrix
from .errors import DomainError, NumericError

__all__ = [
    "SpectralSummary",
    "eigenvalues",
    "norm",
    "summarize",
    "semicircle_pdf",
    "semicircle_cdf",
    "semicircle_moment",
    "catalan",
    "ks_distance_values",
]

_REL_TOL = 1e-8
_NORM_TOL = 1e-9  # relative residual bound at which `norm` stops


def catalan(k: int) -> int:
    """C_k = binom(2k, k) / (k+1), exact integer; guarded at k <= 30 to stay
    64-bit safe."""
    if k < 0:
        raise DomainError(f"k must be non-negative, got {k}")
    if k > 30:
        raise DomainError(f"k={k} exceeds the 64-bit-safe guard (30)")
    return math.comb(2 * k, k) // (k + 1)


def semicircle_pdf(x) -> np.ndarray | float:
    """Density (1/2pi) sqrt(4 - x^2) on [-2, 2], zero outside."""
    arr = np.asarray(x, dtype=float)
    out = np.where(np.abs(arr) <= 2.0,
                   np.sqrt(np.clip(4.0 - arr * arr, 0.0, None)) / (2 * np.pi),
                   0.0)
    return float(out) if np.isscalar(x) else out


def semicircle_cdf(x) -> np.ndarray | float:
    """Antiderivative of the semicircle density:
    1/2 + x sqrt(4-x^2)/(4 pi) + arcsin(x/2)/pi, clamped outside [-2, 2]."""
    arr = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    out = (0.5 + arr * np.sqrt(4.0 - arr * arr) / (4 * np.pi)
           + np.arcsin(arr / 2.0) / np.pi)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(x) else out


def semicircle_moment(k: int) -> float:
    """k-th moment: the Catalan number C_{k/2} for even k, zero for odd k."""
    if k < 0:
        raise DomainError(f"k must be non-negative, got {k}")
    if k % 2 == 1:
        return 0.0
    return float(catalan(k // 2))


@functools.cache
def _lapack():
    """numpy's linalg extension, which links its LAPACK; None if not found."""
    try:
        from numpy.linalg import _umath_linalg
        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None


@functools.cache
def _dsyevd():
    """LAPACKE_dsyevd(layout, jobz, uplo, n, a, lda, w) -> info of numpy's
    ILP64 OpenBLAS, by its numpy 2 or numpy 1 name; or None.  Never raises."""
    for name in ("scipy_LAPACKE_dsyevd64_", "LAPACKE_dsyevd64_"):
        if fn := getattr(_lapack(), name, None):
            i64, ptr, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
            fn.argtypes = [ctypes.c_int, char, char, i64, ptr, i64, ptr]
            fn.restype = i64
            return fn
    return None


def eigenvalues(A: ScaledMatrix) -> np.ndarray:
    """Ascending spectrum of the dense symmetric scaled matrix, solved in
    place on the buffer `A.values` makes where `_dsyevd` is found."""
    vals, N, dsyevd = A.values, A.source.N, _dsyevd()
    tr, fro2 = float(np.trace(vals)), float(np.vdot(vals, vals))
    if dsyevd is None:
        try:
            lam = np.linalg.eigvalsh(vals)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigensolver failed for N={N}: {exc}")
    else:  # column-major (102) on the symmetric buffer: numpy's Fortran copy
        lam = np.empty(N)
        info = dsyevd(102, b"N", b"L", N, vals.ctypes.data, N, lam.ctypes.data)
        if info:
            raise NumericError(f"eigensolver failed for N={N}: info {info}")
    _check_identities(lam, tr, fro2)
    return lam


def norm(A: ScaledMatrix) -> tuple[float, float]:
    """Operator norm max |lambda| of the scaled matrix, and a bound on its
    relative error, by Lanczos with full reorthogonalisation (twice per step)
    from a fixed start vector that moves no replica stream.

    Each Ritz value theta of T_j lies within its residual bound beta_j |s| (s:
    the last entry of its eigenvector) of an eigenvalue of A.  It stops when
    the end of larger |theta| has a bound <= _NORM_TOL |theta| and the other
    end's |theta| plus its bound is no larger (so a negative outlier is read
    too), when beta_j is below the rounding level N eps |theta| (the Krylov
    space is invariant), or at step N.  The bound returned is the residual
    bound over |theta| plus the rounding level."""
    vals = A.values
    N = len(vals)
    rounding = N * np.finfo(float).eps
    V, T = np.empty((0, N)), np.zeros((0, 0))
    v, b = np.random.default_rng(0).standard_normal(N), 0.0
    v /= np.linalg.norm(v)
    for j in range(N):
        if j == len(V):  # grow the basis 64 rows at a time
            V = np.concatenate([V, np.empty((min(N - j, 64), N))])
            T = np.pad(T, (0, len(V) - len(T)))
        V[j] = v
        w = vals @ v
        T[j, j] = v @ w
        if j:
            T[j, j - 1] = T[j - 1, j] = b
        # classical Gram-Schmidt twice also takes out the three-term part
        for _ in range(2):
            w -= (V[:j + 1] @ w) @ V[:j + 1]
        b = float(np.linalg.norm(w))
        if not math.isfinite(b):
            raise NumericError(f"Lanczos met a non-finite value for N={N}")
        theta, S = np.linalg.eigh(T[:j + 1, :j + 1])
        ends = (-1, 0) if abs(theta[-1]) >= abs(theta[0]) else (0, -1)
        top, other = (float(abs(theta[e])) for e in ends)
        r_top, r_other = (b * float(abs(S[-1, e])) for e in ends)
        if (r_top <= _NORM_TOL * top and other + r_other <= top
                or b <= rounding * top or j == N - 1):
            return top, r_top / top + rounding
        v = w / b


def _check_identities(lam: np.ndarray, tr: float, fro2: float):
    scale_ = max(np.max(np.abs(lam)), 1e-300)
    n = len(lam)
    if abs(lam.sum() - tr) > _REL_TOL * n * scale_:
        raise NumericError("trace identity violated beyond tolerance")
    if abs(np.sum(lam * lam) - fro2) > _REL_TOL * max(fro2, 1e-300):
        raise NumericError("Frobenius identity violated beyond tolerance")


def ks_distance_values(lam: np.ndarray) -> float:
    """Kolmogorov distance between the empirical CDF of `lam` and the
    semicircle CDF, evaluated at the eigenvalue jump points (sufficient
    against a continuous reference)."""
    if len(lam) == 0:
        raise DomainError("empty spectrum")
    lam = np.sort(lam)
    n = len(lam)
    F = semicircle_cdf(lam)
    hi = np.abs(np.arange(1, n + 1) / n - F)
    lo = np.abs(np.arange(0, n) / n - F)
    return float(max(hi.max(), lo.max()))


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray  # ascending
    moments: np.ndarray  # (1/N) sum lambda^k, k = 1..k_max
    ks_to_semicircle: float


def summarize(A: ScaledMatrix, k_max: int = 8) -> SpectralSummary:
    lam = eigenvalues(A)
    moments = np.array([float(np.mean(lam**k)) for k in range(1, k_max + 1)])
    return SpectralSummary(lam, moments, ks_distance_values(lam))

