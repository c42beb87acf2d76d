"""Spectra and semicircle reference statistics.

Eigenvalues come from LAPACK's dense symmetric solver; the semicircle
pdf/cdf/moments are closed-form, with Catalan numbers as the even moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import ScaledMatrix
from .errors import DomainError, NumericError

__all__ = [
    "SpectralSummary",
    "eigenvalues",
    "summarize",
    "semicircle_pdf",
    "semicircle_cdf",
    "semicircle_moment",
    "catalan",
    "ks_distance_values",
]

_REL_TOL = 1e-8


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


def eigenvalues(A: ScaledMatrix) -> np.ndarray:
    """Ascending spectrum of the dense symmetric scaled matrix."""
    vals = A.values
    try:
        lam = np.linalg.eigvalsh(vals)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed for N={A.source.N}: {exc}")
    _check_identities(lam, vals)
    return lam


def _check_identities(lam: np.ndarray, vals: np.ndarray):
    scale_ = max(np.max(np.abs(lam)), 1e-300)
    n = len(lam)
    tr = float(np.trace(vals))
    if abs(lam.sum() - tr) > _REL_TOL * n * scale_:
        raise NumericError("trace identity violated beyond tolerance")
    fro2 = float(np.vdot(vals, vals))
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
    return SpectralSummary(
        eigenvalues=lam,
        moments=moments,
        ks_to_semicircle=ks_distance_values(lam),
    )

