"""Spectra and semicircle reference: eigensolves with trace/Frobenius
identities, Kolmogorov distance, Catalan moments."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from cwrmt import (
    EnsembleConfig,
    catalan,
    eigenvalues,
    sample_matrix,
    scale,
    semicircle_cdf,
    semicircle_moment,
    semicircle_pdf,
    summarize,
)
from cwrmt import spectral
from cwrmt.ensembles import SpinMatrix
from cwrmt.errors import DomainError, NumericError


def _spin_matrix(entries):
    entries = np.asarray(entries, dtype=np.int8)
    return SpinMatrix(N=entries.shape[0], entries=entries, latent_t=None)


# ---------------------------------------------------------------------------
# Catalan numbers and semicircle moments
# ---------------------------------------------------------------------------

def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796


def test_catalan_against_recurrence():
    # independent oracle: C_{n+1} = sum_i C_i C_{n-i}
    ref = [1]
    for n in range(12):
        ref.append(sum(ref[i] * ref[n - i] for i in range(n + 1)))
    for k, c in enumerate(ref):
        assert catalan(k) == c


def test_catalan_guards():
    with pytest.raises(DomainError):
        catalan(-1)
    with pytest.raises(DomainError):
        catalan(31)


def test_semicircle_moments():
    assert semicircle_moment(0) == 1.0
    assert semicircle_moment(2) == 1.0
    assert semicircle_moment(4) == 2.0
    assert semicircle_moment(6) == 5.0
    assert semicircle_moment(8) == 14.0
    assert semicircle_moment(7) == 0.0


def test_semicircle_moments_by_quadrature():
    for k in (2, 4, 6):
        val, _ = quad(lambda x, k=k: x**k * semicircle_pdf(x), -2, 2)
        assert semicircle_moment(k) == pytest.approx(val, abs=1e-9)


# ---------------------------------------------------------------------------
# semicircle pdf / cdf
# ---------------------------------------------------------------------------

def test_pdf_values():
    assert semicircle_pdf(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert semicircle_pdf(2.0) == 0.0
    assert semicircle_pdf(-2.0) == 0.0
    assert semicircle_pdf(2.5) == 0.0
    assert semicircle_pdf(-3.0) == 0.0


def test_pdf_integrates_to_one():
    val, err = quad(semicircle_pdf, -2, 2)
    assert abs(val - 1.0) < 1e-9


def test_cdf_values():
    assert semicircle_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert semicircle_cdf(2.0) == pytest.approx(1.0, abs=1e-15)
    assert semicircle_cdf(-2.0) == pytest.approx(0.0, abs=1e-15)
    assert semicircle_cdf(5.0) == 1.0


def test_cdf_matches_pdf_quadrature():
    for x in (-1.5, -0.3, 1.0, 1.9):
        val, _ = quad(semicircle_pdf, -2, x)
        assert semicircle_cdf(x) == pytest.approx(val, abs=1e-9)


def test_cdf_monotone():
    xs = np.linspace(-2.2, 2.2, 401)
    assert np.all(np.diff(semicircle_cdf(xs)) >= 0)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_two_by_two_all_ones():
    lam = eigenvalues(scale(_spin_matrix([[1, 1], [1, 1]]), 0.0))
    assert lam == pytest.approx([0.0, 2.0], abs=1e-12)


def test_all_ones_rank_one():
    N = 8
    lam = eigenvalues(scale(_spin_matrix(np.ones((N, N))), 0.0))
    assert lam[:-1] == pytest.approx(np.zeros(N - 1), abs=1e-12)
    assert lam[-1] == pytest.approx(N, abs=1e-12)


def test_all_ones_projection():
    # all-ones divided by N is the rank-one projection: spectrum {0, 0, 1}
    lam = eigenvalues(scale(_spin_matrix(np.ones((3, 3))), 1.0))
    assert lam == pytest.approx([0.0, 0.0, 1.0], abs=1e-13)


def test_eigen_residuals():
    cfg = EnsembleConfig(kind="full_cw", N=64, beta=0.5, seed=61)
    A = scale(sample_matrix(cfg), 0.5)
    lam = eigenvalues(A)
    w, V = np.linalg.eigh(A.values)
    assert lam == pytest.approx(w, abs=1e-12)
    norm = max(abs(w[0]), abs(w[-1]))
    for j in (0, 31, 63):
        res = np.linalg.norm(A.values @ V[:, j] - w[j] * V[:, j])
        assert res <= 1e-8 * norm


@pytest.mark.parametrize("in_place", [True, False])
@pytest.mark.parametrize("kind,kw", [
    ("full_cw", {"beta": 0.5}), ("diagonal_cw", {"beta": 0.5}),
    ("generalized", {"beta": 0.5, "alpha": 1.0}), ("iid", {})])
def test_eigenvalues_equal_numpy_bit_for_bit(kind, kw, in_place,
                                             monkeypatch):
    # the in-place LAPACKE call is the LAPACK call numpy makes on its copy
    if not in_place:
        monkeypatch.setattr(spectral, "_dsyevd", lambda: None)
    elif spectral._dsyevd() is None:
        pytest.skip("numpy's LAPACK is not an ILP64 OpenBLAS")
    for N in (1, 2, 3, 64, 65, 500):
        A = scale(sample_matrix(EnsembleConfig(kind=kind, N=N, seed=N, **kw)),
                  0.5)
        assert eigenvalues(A).tobytes() == np.linalg.eigvalsh(
            A.values).tobytes()


def test_eigensolver_failure_names_n(monkeypatch):
    monkeypatch.setattr(spectral, "_dsyevd", lambda: lambda *args: 3)
    A = scale(_spin_matrix(np.ones((5, 5))), 0.5)
    with pytest.raises(NumericError, match=r"N=5\b.*info 3"):
        eigenvalues(A)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_eigensolve_holds_one_float64_matrix():
    # one BLAS thread, as `cwrmt run` holds it; the parent's private copy
    # took the solve from about +33 MiB to +65 MiB over the drawn spins.
    # VmHWM, not ru_maxrss, which keeps pytest's peak across fork and exec
    code = ("from cwrmt import EnsembleConfig, eigenvalues, sample_matrix, "
            "scale\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh\n"
            "                    if line.startswith('VmHWM:'))\n"
            "X = sample_matrix(EnsembleConfig(kind='full_cw', N=2048, "
            "beta=0.5, seed=1))\n"
            "before = peak()\n"
            "eigenvalues(scale(X, 0.5))\n"
            "print((peak() - before) * 1024)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    grown = int(subprocess.run([sys.executable, "-c", code], env=env,
                               check=True, capture_output=True, text=True,
                               timeout=120).stdout)
    assert grown < 1.6 * 2048 * 2048 * 8


# ---------------------------------------------------------------------------
# operator norm by Lanczos
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,kw", [
    ("full_cw", {"beta": 0.5}), ("full_cw", {"beta": 1.0}),
    ("full_cw", {"beta": 1.5}),
    ("diagonal_cw", {"beta": 0.5}), ("diagonal_cw", {"beta": 1.0}),
    ("diagonal_cw", {"beta": 1.5}),
    ("generalized", {"beta": 0.5, "alpha": 1.0}),
    ("generalized", {"beta": 1.0, "alpha": 1.0}),
    ("generalized", {"beta": 1.5, "alpha": 1.0}),
    ("iid", {})])
def test_norm_matches_dense_eigensolve(kind, kw):
    for N in (64, 256, 512):
        for seed in (3, 4, 5):
            A = scale(sample_matrix(
                EnsembleConfig(kind=kind, N=N, seed=seed, **kw)), 0.5)
            lam = np.linalg.eigvalsh(A.values)
            ref = max(abs(lam[0]), abs(lam[-1]))
            value, bound = spectral.norm(A)
            assert abs(value - ref) <= min(bound, 1e-12) * ref


@pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0])
def test_norm_degenerate_inputs(exponent):
    # N = 1 stops at step 1; +-all-ones is rank one and breaks down at step 2
    # with the eigenvalue +-N; [[1, 1], [1, -1]] (x) ones(k, k) has the tied
    # ends +-sqrt(2) k, so only its breakdown at step 3 stops it before step N
    cases = [(sign * np.ones((N, N)), N)
             for N in (1, 2, 7, 300) for sign in (1, -1)]
    cases.append((np.kron([[1, 1], [1, -1]], np.ones((150, 150))),
                  math.sqrt(2) * 150))
    for entries, eig in cases:
        ref = eig / len(entries)**exponent
        value, bound = spectral.norm(scale(_spin_matrix(entries), exponent))
        assert value == pytest.approx(ref, rel=4 * np.finfo(float).eps)
        assert abs(value - ref) <= bound * ref
        assert bound < 1e-12


def test_norm_reads_a_negative_outlier():
    # at beta > 1 the outlier sits at ~ t sqrt(N): for t < 0 it is the
    # lowest eigenvalue, and the top of the spectrum is the bulk edge
    cfg = EnsembleConfig(kind="full_cw", N=256, beta=1.5, seed=5)
    X = sample_matrix(cfg)
    assert X.latent_t < 0
    A = scale(X, 0.5)
    lam = np.linalg.eigvalsh(A.values)
    assert -lam[0] > 4 * lam[-1]
    value, bound = spectral.norm(A)
    assert abs(value + lam[0]) <= min(bound, 1e-12) * -lam[0]


def test_norm_waits_for_the_other_end():
    # the isolated top eigenvalue 126 converges within a few steps, long
    # before the Ritz value of the clustered bottom end reaches -127
    d = np.array([126, *range(-127, 1)])
    value, bound = spectral.norm(scale(_spin_matrix(np.diag(d)), 0.0))
    assert abs(value - 127) <= min(bound, 1e-12) * 127


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

def test_ks_at_exact_quantiles():
    n = 64
    qs = [brentq(lambda x, p=p: semicircle_cdf(x) - p, -2.0, 2.0)
          for p in ((i - 0.5) / n for i in range(1, n + 1))]
    assert spectral.ks_distance_values(np.array(qs)) <= 1.0 / (2 * n) + 1e-9


def test_ks_single_atom():
    assert spectral.ks_distance_values(np.array([0.0])) == pytest.approx(
        0.5, abs=1e-12)


def test_ks_iid_baseline():
    cfg = EnsembleConfig(kind="iid", N=1000, seed=67)
    s = summarize(scale(sample_matrix(cfg), 0.5))
    assert s.ks_to_semicircle < 0.05


# ---------------------------------------------------------------------------
# summaries and ESD moments
# ---------------------------------------------------------------------------

def test_summary_fields_and_norm_consistency():
    cfg = EnsembleConfig(kind="iid", N=200, seed=71)
    s = summarize(scale(sample_matrix(cfg), 0.5), k_max=6)
    assert np.all(np.diff(s.eigenvalues) >= 0)
    assert len(s.moments) == 6


def test_second_esd_moment_is_deterministic():
    # spin entries squared are 1, so (1/N) tr A^2 = 1 exactly at gamma = 1/2
    for kind, kw in [("iid", {}), ("full_cw", {"beta": 1.5})]:
        cfg = EnsembleConfig(kind=kind, N=150, seed=73, **kw)
        from cwrmt import sample_matrix
        s = summarize(scale(sample_matrix(cfg), 0.5))
        assert s.moments[1] == pytest.approx(1.0, abs=1e-12)


def test_first_esd_moment_small_iid():
    cfg = EnsembleConfig(kind="iid", N=1000, seed=79)
    s = summarize(scale(sample_matrix(cfg), 0.5))
    assert abs(s.moments[0]) < 0.1


def test_odd_esd_moments_center_on_zero():
    vals = []
    for r in range(10):
        cfg = EnsembleConfig(kind="full_cw", N=300, beta=0.5, seed=83,
                             replica_index=r)
        vals.append(summarize(scale(sample_matrix(cfg), 0.5)).moments[2])
    vals = np.array(vals)
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 3 * stderr + 1e-6

