"""Batch experiment runner.

`cwrmt run --config spec.json [overrides]` dispatches one of the tasks
{esd, moments, norm, correlations, oracle, graphcheck, laplace}, runs the
replicas, or the oracle's cells, in a thread pool (one worker per core, fewer
with CWRMT_THREADS) over a one-thread OpenBLAS, and writes summary.json plus
task-specific CSVs; the CSVs do not depend on the pool size.
Exit status is nonzero iff validation or a configured tolerance fails.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import csv
import ctypes
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import circuits, correlations, definetti, ensembles, spectral
from .ensembles import N_MAX, EnsembleConfig
from .errors import (
    ClassificationError,
    ConfigError,
    CwrmtError,
    DomainError,
    IntegrabilityError,
    NumericError,
    ResourceError,
    UnsupportedEnsembleError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_TOLERANCE = 4
EXIT_IO = 5
EXIT_NUMERIC = 6

# (error types, message prefix, exit status), matched in order
_ERROR_EXITS = (
    (ResourceError, "resource guard", EXIT_RESOURCE),
    ((ConfigError, DomainError, UnsupportedEnsembleError), "config error",
     EXIT_CONFIG),
    ((NumericError, IntegrabilityError, ClassificationError), "numeric error",
     EXIT_NUMERIC),
    (OSError, "io error", EXIT_IO),
)

# Calibrated defaults; every value can be overridden via the config file's
# "tolerances" table.
_DEFAULT_TOLERANCES = {
    "ks_mean": 0.05,
    "m2_abs": 1e-10,
    "m4_range": [1.85, 2.15],
    "norm_dev": 0.07,
    "mc_sigmas": 3.0,
    "variance_max": 0.01,
    "laplace_ratio": 0.02,
}

# relative allowance for rounding in an oracle cell: a k=2 cell has no Monte
# Carlo variance (tr X^2 = N^2 for every spin matrix), so its stderr is 0
_ORACLE_ROUNDING = 1e-12


def _field_rules(task: str) -> tuple:
    """(field, type, least, most) of every checked spec field.  An int lies
    in [least, most] and a float is finite, > least and <= most; bools are
    neither.  [type] is a non-empty list of such values (an empty N_grid
    means the ensemble's N) and [type, type] a pair.  Moments' variance and
    the oracle's stderr need two replicas; the esd and moments checks read
    the second moment.  61 caps their k_max: it is the highest order whose
    semicircle moment spectral.catalan's k <= 30 guard allows."""
    inf = math.inf
    spectral_task = task in ("esd", "moments")
    return (
        ("replicas", int, 2 if task in ("moments", "oracle") else 1, 10**7),
        ("k_max", int, 2 if spectral_task else 1, 61 if spectral_task else inf),
        ("seed", int, 0, inf),
        ("gamma", float, -inf, inf),
        ("K_list", [int], 1, inf),
        ("scales", [float], 0.0, inf),
        ("N_grid", [int], 1, N_MAX),
        ("ensemble.N", int, 1, N_MAX),
        ("ensemble.beta", float, 0.0, inf),
        ("ensemble.alpha", float, 0.0, inf),
        *((f"tolerances.{key}", [float, float] if key == "m4_range"
           else float, -inf, inf) for key in _DEFAULT_TOLERANCES),
    )


def _check_field(name: str, v, typ, lo, hi):
    """Raise ConfigError naming field and value unless v obeys its row."""
    if isinstance(typ, list):
        if not (isinstance(v, list) and (v or name == "N_grid")
                and len(typ) in (1, len(v))):
            what = "a pair" if len(typ) == 2 else "a non-empty list"
            raise ConfigError(f"{name} must be {what}, got {v!r}")
        for x in v:
            _check_field(f"{name} entry", x, typ[0], lo, hi)
        if len(typ) == 2 and v[0] > v[1]:
            raise ConfigError(f"{name} must be [lo, hi] with lo <= hi, "
                              f"got {v!r}")
    elif type(v) not in ((int,) if typ is int else (int, float)):
        what = "an integer" if typ is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {v!r}")
    elif typ is float and not math.isfinite(v):
        raise ConfigError(f"{name} must be finite, got {v!r}")
    elif v < lo or (typ is float and v == lo):
        bound = f">= {lo}" if typ is int else f"> {lo}"
        raise ConfigError(f"{name} must be {bound}, got {v!r}")
    elif v > hi:
        raise ConfigError(f"{name} must be <= {hi}, got {v!r}")


@dataclass
class ExperimentSpec:
    task: str
    ensemble: dict
    replicas: int = 1
    k_max: int = 8
    N_grid: list = field(default_factory=list)
    scales: list = field(default_factory=lambda: [1e3, 1e4, 1e5, 1e6])
    K_list: list = field(default_factory=lambda: [2, 4])
    cells: list = field(default_factory=list)  # oracle: [[N, k], ...]
    gamma: float = 0.5
    output_dir: str = "."
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "task" not in d:
            raise ConfigError("config must set 'task'")
        spec = cls(**d)
        if not isinstance(spec.output_dir, str):
            raise ConfigError(
                f"output_dir must be a string, got {spec.output_dir!r}")
        if not isinstance(spec.task, str) or spec.task not in _TASK_FNS:
            raise ConfigError(f"unknown task {spec.task!r}; "
                              f"expected one of {tuple(_TASK_FNS)}")
        ens = spec.ensemble
        if not isinstance(ens, dict):
            raise ConfigError(f"'ensemble' must be a mapping, got {ens!r}")
        for key, fix in (("potential", "give beta for the Curie-Weiss "
                                       "potential"),
                         ("seed", "set the top-level seed")):
            if key in ens:
                raise ConfigError(
                    f"ensemble.{key} cannot be set in a config; {fix}")
        if not isinstance(spec.tolerances, dict):
            raise ConfigError("'tolerances' must be a mapping")
        unknown = set(spec.tolerances) - set(_DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerances: {sorted(unknown)}")
        maps = {"": vars(spec), "ensemble": ens, "tolerances": spec.tolerances}
        for name, *rule in _field_rules(spec.task):
            where, _, key = name.rpartition(".")
            if key in maps[where]:
                _check_field(name, maps[where][key], *rule)
        if not isinstance(spec.cells, list):
            raise ConfigError("'cells' must be a list of [N, k] pairs")
        for cell in spec.cells:
            if not (isinstance(cell, (list, tuple)) and len(cell) == 2
                    and all(type(v) is int and v >= 1 for v in cell)):
                raise ConfigError(
                    f"oracle cell {cell!r} must be a pair [N, k] of "
                    f"integers >= 1")
        spec.tolerances = {**_DEFAULT_TOLERANCES, **spec.tolerances}
        return spec

    def ensemble_config(self, N: int | None = None,
                        replica: int = 0) -> EnsembleConfig:
        e = dict(self.ensemble)
        if N is not None:
            e["N"] = N
        try:
            return EnsembleConfig(seed=self.seed, replica_index=replica, **e)
        except TypeError as exc:
            raise ConfigError(f"bad ensemble config: {exc}") from None


def _pool_size(replicas: int) -> int:
    cores = os.cpu_count() or 1
    cap = os.environ.get("CWRMT_THREADS")
    if not cap:
        return min(cores, replicas)
    try:
        workers = int(cap)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(
            f"CWRMT_THREADS must be an integer >= 1, got {cap!r}")
    return min(workers, cores, replicas)


_pools = contextvars.ContextVar("pools")  # worker counts of a run's pools


def _parallel_map(fn, args_list):
    """Run fn over args in a pool; results returned in input order so the
    aggregates are independent of thread count."""
    workers = _pool_size(len(args_list))
    _pools.get([]).append(workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


@functools.cache
def _blas_thread_fns():
    """(get, set) of the thread count of the OpenBLAS under numpy's LAPACK, by
    its numpy 2, numpy 1 or system name; None for other BLAS.  Never raises."""
    lib = spectral._lapack()
    for name in ("scipy_openblas_%s_num_threads64_",
                 "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
        get, set_ = (getattr(lib, name % op, None) for op in ("get", "set"))
        if get and set_:  # int get(void) and void set(int)
            get.argtypes, set_.argtypes, set_.restype = [], [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread; yields 1, or None without one."""
    get, set_ = _blas_thread_fns() or (None, None)
    if set_ is None:
        yield None
        return
    before = get()
    set_(1)
    try:
        yield 1
    finally:
        set_(before)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _mc_agrees(tol: dict, mc: float, se: float, exact: float) -> bool:
    """Whether a Monte Carlo estimate with standard error se matches its
    exact value, within mc_sigmas errors and the rounding allowance."""
    return (abs(mc - exact)
            <= tol["mc_sigmas"] * se + _ORACLE_ROUNDING * abs(exact))


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _replicas(spec: ExperimentSpec, read, N: int | None = None) -> list:
    """(t, read(X/sqrt(N))) of every replica, in replica order; t is the
    replica's latent mean where that is one number, else None."""
    def one(replica):
        X = ensembles.sample_matrix(spec.ensemble_config(N=N, replica=replica))
        t = X.latent_t if np.ndim(X.latent_t) == 0 else None
        return t, read(ensembles.scale(X, 0.5))

    return _parallel_map(one, list(range(spec.replicas)))


def _task_esd(spec: ExperimentSpec, out: Path) -> dict:
    tol = spec.tolerances
    summaries = [s for _, s in _replicas(spec, functools.partial(
        spectral.summarize, k_max=spec.k_max))]
    _write_csv(out / "eigenvalues.csv", ["replica", "index", "lambda"],
               ((r, i, lam) for r, s in enumerate(summaries)
                for i, lam in enumerate(s.eigenvalues.tolist())))
    edges = np.arange(-3.0, 3.0 + 1e-12, 0.1)
    all_lam = np.concatenate([s.eigenvalues for s in summaries])
    hist, _ = np.histogram(all_lam, bins=edges)
    dens = hist / (len(all_lam) * 0.1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    _write_csv(out / "hist.csv",
               ["bin_left", "bin_right", "empirical_density",
                "semicircle_density"],
               [(float(edges[i]), float(edges[i + 1]), float(dens[i]),
                 float(spectral.semicircle_pdf(mids[i])))
                for i in range(len(mids))])
    ks = [s.ks_to_semicircle for s in summaries]
    mean_moments = np.mean([s.moments for s in summaries], axis=0)
    checks = {
        "ks_mean_below": float(np.mean(ks)) < tol["ks_mean"],
        "m2_exact": abs(mean_moments[1] - 1.0) < tol["m2_abs"],
    }
    if spec.k_max >= 4:
        lo, hi = tol["m4_range"]
        checks["m4_in_range"] = lo <= mean_moments[3] <= hi
    return {
        "ks_mean": float(np.mean(ks)),
        "ks_per_replica": [float(v) for v in ks],
        "esd_moments_mean": [float(v) for v in mean_moments],
        "checks": checks,
    }


def _task_moments(spec: ExperimentSpec, out: Path) -> dict:
    tol = spec.tolerances
    summaries = [s for _, s in _replicas(spec, functools.partial(
        spectral.summarize, k_max=spec.k_max))]
    moments = np.array([s.moments for s in summaries])  # (R, k_max)
    means = moments.mean(axis=0)
    variances = moments.var(axis=0, ddof=1)
    ref = [spectral.semicircle_moment(k) for k in range(1, spec.k_max + 1)]
    _write_csv(out / "moments.csv",
               ["k", "mean", "variance", "semicircle"],
               [(k + 1, float(means[k]), float(variances[k]), float(ref[k]))
                for k in range(spec.k_max)])
    checks = {"m2_exact": abs(means[1] - 1.0) < tol["m2_abs"]}
    if spec.k_max >= 4:
        checks["var_tr_A4_below"] = float(variances[3]) < tol["variance_max"]
    return {
        "moment_means": [float(v) for v in means],
        "moment_variances": [float(v) for v in variances],
        "semicircle_moments": ref,
        "checks": checks,
    }


def _task_norm(spec: ExperimentSpec, out: Path) -> dict:
    tol = spec.tolerances
    grid = list(dict.fromkeys(spec.N_grid or [spec.ensemble.get("N", 256)]))
    beta = spec.ensemble.get("beta")
    rows = []
    per_N = {}
    for N in grid:
        latents, reads = zip(*_replicas(spec, spectral.norm, N))
        a_norms, bounds = zip(*reads)
        b_norms = [a / math.sqrt(N) for a in a_norms]
        per_N[N] = {
            "a_norm_mean": float(np.mean(a_norms)),
            "a_norm_stderr": float(np.std(a_norms, ddof=1)
                                   / math.sqrt(len(a_norms)))
            if len(a_norms) > 1 else 0.0,
            "b_norm_mean": float(np.mean(b_norms)),
            "latents": list(latents),
            "norm_bound": max(bounds),  # the worst replica's
        }
        rows += [(N, r, a, b)
                 for r, (a, b) in enumerate(zip(a_norms, b_norms))]
    _write_csv(out / "norms.csv", ["N", "replica", "a_norm", "b_norm"], rows)
    checks = {}
    if beta is not None and beta > 1 and spec.ensemble.get("kind") == "full_cw":
        m_beta = definetti.magnetization(beta)
        N_big = max(grid)
        dev = abs(per_N[N_big]["b_norm_mean"] - m_beta)
        checks["b_norm_near_magnetization"] = dev < tol["norm_dev"]
    if beta is not None and beta < 1 and len(grid) > 1:
        b_means = [per_N[N]["b_norm_mean"] for N in sorted(grid)]
        checks["b_norm_decreasing"] = all(
            b_means[i] > b_means[i + 1] for i in range(len(b_means) - 1))
    return {"per_N": {str(N): v for N, v in per_N.items()}, "checks": checks}


def _laplace_rows(spec: ExperimentSpec) -> tuple:
    """(K, scale, exact, asymptotic) for every K x scale of the spec,
    K-major: the K-th moment of the ensemble's mixing measure at that scale
    (cached) and its Laplace asymptotic; then the rows at max(scales), one
    per K, which the checks read."""
    # the potential does not depend on N, so a run may leave N out
    potential, _ = ensembles._law(spec.ensemble_config(N=1))
    rows = []
    for K in spec.K_list:
        for s in map(float, spec.scales):
            measure = ensembles._measure(potential, s)
            rows.append((K, s, measure.moment(K),
                         definetti.laplace_moment_asymptotic(
                             measure.minimum, K, s)))
    largest = spec.scales.index(max(spec.scales))
    return rows, rows[largest::len(spec.scales)]


def _task_correlations(spec: ExperimentSpec, out: Path) -> dict:
    tol = spec.tolerances
    cells, at_largest = _laplace_rows(spec)
    label = f"beta={spec.ensemble['beta']:g}"
    mc_cfg = spec.ensemble_config(replica=0)
    mc = {K: correlations.mc_correlation(
              mc_cfg, [(2 * i + 1, 2 * i + 2) for i in range(K)],
              max(spec.replicas, 100))
          for K in spec.K_list}
    reports = [{"K": K, "exact": exact, "asymptotic": asym,
                "mc_estimate": mc[K][0], "mc_stderr": mc[K][1],
                "scale": s, "beta_or_label": label}
               for K, s, exact, asym in cells]
    _write_csv(out / "correlations.csv",
               ["label", "K", "scale", "exact", "asymptotic", "mc_estimate",
                "mc_stderr"],
               [(label, K, s, exact, asym, *mc[K])
                for K, s, exact, asym in cells])
    # the Monte Carlo column estimates the moment at the ensemble's own scale
    law = ensembles._t_measure(mc_cfg)
    exact_at_N = {K: law.moment(K) for K in spec.K_list}
    checks = {
        f"laplace_ratio_K{K}": abs(exact / asym - 1.0)
        < tol["laplace_ratio"] * 5
        for K, _, exact, asym in at_largest if asym != 0}
    checks.update({
        f"mc_matches_exact_K{K}": _mc_agrees(tol, *mc[K], exact)
        for K, exact in exact_at_N.items()})
    return {"reports": reports, "exact_at_N": exact_at_N,
            "approx_uncorrelated": correlations.approx_uncorrelated(mc_cfg),
            "checks": checks}


def _task_oracle(spec: ExperimentSpec, out: Path) -> dict:
    tol = spec.tolerances
    cells = spec.cells or [[4, 2], [4, 4], [5, 4], [6, 6]]

    def one(i):  # cell i draws from replica i's streams
        N, k = cells[i]
        cfg = spec.ensemble_config(N=N, replica=i)
        measure = ensembles.mixing_measure(cfg)
        exact = circuits.exact_trace_moment(measure, N, k, spec.gamma)
        mc, se = correlations.mc_trace_moment(
            cfg, k, spec.gamma, spec.replicas)
        return N, k, exact, mc, se, abs(exact - mc) / se if se > 0 else 0.0

    rows = _parallel_map(one, list(range(len(cells))))
    checks = {f"cell_N{N}_k{k}": _mc_agrees(tol, mc, se, exact)
              for N, k, exact, mc, se, _ in rows}
    _write_csv(out / "oracle.csv",
               ["N", "k", "exact", "mc_estimate", "mc_stderr", "z"], rows)
    return {"cells": rows, "checks": checks}


def _task_graphcheck(spec: ExperimentSpec, out: Path) -> dict:
    # one pass over the class blocks checks them and writes them out
    report, blocks = circuits._checked_blocks(spec.k_max)
    with open(out / "classes.csv", "wb") as fh:
        fh.write(b"k,canonical,rho,sigma_simple,sigma_simple_proper,"
                 b"odd_edge_count\r\n")
        for k, walks, cols in blocks:
            fh.write(circuits._csv_bytes(k, walks, cols))
    return {
        "classes_checked": report["classes_checked"],
        "violations": report["violations"],
        "checks": {"no_violations": not report["violations"]},
    }


def _task_laplace(spec: ExperimentSpec, out: Path) -> dict:
    tol = spec.tolerances
    beta = spec.ensemble.get("beta")
    cells, at_largest = _laplace_rows(spec)
    rows = [(beta, K, s, exact, asym,
             exact / asym if asym != 0 else float("nan"))
            for K, s, exact, asym in cells]
    checks = {f"ratio_converges_K{K}":
              abs(exact / asym - 1.0) < tol["laplace_ratio"]
              for K, _, exact, asym in at_largest if asym != 0}
    _write_csv(out / "laplace.csv",
               ["beta", "K", "scale", "exact", "asymptotic", "ratio"], rows)
    return {"rows": rows, "checks": checks}


_TASK_FNS = {
    "esd": _task_esd,
    "moments": _task_moments,
    "norm": _task_norm,
    "correlations": _task_correlations,
    "oracle": _task_oracle,
    "graphcheck": _task_graphcheck,
    "laplace": _task_laplace,
}


def run(spec: ExperimentSpec) -> dict:
    """Execute one experiment; returns the report dict (also written to
    summary.json in the output directory)."""
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"numpy": np.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"), "cpu_count": os.cpu_count(),
           "eigensolver": ("lapacke_dsyevd" if spectral._dsyevd()
                           else "numpy_eigvalsh"),
           "pool_size": None, "thread_env": {
               k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS") or k == "CWRMT_THREADS"}}
    token = _pools.set(pools := [])
    t0 = time.perf_counter()
    try:
        with _one_blas_thread() as env["blas_threads"]:
            body = _TASK_FNS[spec.task](spec, out)
    finally:
        _pools.reset(token)
    env["pool_size"] = max(pools, default=None)  # None: the task ran none
    elapsed = time.perf_counter() - t0
    report = {
        "spec": asdict(spec),
        "task": spec.task,
        "result": body,
        "passed": all(body["checks"].values()),
        "wall_clock_seconds": elapsed,
        "env": env,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(report, fh, indent=2, default=lambda v: v.item())
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cwrmt")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run one experiment from a JSON config")
    r.add_argument("--config", help="path to the JSON experiment spec")
    r.add_argument("--task", choices=_TASK_FNS)
    r.add_argument("--ensemble", dest="ensemble.kind", metavar="ENSEMBLE",
                   help="ensemble kind (full_cw|diagonal_cw|generalized|iid)")
    r.add_argument("--beta", type=float, dest="ensemble.beta", metavar="BETA")
    r.add_argument("--alpha", type=float, dest="ensemble.alpha",
                   metavar="ALPHA")
    r.add_argument("--n", type=int, dest="ensemble.N", metavar="N",
                   help="matrix dimension")
    r.add_argument("--replicas", type=int)
    r.add_argument("--seed", type=int)
    r.add_argument("--k-max", type=int, dest="k_max")
    r.add_argument("--out", dest="output_dir")
    return p


def _spec_from_args(args) -> ExperimentSpec:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise OSError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
    if raw.get("ensemble") is None:
        raw["ensemble"] = {}
    # flags win over file values; a dest "ensemble.x" sets the ensemble's key
    # x, unless the ensemble is not a mapping, which from_dict rejects
    for dest, v in vars(args).items():
        where, _, key = dest.rpartition(".")
        into = raw["ensemble"] if where else raw
        if v is not None and dest not in ("command", "config") \
                and isinstance(into, dict):
            into[key] = v
    return ExperimentSpec.from_dict(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        report = run(spec)
    except (CwrmtError, OSError) as exc:
        for types, prefix, code in _ERROR_EXITS:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{spec.task}: {status} "
          f"({report['wall_clock_seconds']:.1f}s, out={spec.output_dir})")
    if spec.task == "graphcheck":
        print(f"violations: {len(report['result']['violations'])}")
    return EXIT_OK if report["passed"] else EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
