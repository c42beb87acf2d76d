"""Experiment runner: config parsing, task dispatch, determinism of the
emitted CSVs, and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cwrmt.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_TOLERANCE,
    ExperimentSpec,
    _build_parser,
    _pool_size,
    _spec_from_args,
    main,
    run,
)
from cwrmt import cli, ensembles, spectral
from cwrmt.errors import ConfigError


def _spec(tmp_path, **kw):
    base = {"task": "esd",
            "ensemble": {"kind": "iid", "N": 80},
            "replicas": 2,
            "output_dir": str(tmp_path),
            "seed": 7}
    base.update(kw)
    return ExperimentSpec.from_dict(base)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        _spec(tmp_path, bogus=1)


def test_missing_task_rejected():
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({"ensemble": {"kind": "iid", "N": 4}})


def test_unknown_task_rejected(tmp_path):
    with pytest.raises(ConfigError):
        _spec(tmp_path, task="render")


def test_tolerance_defaults_merged(tmp_path):
    spec = _spec(tmp_path, tolerances={"ks_mean": 0.2})
    assert spec.tolerances["ks_mean"] == 0.2
    assert spec.tolerances["m4_range"] == [1.85, 2.15]


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def test_esd_task_outputs(tmp_path):
    spec = _spec(tmp_path, ensemble={"kind": "iid", "N": 200}, replicas=3)
    report = run(spec)
    assert report["passed"]
    assert (tmp_path / "summary.json").exists()
    eig = (tmp_path / "eigenvalues.csv").read_text().strip().split("\n")
    assert eig[0] == "replica,index,lambda"
    assert len(eig) == 1 + 3 * 200
    hist = (tmp_path / "hist.csv").read_text().strip().split("\n")
    assert len(hist) == 1 + 60  # 0.1-wide bins on [-3, 3]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["task"] == "esd"
    assert summary["result"]["checks"]["m2_exact"]


def test_summary_writes_numpy_scalars_as_json_values(tmp_path):
    report = run(_spec(tmp_path, replicas=1, k_max=4))
    assert isinstance(report["result"]["checks"]["m2_exact"], np.bool_)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["result"]["checks"]["m2_exact"] is True


def test_moments_task(tmp_path):
    spec = _spec(tmp_path, task="moments",
                 ensemble={"kind": "full_cw", "N": 150, "beta": 0.5},
                 replicas=4, k_max=4)
    report = run(spec)
    assert report["result"]["checks"]["m2_exact"]
    assert (tmp_path / "moments.csv").exists()


def test_norm_task_supercritical(tmp_path):
    spec = _spec(tmp_path, task="norm",
                 ensemble={"kind": "full_cw", "N": 128, "beta": 1.5},
                 replicas=4, N_grid=[128])
    report = run(spec)
    assert report["result"]["checks"]["b_norm_near_magnetization"]
    assert (tmp_path / "norms.csv").exists()
    # the norms are certified to 1e-9 relative, plus the rounding level
    assert 0 < report["result"]["per_N"]["128"]["norm_bound"] < 2e-9


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
def test_norm_task_passes_across_seeds(tmp_path, beta):
    for seed in range(10):
        spec = _spec(tmp_path, task="norm",
                     ensemble={"kind": "full_cw", "beta": beta},
                     N_grid=[64, 256], seed=seed)
        assert run(spec)["passed"], seed


def test_main_norm_duplicate_grid_entry_runs_once(tmp_path):
    # a repeated N is one grid point: b_norm_decreasing would otherwise
    # compare N with itself
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "norm", "ensemble": {"kind": "full_cw", "beta": 0.5},
        "N_grid": [64, 128, 128], "replicas": 2,
        "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    rows = (tmp_path / "norms.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 4


@pytest.mark.parametrize("kind", ["full_cw", "diagonal_cw"])
def test_norm_summary_records_each_replicas_t(tmp_path, kind):
    # t is the replica's one shared latent mean; diagonal_cw draws one per
    # diagonal, so it records none
    spec = _spec(tmp_path, task="norm", ensemble={"kind": kind, "beta": 1.5},
                 N_grid=[32])
    run(spec)
    result = json.loads((tmp_path / "summary.json").read_text())["result"]
    t = [ensembles.sample_matrix(spec.ensemble_config(N=32, replica=r))
         .latent_t for r in range(spec.replicas)]
    assert result["per_N"]["32"]["latents"] == (
        t if kind == "full_cw" else [None] * spec.replicas)


def test_oracle_task(tmp_path):
    spec = _spec(tmp_path, task="oracle",
                 ensemble={"kind": "full_cw", "N": 4, "beta": 0.5},
                 replicas=2000, cells=[[4, 2], [4, 4]])
    report = run(spec)
    assert report["passed"]
    rows = (tmp_path / "oracle.csv").read_text().strip().split("\n")
    assert len(rows) == 3


def test_oracle_cells_are_independent(tmp_path):
    # cell i draws from replica i's stream, so equal cells differ
    spec = _spec(tmp_path, task="oracle",
                 ensemble={"kind": "full_cw", "N": 4, "beta": 0.5},
                 replicas=2000, seed=1, cells=[[4, 4], [4, 4]])
    run(spec)
    rows = (tmp_path / "oracle.csv").read_text().strip().split("\n")[1:]
    assert rows[0].split(",")[3] != rows[1].split(",")[3]


def test_graphcheck_task(tmp_path):
    spec = _spec(tmp_path, task="graphcheck", ensemble={}, k_max=6)
    report = run(spec)
    assert report["result"]["violations"] == []
    assert report["result"]["classes_checked"] == 1 + 2 + 5 + 15 + 52 + 203
    assert (tmp_path / "classes.csv").exists()


CLASSES_CSV_SHA256 = {
    10: "7f1b7f0c9558f90e9f0e93c079708fa1d53ad83dc9de3ca62c9be96fbcad4b16",
    11: "2f0b2f214aaac375f4b1b4f94e854ff9d91ef99fa643f5390d242ecce657ecc9"}


def test_classes_csv_bytes_pinned(tmp_path):
    # k = 10 and 11 have two-digit fields (labels, rho and sigma_simple of
    # 10 and 11); csv.writer ends every line with CRLF
    for k_max, digest in CLASSES_CSV_SHA256.items():
        out = tmp_path / str(k_max)
        run(_spec(out, task="graphcheck", ensemble={}, k_max=k_max))
        data = (out / "classes.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, k_max


def test_graphcheck_memory_is_bounded(tmp_path):
    # classes.csv is written from the class blocks as they are enumerated;
    # one Python row per class peaked near 120 MB at k_max = 11, and the
    # cached class tables built in the window took it to 21 MB
    spec = _spec(tmp_path, task="graphcheck", ensemble={}, k_max=11)
    tracemalloc.start()
    try:
        cli._task_graphcheck(spec, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_laplace_task(tmp_path):
    spec = _spec(tmp_path, task="laplace",
                 ensemble={"kind": "full_cw", "N": 16, "beta": 0.5},
                 K_list=[2], scales=[1e4, 1e6])
    report = run(spec)
    assert report["result"]["checks"]["ratio_converges_K2"]


def test_correlations_task(tmp_path):
    spec = _spec(tmp_path, task="correlations",
                 ensemble={"kind": "full_cw", "N": 50, "beta": 0.5},
                 replicas=500, K_list=[2], scales=[1e3, 1e4])
    report = run(spec)
    assert (tmp_path / "correlations.csv").exists()
    assert report["result"]["reports"]
    assert report["result"]["approx_uncorrelated"] is True


@pytest.mark.parametrize("scales", [[1e3, 1e6, 1e4], [1e6, 1e4, 1e3]],
                         ids=["max_in_middle", "max_first"])
def test_ratio_checks_read_their_own_cell(tmp_path, scales):
    # beta=0.5, K=2: |exact/asymptotic - 1| is 3e-6 at scale 1e6 and 3e-4
    # at 1e4, and 2e-5 (5x: 1e-4) lies between them, so reading any cell but
    # the largest scale's flips each check; both tasks read max(scales),
    # wherever it is listed
    common = {"ensemble": {"kind": "full_cw", "N": 50, "beta": 0.5},
              "replicas": 100, "K_list": [2], "scales": scales,
              "tolerances": {"laplace_ratio": 2e-5}}
    corr = run(_spec(tmp_path / "c", task="correlations", **common))
    assert corr["result"]["checks"] == {"laplace_ratio_K2": True,
                                        "mc_matches_exact_K2": True}
    lap = run(_spec(tmp_path / "l", task="laplace", **common))
    assert lap["result"]["checks"] == {"ratio_converges_K2": True}


def test_laplace_csv_cells_are_floats(tmp_path):
    # every cell is a plain float literal, never a numpy repr
    run(_spec(tmp_path, task="laplace",
              ensemble={"kind": "full_cw", "N": 16, "beta": 1.0},
              K_list=[2, 4], scales=[1e4, 1e6]))
    rows = (tmp_path / "laplace.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 4
    for row in rows:
        for cell in row.split(","):
            float(cell)


def test_csv_writes_numpy_floats_as_numbers(tmp_path):
    # numpy 2's repr of a float64 scalar is "np.float64(0.1)"
    cli._write_csv(tmp_path / "t.csv", ["x", "y"], [(np.float64(0.1), 0.1)])
    assert (tmp_path / "t.csv").read_bytes() == b"x,y\r\n0.1,0.1\r\n"


@pytest.mark.parametrize("ensemble", [
    {"kind": "full_cw", "beta": 0.5}, {"kind": "diagonal_cw", "beta": 0.5},
    {"kind": "generalized", "beta": 0.5, "alpha": 1.5}],
    ids=["full_cw", "diagonal_cw", "generalized"])
def test_correlations_mc_matches_exact(tmp_path, ensemble):
    # positions (2i+1, 2i+2) share one latent t (for diagonal_cw, t_1), so
    # the Monte Carlo column estimates the K-th moment of t's law at N^s
    spec = _spec(tmp_path, task="correlations", replicas=2000,
                 ensemble={**ensemble, "N": 20}, K_list=[2, 4],
                 scales=[1e3, 1e4])
    result = run(spec)["result"]
    law = ensembles._t_measure(spec.ensemble_config())
    assert result["exact_at_N"] == {K: law.moment(K) for K in (2, 4)}
    assert result["checks"]["mc_matches_exact_K2"]
    assert result["checks"]["mc_matches_exact_K4"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["result"]["exact_at_N"]) == {"2", "4"}


def test_correlations_mc_check_reads_the_ensemble_scale(tmp_path):
    # at beta = 1 and 1e5 replicas the Monte Carlo estimate of E t^2 at
    # N^2 = 400 lies more than mc_sigmas standard errors from the moment at
    # either listed scale, so the check fails unless it reads N^2
    spec = _spec(tmp_path, task="correlations", replicas=100_000,
                 ensemble={"kind": "full_cw", "N": 20, "beta": 1.0},
                 K_list=[2], scales=[1e3, 1e4])
    result = run(spec)["result"]
    assert result["checks"]["mc_matches_exact_K2"]
    for row in result["reports"]:
        assert abs(row["mc_estimate"] - row["exact"]) \
            > spec.tolerances["mc_sigmas"] * row["mc_stderr"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_csvs_across_runs_and_thread_counts(
        tmp_path, monkeypatch):
    outs = []
    for sub, threads in (("a", "1"), ("b", "4")):
        monkeypatch.setenv("CWRMT_THREADS", threads)
        spec = _spec(tmp_path / sub,
                     ensemble={"kind": "full_cw", "N": 120, "beta": 0.5},
                     replicas=4)
        run(spec)
        outs.append((tmp_path / sub / "eigenvalues.csv").read_bytes())
    assert outs[0] == outs[1]


def test_oracle_outputs_ignore_the_pool_size(tmp_path, monkeypatch):
    # cell i draws from replica i's streams, so cells sampled side by side
    # give the bytes of a one-worker run, in cell order
    outs = []
    for threads in "12":
        monkeypatch.setenv("CWRMT_THREADS", threads)
        run(_spec(tmp_path / threads, task="oracle",
                  ensemble={"kind": "full_cw", "beta": 0.5},
                  replicas=20_000, cells=[[6, 6], [4, 4], [5, 8], [4, 4]]))
        summary = json.loads((tmp_path / threads / "summary.json").read_text())
        outs.append(((tmp_path / threads / "oracle.csv").read_bytes(),
                     json.dumps(summary["result"]["checks"])))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_oracle_guard_in_a_later_cell(tmp_path, capsys, monkeypatch,
                                      threads):
    # the second cell's int64 guard stops the run at either pool size
    monkeypatch.setenv("CWRMT_THREADS", threads)
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "oracle", "ensemble": {"kind": "full_cw", "beta": 0.5},
        "replicas": 2000, "cells": [[4, 4], [1024, 7], [4, 6]],
        "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "resource guard: N=1024, k=7: int64 traces need N^k < 2^63\n")


def test_norms_csv_ignores_thread_settings(tmp_path):
    # and so do esd's eigenvalues.csv and hist.csv.  OPENBLAS_NUM_THREADS is
    # read when numpy loads, so each setting runs in its own interpreter,
    # which runs both tasks at both pool sizes
    code = ("import os, sys\n"
            "from cwrmt.cli import main\n"
            "codes = []\n"
            "for pool in '12':\n"
            "    os.environ['CWRMT_THREADS'] = pool\n"
            "    for task in ('norm', 'esd'):\n"
            "        codes.append(main([\n"
            "            'run', '--task', task, '--ensemble', 'full_cw',\n"
            "            '--beta', '0.5', '--n', '300', '--replicas', '2',\n"
            "            '--seed', '3', '--out', sys.argv[1] + task + pool]))\n"
            "sys.exit(max(codes))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = {}
    for blas in (None, "1", "2"):
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas:
            env["OPENBLAS_NUM_THREADS"] = blas
        out = tmp_path / f"blas{blas}-"
        subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                       check=True, capture_output=True, timeout=120)
        for csv in tmp_path.glob(f"{out.name}*/*.csv"):
            outs.setdefault(csv.name, []).append(csv.read_bytes())
    assert {name: len(v) for name, v in outs.items()} == {
        "norms.csv": 6, "eigenvalues.csv": 6, "hist.csv": 6}
    assert all(len(set(v)) == 1 for v in outs.values())


def test_run_holds_blas_at_one_thread_and_restores_it(tmp_path, monkeypatch):
    fns = cli._blas_thread_fns()
    if fns is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    get, set_ = fns
    seen = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            seen.append(get())
            return fn(*args)
        monkeypatch.setattr(module, name, wrapped)

    spy(spectral, "eigenvalues")
    spy(ensembles, "_law")
    before = get()
    set_(2)
    try:
        report = run(_spec(tmp_path / "esd"))
        assert get() == 2
        # iid has no law to tabulate: the task raises, and exits 2
        assert main(["run", "--task", "laplace", "--ensemble", "iid",
                     "--out", str(tmp_path / "laplace")]) == EXIT_CONFIG
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1, 1, 1]
    assert report["passed"] and report["env"]["blas_threads"] == 1


def test_run_without_blas_thread_control(tmp_path, monkeypatch):
    # another BLAS (MKL, Accelerate): the task runs with its own threads
    monkeypatch.setattr(cli, "_blas_thread_fns", lambda: None)
    report = run(_spec(tmp_path))
    assert report["passed"] and report["env"]["blas_threads"] is None


def test_blas_lookup_never_raises(monkeypatch):
    # the thread functions and the in-place solver, over one library opener;
    # all three uncached
    monkeypatch.setattr(spectral, "_lapack", spectral._lapack.__wrapped__)

    def no_library(path):
        raise OSError(f"cannot open {path}")
    for lookup in (cli._blas_thread_fns.__wrapped__,
                   spectral._dsyevd.__wrapped__):
        monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
        assert lookup() is None
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
        assert lookup() is None


@pytest.mark.parametrize("found", [True, False])
def test_summary_records_the_eigensolver(tmp_path, monkeypatch, found):
    if not found:
        monkeypatch.setattr(spectral, "_dsyevd", lambda: None)
    elif spectral._dsyevd() is None:
        pytest.skip("numpy's LAPACK is not an ILP64 OpenBLAS")
    report = run(_spec(tmp_path))
    assert report["passed"] and report["env"]["eigensolver"] == (
        "lapacke_dsyevd" if found else "numpy_eigvalsh")


def test_summary_records_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CWRMT_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    run(_spec(tmp_path, task="graphcheck", k_max=3))
    env = json.loads((tmp_path / "summary.json").read_text())["env"]
    assert env["numpy"] == np.__version__
    assert isinstance(env["blas"], str) and env["cpu_count"] >= 1
    assert env["pool_size"] is None  # graphcheck runs no pool
    assert env["thread_env"]["CWRMT_THREADS"] == "1"
    assert env["thread_env"]["OMP_NUM_THREADS"] == "3"
    assert env["blas_threads"] == (1 if cli._blas_thread_fns() else None)


@pytest.mark.parametrize("cells", [[[4, 4]], [[4, 4], [4, 2]]])
def test_summary_records_the_pool_the_oracle_used(tmp_path, monkeypatch,
                                                  cells):
    # a one-cell oracle runs one worker, however many replicas it draws
    monkeypatch.delenv("CWRMT_THREADS", raising=False)
    used = []
    real = cli.ThreadPoolExecutor

    def pool(max_workers):
        used.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", pool)
    report = run(_spec(tmp_path, task="oracle",
                       ensemble={"kind": "full_cw", "beta": 0.5},
                       replicas=2000, cells=cells))
    assert used == [min(len(cells), os.cpu_count() or 1)]
    assert report["env"]["pool_size"] == used[0]


# ---------------------------------------------------------------------------
# command line and exit codes
# ---------------------------------------------------------------------------

def test_main_ok(tmp_path, capsys):
    code = main(["run", "--task", "graphcheck", "--k-max", "5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "graphcheck: PASS" in out
    assert "violations: 0" in out


def test_main_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "esd",
        "ensemble": {"kind": "iid", "N": 60},
        "replicas": 2,
        "output_dir": str(tmp_path / "file_out")}))
    code = main(["run", "--config", str(cfg_path), "--n", "90",
                 "--out", str(tmp_path / "cli_out")])
    assert code == EXIT_OK
    summary = json.loads(
        (tmp_path / "cli_out" / "summary.json").read_text())
    assert summary["spec"]["ensemble"]["N"] == 90


def test_flags_win_over_file_values(tmp_path):
    # every flag, the ensemble's included, replaces the file's value; keys
    # no flag names keep the file's value
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "esd", "seed": 1, "replicas": 2,
        "ensemble": {"kind": "iid", "N": 10, "beta": 0.5, "alpha": 1.0}}))
    args = _build_parser().parse_args(
        ["run", "--config", str(cfg_path), "--seed", "3", "--ensemble",
         "generalized", "--alpha", "1.5", "--n", "40"])
    spec = _spec_from_args(args)
    assert (spec.task, spec.seed, spec.replicas) == ("esd", 3, 2)
    assert spec.ensemble == {"kind": "generalized", "N": 40, "beta": 0.5,
                             "alpha": 1.5}


def test_main_config_error(tmp_path, capsys):
    code = main(["run", "--task", "esd", "--ensemble", "full_cw",
                 "--n", "50", "--out", str(tmp_path)])  # missing beta
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_resource_error(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "oracle",
        "ensemble": {"kind": "full_cw", "N": 50, "beta": 0.5},
        "replicas": 200,
        "cells": [[4, 13]],
        "output_dir": str(tmp_path)}))
    code = main(["run", "--config", str(cfg_path)])
    assert code == EXIT_RESOURCE
    assert "resource guard" in capsys.readouterr().err


def test_main_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_main_tolerance_failure(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "esd",
        "ensemble": {"kind": "iid", "N": 100},
        "replicas": 2,
        "tolerances": {"ks_mean": 1e-9},
        "output_dir": str(tmp_path)}))
    code = main(["run", "--config", str(cfg_path)])
    assert code == EXIT_TOLERANCE
    assert "esd: FAIL" in capsys.readouterr().out


def test_main_invalid_json(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text("{not json")
    code = main(["run", "--config", str(cfg_path)])
    assert code == EXIT_CONFIG


_VALID = {"task": "esd", "ensemble": {"kind": "iid", "N": 20}}


@pytest.mark.parametrize("config,named", [
    ([1, 2], "config must be a JSON object, got [1, 2]"),
    ({**_VALID, "ensemble": [1, 2]},
     "'ensemble' must be a mapping, got [1, 2]"),
    ({**_VALID, "ensemble": 5}, "'ensemble' must be a mapping, got 5"),
    ({**_VALID, "ensemble": "ab"}, "'ensemble' must be a mapping, got 'ab'"),
    ({**_VALID, "task": ["esd"]}, "unknown task ['esd']"),
    ({**_VALID, "output_dir": 5}, "output_dir must be a string, got 5"),
    ({**_VALID, "output_dir": None}, "output_dir must be a string, got None"),
    ({**_VALID, "tolerances": [1]}, "'tolerances' must be a mapping"),
])
def test_main_malformed_config_shape(tmp_path, capsys, config, named):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err


def test_main_numeric_error(tmp_path, capsys):
    # beta=40 puts the minimum of F_beta at y* = artanh t ~ 40, where t
    # rounds to 1 in double precision
    code = main(["run", "--task", "laplace", "--ensemble", "full_cw",
                 "--beta", "40", "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:")
    assert "beta=40" in err


@pytest.mark.parametrize("scale,code", [
    (1e6, EXIT_NUMERIC), (1e3, EXIT_TOLERANCE), (1e-3, EXIT_NUMERIC)])
def test_main_laplace_high_moment(tmp_path, capsys, scale, code):
    # Gamma((K+1)/2) overflows a double at K = 400, where math.gamma ended
    # the run in a traceback; at scale 1e3 the K = 400 asymptotic is far
    # from the moment, at 1e-3 it lies above the double range, and at 1e6
    # below it, where a ratio of two zeros passed having compared nothing
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "laplace", "ensemble": {"kind": "full_cw", "beta": 0.5},
        "K_list": [400], "scales": [scale], "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(cfg_path)]) == code
    if code == EXIT_NUMERIC:
        assert "numeric error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # DomainError: beta must be positive
    ["--task", "laplace", "--ensemble", "full_cw", "--beta", "-1"],
    # UnsupportedEnsembleError: no single mixing measure for the oracle
    ["--task", "oracle", "--ensemble", "diagonal_cw", "--beta", "0.5",
     "--n", "4", "--replicas", "200"],
    # UnsupportedEnsembleError: iid has no mixing measure to tabulate
    ["--task", "laplace", "--ensemble", "iid", "--n", "4"],
    ["--task", "correlations", "--ensemble", "iid", "--n", "4"],
    # DomainError: generalized needs beta for its potential
    ["--task", "esd", "--ensemble", "generalized", "--alpha", "1", "--n",
     "10"],
])
def test_main_domain_errors_are_config_errors(tmp_path, capsys, argv):
    code = main(["run", *argv, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_main_unread_ensemble_key(tmp_path, capsys):
    # full_cw does not read alpha; running as if it were absent would echo
    # alpha = 2 in summary.json
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "esd", "replicas": 1, "output_dir": str(tmp_path),
        "ensemble": {"kind": "full_cw", "beta": 0.5, "alpha": 2, "N": 20}}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "kind full_cw does not read alpha" in capsys.readouterr().err


def test_main_graphcheck_needs_a_walk_length(tmp_path, capsys):
    # k_max < 1 would check no class at all and still report PASS
    code = main(["run", "--task", "graphcheck", "--k-max", "0",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "k_max must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("cells,named", [
    ([[4]], "[4]"), ([[4.5, 2]], "[4.5, 2]"), ([[4, 0]], "[4, 0]"),
    ([[True, 2]], "[True, 2]"), ([[4, 2, 1]], "[4, 2, 1]"), (5, "'cells'")])
def test_main_bad_oracle_cell(tmp_path, capsys, cells, named):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "oracle",
        "ensemble": {"kind": "full_cw", "beta": 0.5},
        "replicas": 200,
        "cells": cells,
        "output_dir": str(tmp_path)}))
    code = main(["run", "--config", str(cfg_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err


def test_thread_cap_only_lowers_the_pool(monkeypatch):
    # an oversized cap must not ask for a million OS threads; _pool_size
    # only computes the size, so no thread is started here
    monkeypatch.setenv("CWRMT_THREADS", "1000000")
    assert _pool_size(10**6) == (os.cpu_count() or 1)
    monkeypatch.setenv("CWRMT_THREADS", "1")
    assert _pool_size(10**6) == 1


@pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5"])
def test_main_bad_thread_cap(tmp_path, capsys, monkeypatch, cap):
    monkeypatch.setenv("CWRMT_THREADS", cap)
    code = main(["run", "--task", "esd", "--ensemble", "iid", "--n", "20",
                 "--replicas", "2", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert f"CWRMT_THREADS must be an integer >= 1, got {cap!r}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("ensemble", [{"kind": "full_cw", "beta": 0.5},
                                      {"kind": "iid"}])
def test_main_oracle_exact_cell_passes(tmp_path, capsys, ensemble):
    # every +-1 matrix has tr X^2 = N^2, so a k=2 cell differs from the
    # exact value by rounding only, with a stderr of exactly 0; at
    # gamma = 0.25 the cells N = 2 and 7 are one ulp off, which only the
    # verdict's rounding allowance admits
    for gamma, cells in ((0.5, [[6, 2]]), (0.25, [[2, 2], [7, 2]])):
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps({
            "task": "oracle", "ensemble": ensemble, "cells": cells,
            "gamma": gamma, "replicas": 200, "seed": 3,
            "output_dir": str(tmp_path)}))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK, gamma
        rows = [line.split(",") for line in
                (tmp_path / "oracle.csv").read_text().split("\n")[1:-1]]
        assert [float(row[4]) for row in rows] == [0.0] * len(cells)
        if gamma == 0.25:
            assert all(float(row[2]) != float(row[3]) for row in rows)


@pytest.mark.parametrize("gamma", [400.0, -400.0, 1e308])
def test_main_oracle_gamma_beyond_the_double_range(tmp_path, capsys, gamma):
    # N^(1 + k gamma) overflowed into a traceback at +-400, and at 1e308
    # both sides were 0.0, so the cell passed having compared nothing
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": "oracle", "ensemble": {"kind": "full_cw", "beta": 0.5},
        "cells": [[4, 4]], "gamma": gamma, "replicas": 100,
        "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"N=4, k=4, gamma={gamma:g}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("task,field,value,named", [
    ("esd", "k_max", 0, "k_max must be >= 2, got 0"),
    ("esd", "k_max", 1, "k_max must be >= 2, got 1"),
    ("moments", "k_max", 1, "k_max must be >= 2, got 1"),
    ("esd", "replicas", "2", "replicas must be an integer, got '2'"),
    ("esd", "replicas", 2.5, "replicas must be an integer, got 2.5"),
    ("esd", "replicas", True, "replicas must be an integer, got True"),
    ("moments", "replicas", 1, "replicas must be >= 2, got 1"),
    ("oracle", "replicas", 1, "replicas must be >= 2, got 1"),
    ("esd", "seed", -1, "seed must be >= 0, got -1"),
    ("esd", "replicas", 10**400, "replicas must be <= 10000000"),
    ("moments", "k_max", 62, "k_max must be <= 61, got 62"),
    ("esd", "k_max", 62, "k_max must be <= 61, got 62"),
    ("oracle", "gamma", "x", "gamma must be a number, got 'x'"),
    ("oracle", "gamma", math.nan, "gamma must be finite, got nan"),
])
def test_main_bad_scalar_field(tmp_path, capsys, task, field, value, named):
    ensemble = ({"kind": "full_cw", "beta": 0.5} if task == "oracle"
                else {"kind": "iid", "N": 20})
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({
        "task": task, "ensemble": ensemble, "replicas": 200,
        "output_dir": str(tmp_path), field: value}))
    code = main(["run", "--config", str(cfg_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err


@pytest.mark.parametrize("task,key,value,named", [
    ("laplace", "K_list", ["x"], "K_list entry must be an integer, got 'x'"),
    ("laplace", "scales", ["x"], "scales entry must be a number, got 'x'"),
    ("laplace", "scales", [], "scales must be a non-empty list, got []"),
    ("laplace", "ensemble.beta", "x",
     "ensemble.beta must be a number, got 'x'"),
    ("laplace", "ensemble.beta", True,
     "ensemble.beta must be a number, got True"),
    ("esd", "ensemble.seed", 5, "ensemble.seed cannot be set"),
    ("esd", "ensemble.N", 4.5, "ensemble.N must be an integer, got 4.5"),
    ("esd", "ensemble.potential", "x", "ensemble.potential cannot be set"),
    ("esd", "tolerances.ks_meen", 0.5, "unknown tolerances: ['ks_meen']"),
    ("esd", "tolerances.ks_mean", "x",
     "tolerances.ks_mean must be a number, got 'x'"),
    ("correlations", "K_list", [0], "K_list entry must be >= 1, got 0"),
    ("correlations", "K_list", [11],
     "position (21, 22) lies outside the matrix: 1 <= i, j <= N=20"),
    ("esd", "ensemble.betta", 0.5, "bad ensemble config"),
    ("laplace", "ensemble.beta", math.inf,
     "ensemble.beta must be finite, got inf"),
    ("esd", "tolerances.m4_range", [3, 1],
     "tolerances.m4_range must be [lo, hi] with lo <= hi, got [3, 1]"),
])
def test_main_bad_config_field(tmp_path, capsys, task, key, value, named):
    # every field of the spec, the ensemble mapping and the tolerances table
    # is checked before the task runs; a value only a task can check (the
    # correlation positions against N) exits 2 from inside it
    config = {"task": task, "ensemble": {"kind": "generalized", "N": 20,
                                         "beta": 0.5, "alpha": 1.0},
              "replicas": 200, "output_dir": str(tmp_path)}
    where, _, name = key.rpartition(".")
    (config.setdefault(where, {}) if where else config)[name] = value
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err
