"""cwrmt benchmark: the sampler -> eigensolve -> statistics pipeline and the
mixing measure -> circuit classes -> exact moments pipeline, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Workloads:

  esd       `cwrmt run --task esd`, N=1000, 20 replicas, beta=0.5, for
            full_cw, diagonal_cw and generalized (alpha=1)
  norm      `cwrmt run --task norm`, full_cw, beta=1.5, N in 256/1024/4096,
            2 replicas
  measure   one library session over the beta x S grid of
            measure_reference.json: build DeFinettiMeasure, moments K=2..8,
            10^4 draws of sample_t per cell
  circuits  `cwrmt run --task graphcheck --k-max 10`, then `--task oracle`
            on eight (N, k) cells with 10^5 replicas

Every CLI operation runs in a fresh interpreter (child.py), as `cwrmt run`
does, so in-process caches start cold; the measure grid runs in one
interpreter, like a library session.  CWRMT_THREADS and *_NUM_THREADS are
passed through untouched: the defaults are what users run.

A round runs every operation of the workload once.  Rounds repeat while the
next one is expected to end within --seconds (at least one), and timings are
medians over rounds.  With --trace 1 each cycle is an untraced round followed
by a traced one (tracing.py); the per-layer metrics come from the traced
rounds and trace.overhead_s is the difference of the two medians.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (the end_to_end metrics of BENCHMARK.json, or with
--trace 1 its per_layer metrics).  Lines before it describe the environment,
failing operations and the SHA-256 of every CSV written.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the package
sources are missing.  --toy runs each workload at toy size (for the
self-test, test_perfbench.py).
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 5

ORACLE_CELLS = [[4, 2], [4, 4], [5, 4], [6, 6], [4, 8], [6, 8], [4, 10],
                [6, 10]]
# The oracle task passes a cell when exact and Monte Carlo moments agree
# within mc_sigmas standard errors.  At the CLI default of 3, eight cells
# fail by chance in about 2% of seeds; 5 keeps that below 1e-5.
ORACLE_TOLERANCES = {"mc_sigmas": 5.0}


def _cli(name, config):
    return {"name": name, "kind": "cli", "config": config}


def esd_ops(seed, toy):
    N, replicas = (200, 4) if toy else (1000, 20)
    ensembles = [{"kind": "full_cw", "beta": 0.5},
                 {"kind": "diagonal_cw", "beta": 0.5},
                 {"kind": "generalized", "beta": 0.5, "alpha": 1.0}]
    return [_cli(f"esd-{e['kind']}",
                 {"task": "esd", "ensemble": dict(e, N=N),
                  "replicas": replicas, "seed": seed})
            for e in ensembles]


def norm_ops(seed, toy):
    grid = [64, 128] if toy else [256, 1024, 4096]
    return [_cli("norm", {"task": "norm",
                          "ensemble": {"kind": "full_cw", "beta": 1.5},
                          "N_grid": grid, "replicas": 2, "seed": seed})]


def measure_ops(seed, toy):
    n_cells = len(json.loads((HERE / "measure_reference.json").read_text())
                  ["cells"])
    cells = [0, 1, 21, 30] if toy else list(range(n_cells))
    return [{"name": "measure", "kind": "measure", "cells": cells,
             "draws": 1000 if toy else 10_000, "seed": seed}]


def circuits_ops(seed, toy):
    k_max, cells, replicas = ((6, ORACLE_CELLS[:3], 2000) if toy
                              else (10, ORACLE_CELLS, 100_000))
    return [_cli("graphcheck", {"task": "graphcheck", "ensemble": {},
                                "k_max": k_max, "seed": seed}),
            _cli("oracle", {"task": "oracle",
                            "ensemble": {"kind": "full_cw", "beta": 0.5},
                            "cells": cells, "replicas": replicas,
                            "seed": seed,
                            "tolerances": ORACLE_TOLERANCES})]


WORKLOADS = {"esd": esd_ops, "norm": norm_ops, "measure": measure_ops,
             "circuits": circuits_ops}


def bell(n):
    """Bell number B(n), by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def spawn(job, tag):
    """Run child.py on `job`; returns (result dict or None, error text)."""
    job_path = WORK / f"{tag}.job.json"
    result_path = WORK / f"{tag}.result.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job_path), str(result_path),
             repr(launched)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        return None, (f"exit code {proc.returncode}: "
                      + proc.stderr.strip()[-2000:])
    return json.loads(result_path.read_text()), ""


def check_cli(op, res, out):
    """Problems with a CLI operation's outputs; empty when it passed."""
    if res["exit_code"] != 0:
        return [f"exit code {res['exit_code']}"]
    summary = json.loads((out / "summary.json").read_text())
    problems = [] if summary.get("passed") is True else \
        ["summary.json does not report passed"]
    if op["config"]["task"] == "graphcheck":
        k_max = op["config"]["k_max"]
        want = sum(bell(k) for k in range(1, k_max + 1))
        got = summary["result"]["classes_checked"]
        if got != want:
            problems.append(f"classes_checked {got}, want {want}")
        if summary["result"]["violations"]:
            problems.append("simple-edge bound violations reported")
    return problems


def run_round(ops, traced):
    """Run every operation once; returns the round's record."""
    rnd = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "cells": [],
           "attempted": 0, "failures": [], "incorrect": [], "digests": {},
           "csv_bytes": 0, "setups": [], "procs": []}
    for op in ops:
        out = WORK / op["name"]
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        res, err = spawn(dict(op, out=str(out), trace=traced), op["name"])
        n_ops = len(op["cells"]) if op["kind"] == "measure" else 1
        rnd["attempted"] += n_ops
        if res is None:
            rnd["failures"] += [f"{op['name']}: {err}"] * n_ops
            rnd["incorrect"].append(f"{op['name']}: {err}")
            continue
        rnd["setups"].append(res["setup_s"])
        rnd["wall_s"] += res["op_s"]
        rnd["cpu_s"] += res["cpu_s"]
        rnd["procs"].append(dict(res, name=op["name"]))
        if op["kind"] == "cli":
            problems = check_cli(op, res, out)
            if problems:
                msg = f"{op['name']}: " + "; ".join(problems)
                rnd["failures"].append(msg)
                rnd["incorrect"].append(msg)
        else:
            for c in res["cells"]:
                rnd["cells"].append(c["seconds"])
                if c["status"] != "ok":
                    detail = (f" (rel err {c['rel_err']:.2e})"
                              if c["status"] == "inaccurate" else "")
                    rnd["failures"].append(
                        f"measure beta={c['beta']:g} S={c['scale']:g}: "
                        f"{c['status']}{detail}")
                if c["status"].startswith("crash:"):
                    rnd["incorrect"].append(
                        f"measure beta={c['beta']:g} S={c['scale']:g} "
                        f"raised {c['status'][6:]}")
        for csv in sorted(out.glob("*.csv")):
            data = csv.read_bytes()
            rnd["digests"][f"{op['name']}/{csv.name}"] = \
                hashlib.sha256(data).hexdigest()
            if op["kind"] == "cli":
                rnd["csv_bytes"] += len(data)
    return rnd


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def layer_metrics(rnd):
    """Per-layer metrics of one traced round.  A layer's busy seconds are
    the summed self times of its spans, over all threads; counts come from
    the arguments and results of the wrapped calls."""
    spans = []  # (proc index, span)
    for p, proc in enumerate(rnd["procs"]):
        spans += [(p, s) for s in proc.get("spans", [])]
    children = {}
    for p, s in spans:
        children.setdefault((p, s["parent"]), []).append(s)
    self_s = {}
    for p, s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get((p, s["id"]), [])]
        self_s[(p, s["id"])] = s["end"] - s["start"] - _covered(
            [(a, b) for a, b in kids if b > a])

    def named(name):
        return [(p, s) for p, s in spans if s["name"] == name]

    def busy(name):
        return sum(self_s[(p, s["id"])] for p, s in named(name))

    def total(name, key):
        return sum(s["counts"][key] for _, s in named(name) if s["counts"])

    def errors(name, kind=None):
        return sum(1 for _, s in named(name)
                   if s["error"] and kind in (None, s["error"]))

    enum_calls, redundant, seen = 0, 0, set()
    for p, s in sorted(named("circuits.enumerate"),
                       key=lambda ps: ps[1]["start"]):
        if s["counts"]:
            enum_calls += 1
            key = (p, s["op"], s["counts"]["k"])
            redundant += key in seen
            seen.add(key)
    rel_errs = [c["rel_err"] for proc in rnd["procs"]
                for c in proc.get("cells", []) if c["rel_err"] is not None]
    return {
        "ensembles.sample_s": busy("ensembles.sample"),
        "ensembles.sample_calls": len(named("ensembles.sample")),
        "ensembles.spins_drawn": total("ensembles.sample", "spins"),
        "ensembles.cast_s": busy("ensembles.cast"),
        "ensembles.cast_bytes": total("ensembles.cast", "bytes"),
        "ensembles.batch_sample_s": busy("ensembles.batch_sample"),
        "spectral.eig_s": busy("spectral.eig"),
        "spectral.eig_calls": len(named("spectral.eig")),
        "spectral.stats_s": busy("spectral.stats"),
        "definetti.build_s": busy("definetti.build"),
        "definetti.builds": len(named("definetti.build")),
        "definetti.build_errors": errors("definetti.build"),
        "definetti.build_errors.integrability":
            errors("definetti.build", "IntegrabilityError"),
        "definetti.build_errors.classification":
            errors("definetti.build", "ClassificationError"),
        "definetti.moment_s": busy("definetti.moment"),
        "definetti.sample_t_s": busy("definetti.sample_t"),
        "definetti.cdf_table_len": total("definetti.build", "cdf_table_len"),
        "definetti.moment_rel_err_max": max(rel_errs, default=0.0),
        "circuits.enumerate_s": busy("circuits.enumerate"),
        "circuits.enumerate_calls": len(named("circuits.enumerate")),
        "circuits.classes_built": total("circuits.enumerate", "classes"),
        "circuits.redundant_enum_share":
            redundant / enum_calls if enum_calls else 0.0,
        "circuits.exact_moment_s": busy("circuits.exact_moment"),
        "circuits.verify_s": busy("circuits.verify"),
        "correlations.mc_trace_s": busy("correlations.mc_trace"),
        "correlations.mc_matrices": total("correlations.mc_trace",
                                          "matrices"),
        "cli.run_s": sum(s["end"] - s["start"] for _, s in named("cli.run")),
        "cli.self_s": busy("cli.run"),
        "cli.csv_bytes": rnd["csv_bytes"],
        "cli.pool_threads": max(
            (proc.get("pool_threads", 1) for proc in rnd["procs"]),
            default=1),
    }


# ---------------------------------------------------------------------------
# rounds and the result line
# ---------------------------------------------------------------------------

def run_rounds(ops, seconds, trace):
    """Cycles of rounds (untraced, plus traced with --trace 1) while the next
    cycle is expected to end within `seconds`; at least one cycle."""
    rounds, cycles, start = [], 0, time.monotonic()
    while True:
        rounds.append(run_round(ops, traced=False))
        if trace:
            rounds.append(run_round(ops, traced=True))
        cycles += 1
        elapsed = time.monotonic() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            return rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cwrmt" / "__init__.py").is_file():
        print(f"cwrmt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    env, err = spawn({"kind": "env"}, "env")  # also warms the page cache
    if env is None:
        print(f"cannot import cwrmt: {err}", file=sys.stderr)
        return 2
    setups = []
    for i in range(SETUP_PROBES):
        probe, err = spawn({"kind": "import"}, f"setup{i}")
        if probe is not None:
            setups.append(probe["setup_s"])

    ops = WORKLOADS[args.workload](args.seed, args.toy)
    rounds = run_rounds(ops, args.seconds, args.trace)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    cells = [c for r in plain for c in r["cells"]]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(
            setups + [s for r in plain for s in r["setups"]]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_share": 1 - sum(len(r["failures"]) for r in plain)
        / sum(r["attempted"] for r in plain),
    }
    if traced:
        per_round = [layer_metrics(r) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_round)
                   for k in per_round[0]}
        metrics["cli.cpu_util"] = (sum(r["cpu_s"] for r in plain)
                                   / sum(r["wall_s"] for r in plain))
        for q in (50, 75):
            metrics[f"definetti.cell_p{q}_ms"] = (
                1e3 * percentile(cells, q) if cells else 0.0)
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced) - wall
        (WORK / "trace.json").write_text(json.dumps(
            [{"op": p["name"], "spans": p.get("spans", [])}
             for p in traced[-1]["procs"]]))

    digests = rounds[0]["digests"]
    incorrect = [m for r in rounds for m in r["incorrect"]]
    for r in rounds[1:]:
        if r["digests"] != digests:
            incorrect.append("CSV outputs differ between rounds with the "
                             "same seed")
            break
    failures = sorted({f for r in rounds for f in r["failures"]})
    print("env " + json.dumps(env["env"], sort_keys=True))
    print(f"rounds {len(rounds)} ({len(traced)} traced), "
          f"round walls {[round(r['wall_s'], 3) for r in rounds]}")
    for name, digest in sorted(digests.items()):
        print(f"sha256 {digest} {name}")
    for f in failures:
        print(f"failed {f}")
    for m in sorted(set(incorrect)):
        print(f"incorrect {m}")
    for name in sorted({n for r in traced for p in r["procs"]
                        for n in p.get("untraced", [])}):
        print(f"untraced {name} (not found in the package)")
    if cells:
        print(f"cell latency over {len(cells)} cells: "
              f"p50 {1e3 * percentile(cells, 50):.4g} ms, "
              f"p75 {1e3 * percentile(cells, 75):.4g} ms")
    for m in wanted:
        print(f"metric {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not incorrect,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
