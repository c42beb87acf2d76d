"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py JOB.json RESULT.json LAUNCH_TIME

LAUNCH_TIME is the parent's time.monotonic() just before it started this
process, so `setup_s` below covers interpreter start-up plus `import cwrmt`.
JOB["kind"] is one of
  "import"   import only (set-up probe),
  "env"      import and describe the environment,
  "cli"      `cwrmt run --config JOB["config"]`, as a CLI user runs it,
  "measure"  the mixing-measure grid as one library session.
With JOB["trace"] true, the layer entry points are wrapped (see tracing.py)
and the spans are returned with the result.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import cwrmt  # noqa: E402
from cwrmt import cli  # noqa: E402

IMPORTED = time.monotonic()

REFERENCE = HERE / "measure_reference.json"
MOMENT_KS = (2, 4, 6, 8)
# A cell passes when every moment K <= 8 is within this relative distance of
# the mpmath table: the package presents these moments as the exact oracle
# that Monte Carlo and Laplace asymptotics are checked against, and its own
# quadrature targets log Z to 1e-11.
MOMENT_REL_TOL = 1e-10
# Sampled t^2 must match the reference m2 within this many standard errors
# (plus a 1e-6 relative allowance for the inverse-CDF table).
SAMPLE_SIGMAS = 6.0


def describe_env():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cap = os.environ.get("CWRMT_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cwrmt": cwrmt.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "pool_cap": int(cap) if cap and cap.isdigit() else os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")
                       or k.startswith("CWRMT_")},
    }


def run_cli(job, out):
    config = dict(job["config"], output_dir=str(out))
    path = out / "config.json"
    path.write_text(json.dumps(config))
    with open(out / "stdout.txt", "w") as fh:
        saved, sys.stdout = sys.stdout, fh
        try:
            code = cli.main(["run", "--config", str(path)])
        finally:
            sys.stdout = saved
    return {"exit_code": code}


def measure_cell(beta, scale, seed, idx, draws):
    """One cell's work: (status, moments K=2..8, sampled t) or a failure."""
    import numpy as np
    from cwrmt import definetti
    from cwrmt.errors import CwrmtError

    rng = np.random.default_rng([seed, idx])
    try:
        m = definetti.DeFinettiMeasure(
            definetti.curie_weiss_potential(beta), scale)
        moments = [m.moment(K) for K in MOMENT_KS]
        ts = np.asarray(m.sample_t(rng, size=draws), dtype=float)
    except CwrmtError as exc:
        return type(exc).__name__, None, None
    except Exception as exc:  # a crash, not a typed failure
        return "crash:" + type(exc).__name__, None, None
    return "ok", moments, ts


def run_measure(job, out, tracer):
    """Build, take moments of and sample every grid cell; one op per cell."""
    table = json.loads(REFERENCE.read_text())["cells"]
    cells = []
    for op, idx in enumerate(job["cells"]):
        ref = table[idx]
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        status, moments, ts = measure_cell(ref["beta"], ref["scale"],
                                           job["seed"], idx, job["draws"])
        cell = {"beta": ref["beta"], "scale": ref["scale"], "idx": idx,
                "seconds": time.perf_counter() - t0,
                "rel_err": None, "t2_mean": None, "moments": moments}
        if status == "ok":
            status = _check_cell(cell, ref, moments, ts, job["draws"])
        cell["status"] = status
        cells.append(cell)
    with open(out / "measure.csv", "w") as fh:
        fh.write("beta,scale,status,m2,m4,m6,m8,rel_err_max,t2_mean\n")
        for c in cells:
            ms = c["moments"] or [None] * len(MOMENT_KS)
            fh.write(",".join(repr(v) for v in (
                c["beta"], c["scale"], c["status"], *ms, c["rel_err"],
                c["t2_mean"])) + "\n")
    return {"cells": cells}


def _check_cell(cell, ref, moments, ts, draws):
    import numpy as np
    want = [float(ref["moments"][str(K)]) for K in MOMENT_KS]
    if not all(np.isfinite(moments)):
        return "nonfinite_moment"
    cell["rel_err"] = max(abs(g - w) / abs(w) for g, w in zip(moments, want))
    if ts.shape != (draws,) or not np.all(np.abs(ts) < 1.0):
        return "sample_out_of_range"
    t2 = ts * ts
    cell["t2_mean"] = float(t2.mean())
    allowance = (SAMPLE_SIGMAS * float(t2.std()) / len(t2) ** 0.5
                 + 1e-6 * want[0])
    if abs(cell["t2_mean"] - want[0]) > allowance:
        return "sample_mismatch"
    if cell["rel_err"] > MOMENT_REL_TOL:
        return "inaccurate"
    return "ok"


def main():
    job_path, result_path, launched = sys.argv[1:4]
    job = json.loads(Path(job_path).read_text())
    result = {"setup_s": IMPORTED - float(launched)}
    if job["kind"] == "env":
        result["env"] = describe_env()
    if job["kind"] in ("cli", "measure"):
        out = Path(job["out"])
        tracer = None
        if job.get("trace"):
            import tracing  # the script's directory is on sys.path
            tracer = tracing.Tracer()
            tracing.install(tracer)
        cpu0, t0 = time.process_time(), time.perf_counter()
        if job["kind"] == "cli":
            result.update(run_cli(job, out))
        else:
            result.update(run_measure(job, out, tracer))
        result["op_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            result["spans"] = tracer.records()
            result["pool_threads"] = max(
                [len(s) for s in tracer.pool_threads], default=1)
            result["untraced"] = tracer.missing
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
