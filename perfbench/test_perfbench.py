"""Self-test of the benchmark at toy size.

    python3 -m pytest -q perfbench/test_perfbench.py

For every workload, an untraced and a traced run with the same seed must
print every metric BENCHMARK.json names, with its unit, pass their output
checks and write byte-identical CSVs.  Without the package sources the
benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def digests(stdout):
    return sorted(line for line in stdout.splitlines()
                  if line.startswith("sha256 "))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    runs = {trace: bench(ROOT, workload, trace) for trace in (0, 1)}
    for trace, proc in runs.items():
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and 0 <= result["failed"]
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    assert digests(runs[0].stdout)
    assert digests(runs[0].stdout) == digests(runs[1].stdout)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "esd", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
