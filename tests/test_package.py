"""Package-wide source checks."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import cwrmt
from cwrmt.cli import ExperimentSpec

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements():
    # an invariant is enforced by an explicit raise: `python -O` strips
    # assert statements
    found = []
    for path in sorted(Path(cwrmt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_traced_names_resolve():
    # the benchmark's tracer wraps module attributes by name and skips the
    # ones it cannot find; installing it patches the package in place, so it
    # runs in a subprocess
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from tracing import Tracer, install; "
            "t = Tracer(); install(t); print(t.missing)")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "[]"


def test_all_entries_resolve():
    # a name deleted from a module must leave its __all__ too
    stale = []
    for info in pkgutil.iter_modules(cwrmt.__path__):
        module = importlib.import_module(f"cwrmt.{info.name}")
        stale += [f"{info.name}.{name}"
                  for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []


def test_readme_python_blocks_run():
    # the README's examples use the public names, so one removed from the
    # package fails here instead of leaving the docs broken
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for code in blocks:
        res = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert res.returncode == 0, res.stderr


def test_readme_configs_parse():
    # a documented config key the CLI no longer accepts fails here
    blocks = re.findall(r"```json\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for text in blocks:
        ExperimentSpec.from_dict(json.loads(text))
