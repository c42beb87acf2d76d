"""Package-wide source checks."""

import ast
from pathlib import Path

import cwrmt


def test_no_assert_statements():
    # an invariant is enforced by an explicit raise: `python -O` strips
    # assert statements
    found = []
    for path in sorted(Path(cwrmt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
