"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import slopelab


def test_package_has_no_assert():
    # python -O strips assert statements; every check in src/ must be an error
    found = []
    for path in sorted(Path(slopelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
