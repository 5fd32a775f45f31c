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


def _defined_and_used():
    """The names of the functions, classes and methods defined in src/,
    dunders left out, and every name src/ reads: Name, Attribute and
    import alias nodes."""
    trees = [ast.parse(path.read_text()) for path in sorted(Path(slopelab.__file__).parent.glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return {name for name in defined if not (name.startswith("__") and name.endswith("__"))}, used


def test_every_private_name_has_a_library_caller():
    # code that only tests call belongs in the tests: every private
    # function, class and method defined in src/ is named somewhere in src/
    defined, used = _defined_and_used()
    private = {name for name in defined if name.startswith("_")}
    assert len(private) > 100
    assert sorted(private - used) == []


def test_every_public_name_has_a_library_caller():
    # the same for public functions, classes and methods: each is named in
    # src/, by a library caller or the command line (cli.main is named by
    # its own __main__ guard)
    defined, used = _defined_and_used()
    public = {name for name in defined if not name.startswith("_")}
    assert len(public) > 100
    assert sorted(public - used) == []
