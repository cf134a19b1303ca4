"""The runtime imports nothing outside the standard library (`dependencies = []`),
and it runs on Python 3.10.

Some third-party packages happen to be installed where the tests run, so an
accidental import would still work there; this test reads the imports instead.
The tests may run on a newer Python than 3.10, whose `sys.stdlib_module_names`
lists modules 3.10 lacks, so those modules are named here, and every file is
parsed with the 3.10 grammar.
"""

import ast
import sys
from pathlib import Path

import tripsmith

SOURCE_ROOT = Path(tripsmith.__file__).parent
REPO_ROOT = Path(__file__).resolve().parents[1]
OLDEST_PYTHON = (3, 10)
# standard-library modules that Python 3.10 does not have
ADDED_AFTER_3_10 = {"tomllib", "wsgiref.types"}


def imported_names(path: Path) -> set[str]:
    """Dotted names of the modules a file imports, and of what it imports from them."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def imported_roots(path: Path) -> set[str]:
    return {name.split(".")[0] for name in imported_names(path)}


def test_every_import_is_stdlib_or_tripsmith():
    files = sorted(SOURCE_ROOT.rglob("*.py"))
    assert files
    outside = {
        f"{path.relative_to(SOURCE_ROOT)}: {root}"
        for path in files
        for root in imported_roots(path)
        if root != "tripsmith" and root not in sys.stdlib_module_names
    }
    assert outside == set()


def test_no_import_needs_a_python_newer_than_3_10():
    newer = {
        f"{path.relative_to(SOURCE_ROOT)}: {name}"
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        for name in imported_names(path)
        if name in ADDED_AFTER_3_10
    }
    assert newer == set()


def test_every_file_parses_with_the_3_10_grammar():
    files = [path for top in ("src", "tests", "bench")
             for path in sorted((REPO_ROOT / top).rglob("*.py"))]
    assert len(files) > 40
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=OLDEST_PYTHON)
