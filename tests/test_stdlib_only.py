"""The runtime imports nothing outside the standard library (`dependencies = []`).

Some third-party packages happen to be installed where the tests run, so an
accidental import would still work there; this test reads the imports instead.
"""

import ast
import sys
from pathlib import Path

import tripsmith

SOURCE_ROOT = Path(tripsmith.__file__).parent


def imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


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
