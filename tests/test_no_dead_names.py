"""Every module-level name in the package is used somewhere.

A module-level function, class or constant of `src/tripsmith` that no file
under `src/`, `tests/` or `bench/` names outside its own definition is dead
code: delete it rather than keep a second copy of a rule alive. Names are
counted as words over all those files at once, so a mention in a docstring or
a string (a trace-hook path, a `__all__` entry) counts as a use.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tripsmith"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _defined_names(tree: ast.Module):
    """(name, line) of each function, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_every_module_level_name_is_used():
    files = [path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")]
    words: Counter = Counter()
    sites: dict[str, list[str]] = {}    # name -> where it is defined
    for path in files:
        text = path.read_text(encoding="utf-8")
        words.update(WORD.findall(text))
        if PACKAGE in path.parents:
            for name, line in _defined_names(ast.parse(text)):
                if not (name.startswith("__") and name.endswith("__")):
                    site = f"{path.relative_to(ROOT)}:{line} {name}"
                    sites.setdefault(name, []).append(site)
    dead = sorted(site for name, where in sites.items()
                  if words[name] <= len(where) for site in where)
    assert not dead, "used nowhere but in their definition: " + ", ".join(dead)
