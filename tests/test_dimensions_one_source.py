"""A model's dimensions have one source: the slice it instantiates.

`MilpSlice.params` reads the counts off the slice's own rows, routes and time
grid, so the rows a builder instantiates and the dimensions it indexes them by
cannot disagree. A module of `src/tripsmith` that assembled a `MilpParams` by
hand would bring back a second description of the same model, so only the
reference configuration `DOWNSAMPLE` and `MilpSlice.params` construct one.

The same holds for the model's variable names: the builder spells each
family once, and every other module of the model package reads the names
from the builder's families.
"""

import ast
from pathlib import Path

from tripsmith.milp import VAR_CATEGORIES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tripsmith"
ALLOWED = {"milp/params.py:DOWNSAMPLE", "milp/params.py:MilpSlice.params"}


def _constructions(path: Path):
    """`file:scope` of each call of `MilpParams` in `path`; the scope is the
    enclosing class and function names, or the assigned module-level name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    where = path.relative_to(PACKAGE).as_posix()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        elif isinstance(node, ast.Assign) and not scope:
            scope = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "MilpParams":
                yield f"{where}:{'.'.join(scope) or '<module>'}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(tree, [])


def test_only_the_slice_and_the_reference_configuration_build_dimensions():
    found = sorted(site for path in PACKAGE.rglob("*.py") for site in _constructions(path))
    assert set(found) == ALLOWED and len(found) == len(ALLOWED), (
        "MilpParams is built outside DOWNSAMPLE and MilpSlice.params: "
        + ", ".join(site for site in found if site not in ALLOWED))


def _spelled_variable_names(path: Path):
    """`file:line` of each f-string in `path` that starts with the prefix of a
    variable family (`<category>_`), that is, that spells a variable name."""
    prefixes = tuple(f"{category}_" for category in VAR_CATEGORIES)
    where = path.relative_to(PACKAGE).as_posix()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.JoinedStr) and node.values:
            head = node.values[0]
            if (isinstance(head, ast.Constant) and isinstance(head.value, str)
                    and head.value.startswith(prefixes)):
                yield f"{where}:{node.lineno}"


def test_only_the_builder_spells_variable_names():
    """The builder declares every variable family, so a name spelled anywhere
    else in the model package is a second copy that can drift from it."""
    found = [site for path in sorted((PACKAGE / "milp").glob("*.py"))
             if path.name != "build.py" for site in _spelled_variable_names(path)]
    assert not found, "variable names spelled outside milp/build.py: " + ", ".join(found)
