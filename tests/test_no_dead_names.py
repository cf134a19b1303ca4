"""Every module-level name in the package is used somewhere.

A module-level function, class or constant of `src/tripsmith` that no file
under `src/`, `tests/` or `bench/` names outside its own definition is dead
code: delete it rather than keep a second copy of a rule alive. Names are
counted as words over all those files at once, so a mention in a docstring or
a string (a trace-hook path, a `__all__` entry) counts as a use.

A public one must also have a caller that is not a test: code under `src/`
that reads it (a docstring, an `__init__` import or an `__all__` entry is not
code), or a mention under `bench/`. A read inside the definition of a name
that only tests reach is no caller, and nor is a read of a name that the
enclosing function binds, which reads its local. A name that only tests call
is declared in `TEST_ONLY` with the reason it is kept; an API that has neither
goes.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tripsmith"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# public names that only tests call, with the reason each is kept
TEST_ONLY = {
    "CallableTransport": "criterion 11's harness: a model transport from a function",
    "FaultInjectingTransport": "criterion 11's harness: injects model-call faults",
    "RecordingTransport": "criterion 11's harness: records model calls",
    "preference_ranking": "the paper's preference axis: ranks plans by one preference",
    "aggregate_rankings": "the paper's preference axis: joins the per-preference ranks",
    "nl2dsl": "the paper's NL-to-DSL step: query text to checked programs",
    "enumerate_complete_plans": "the unpruned search, the oracle of the pruned one",
    "micro_solve": "criterion 08: the desk-scale exact solver",
    "MilpModel": "reached only through micro_solve: the model it solves, read from an LP file",
    "synthetic_slice": "criterion 07 and the pinned LP bytes: a slice of given dimensions",
    "DOWNSAMPLE": "criterion 07: the published-scale model dimensions",
    "decode_assignment": "the oracle of the exact model's decoded plans (ROADMAP direction 4)",
    "parse_plan": "the plan-text reader of the DSL and plan-model tests",
    "TranslationSession": "reached only through nl2dsl: the rounds of one translation",
    "TranslationRound": "reached only through nl2dsl: one program text and its diagnostics",
    "DEFAULT_MAX_ROUNDS": "reached only through nl2dsl: how many rounds it tries",
    "check_assignment": "reached only through micro_solve: re-checks its solution on every row",
    "SolveRefusedError": "reached only through micro_solve: a model past its caps",
    "VARIABLE_LIMIT": "reached only through micro_solve: the most variables it takes",
    "NODE_LIMIT": "reached only through micro_solve: the most search nodes it visits",
    "ENUMERATION_LIMIT": "reached only through enumerate_complete_plans: its most plans",
    "MINIMIZE": "reached only through preference_ranking: a ranking direction",
    "MAXIMIZE": "reached only through preference_ranking: a ranking direction",
}


def _defined_names(statements: list[ast.stmt]):
    """(name, line) of each function, class and assigned name the statements define."""
    for node in statements:
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
            for name, line in _defined_names(ast.parse(text).body):
                if not (name.startswith("__") and name.endswith("__")):
                    site = f"{path.relative_to(ROOT)}:{line} {name}"
                    sites.setdefault(name, []).append(site)
    dead = sorted(site for name, where in sites.items()
                  if words[name] <= len(where) for site in where)
    assert not dead, "used nowhere but in their definition: " + ", ".join(dead)


def _bound_names(function) -> set[str]:
    """The names a function binds: its arguments and its assignment targets."""
    args = function.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return ({arg.arg for arg in params if arg is not None}
            | {node.id for node in ast.walk(function)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)})


def _reads(node: ast.AST, bound: frozenset = frozenset()):
    """The names read as code under `node`, but for a name that an enclosing
    function binds, whose reads are of that local."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | _bound_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, bound)


def _statement_reads(tree: ast.Module):
    """(names defined, names read as code) of each module-level statement,
    the names it defines left out of what it reads."""
    for statement in tree.body:
        defined = {name for name, _ in _defined_names([statement])}
        yield defined, set(_reads(statement)) - defined


def test_a_read_of_a_local_is_no_read_of_the_module_name():
    tree = ast.parse("def concept(name):\n    return name\n"
                     "def by_argument(concept):\n    return concept(1)\n"
                     "def by_assignment():\n    concept = make()\n    return concept(2)\n"
                     "by_lambda = lambda concept: concept(3)\n"
                     "def caller():\n    return concept(4)\n")
    assert list(_statement_reads(tree)) == [
        ({"concept"}, set()), ({"by_argument"}, set()), ({"by_assignment"}, {"make"}),
        ({"by_lambda"}, set()), ({"caller"}, {"concept"})]


def test_test_only_names_are_declared():
    statements = []
    sites: dict[str, list[str]] = {}    # public name -> where it is defined
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += _statement_reads(tree)
        for name, line in _defined_names(tree.body):
            if not name.startswith("_"):
                sites.setdefault(name, []).append(f"{path.relative_to(ROOT)}:{line} {name}")
    bench = {word for path in (ROOT / "bench").rglob("*.py")
             for word in WORD.findall(path.read_text(encoding="utf-8"))}
    # A read inside the definition of a name that only tests reach is no
    # caller either: drop such definitions' reads until no more names fall out.
    defined = set().union(*(names for names, _ in statements))
    test_reached: set[str] = set()
    while True:
        skip = test_reached | set(TEST_ONLY)
        called = bench.union(*(read for names, read in statements
                               if not names or not names <= skip))
        if defined - called == test_reached:
            break
        test_reached = defined - called
    undeclared = sorted(site for name, where in sites.items()
                        if name not in called and name not in TEST_ONLY for site in where)
    assert not undeclared, ("no code under src/ or bench/ calls these; declare each in "
                            "TEST_ONLY with its reason, or delete it: " + ", ".join(undeclared))
    stale = sorted(name for name in TEST_ONLY if name not in sites or name in called)
    assert not stale, ("TEST_ONLY names these, which are undefined or have a caller: "
                       + ", ".join(stale))
