"""Static checks for constraint programs.

`check_syntax` reports, with positions and repair hints:

* lexical / syntactic errors (including constructs outside the language),
* calls to unknown functions (with a nearest-name suggestion),
* arity mismatches against the function table (`plan.concepts.FUNCTIONS`),
* variables used before any assignment,
* programs that can finish without reaching a `return`.

`check_program` is the one gate before a program runs: `dsl.interp.evaluate`
runs no Program it reports an error for. `check_source` parses a text and
returns the Program only when no diagnostic is an error, marked `checked`, so
`evaluate` does not check it again; callers run that Program as often as they
need without parsing it again. All callers share an LRU cache of the last
`CHECK_CACHE_SIZE` texts checked, so a repeated text is parsed, checked and
compiled once; each gets its own diagnostics list.
"""

from __future__ import annotations

import difflib
import functools
from dataclasses import dataclass

from ..errors import DslSyntaxError
from ..plan.concepts import FUNCTIONS, arity_message
from . import syntax as S

# names bound by the runtime before the first statement executes
PREBOUND_NAMES = ("plan",)

CHECK_CACHE_SIZE = 128     # generated queries repeat a few dozen template texts


@dataclass(frozen=True)
class Diagnostic:
    severity: str          # "error" | "warning"
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self, filename: str = "<dsl>") -> str:
        text = f"{filename}:{self.line}:{self.col}: {self.severity}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text


class _Checker:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def error(self, node, message, hint=""):
        self.diagnostics.append(Diagnostic("error", node.line, node.col, message, hint))

    def warning(self, node, message, hint=""):
        self.diagnostics.append(Diagnostic("warning", node.line, node.col, message, hint))

    # expression walk; `assigned` is the definitely-assigned variable set
    def expr(self, node, assigned: set):
        if isinstance(node, (S.Num, S.Str, S.Bool)):
            return
        if isinstance(node, S.Name):
            if node.id not in assigned:
                self.error(node, f"variable {node.id!r} used before assignment",
                           hint="assign it on an earlier line")
            return
        if isinstance(node, S.ListLit):
            for item in node.items:
                self.expr(item, assigned)
            return
        if isinstance(node, S.Call):
            entry = FUNCTIONS.get(node.func)
            if entry is None:
                close = difflib.get_close_matches(node.func, FUNCTIONS, n=1)
                hint = f"did you mean {close[0]!r}?" if close else "see the concept-function list"
                self.error(node, f"unknown concept function {node.func!r}", hint)
            else:
                _, lo, hi = entry
                if not lo <= len(node.args) <= hi:
                    self.error(node, arity_message(node.func, len(node.args)))
            for arg in node.args:
                self.expr(arg, assigned)
            return
        if isinstance(node, S.UnaryOp):
            self.expr(node.operand, assigned)
            return
        if isinstance(node, (S.BinOp, S.Compare)):
            self.expr(node.left, assigned)
            self.expr(node.right, assigned)
            return
        if isinstance(node, S.IfExp):
            self.condition(node.cond, assigned)
            self.expr(node.then, assigned)
            self.expr(node.orelse, assigned)
            return
        raise TypeError(f"unhandled node {type(node).__name__}")

    def condition(self, node, assigned: set):
        # numbers are not truthy in this language; flag obviously wrong guards
        if isinstance(node, (S.Num, S.Str, S.ListLit)) or (
            isinstance(node, S.BinOp) and node.op in ("+", "-", "*", "/")
        ):
            self.warning(node, "condition is not a boolean expression",
                         hint="comparisons like == or <= produce booleans")
        self.expr(node, assigned)

    def block(self, statements, assigned: set) -> set:
        for stmt in statements:
            if isinstance(stmt, S.Assign):
                if stmt.augmented and stmt.target not in assigned:
                    self.error(stmt, f"variable {stmt.target!r} used before assignment",
                               hint="initialise it before accumulating with +=")
                self.expr(stmt.value, assigned)
                assigned = assigned | {stmt.target}
            elif isinstance(stmt, S.Append):
                if stmt.target not in assigned:
                    self.error(stmt, f"variable {stmt.target!r} used before assignment",
                               hint="create the list first, e.g. xs = list()")
                self.expr(stmt.value, assigned)
            elif isinstance(stmt, S.Return):
                self.expr(stmt.value, assigned)
            elif isinstance(stmt, S.For):
                self.expr(stmt.iterable, assigned)
                self.block(stmt.body, assigned | {stmt.var})
                # body may run zero times: nothing becomes definitely assigned
            elif isinstance(stmt, S.If):
                self.condition(stmt.cond, assigned)
                then_set = self.block(stmt.body, set(assigned))
                else_set = self.block(stmt.orelse, set(assigned)) if stmt.orelse else assigned
                assigned = then_set & else_set
            else:
                raise TypeError(f"unhandled statement {type(stmt).__name__}")
        return assigned

    @staticmethod
    def always_returns(statements) -> bool:
        for stmt in statements:
            if isinstance(stmt, S.Return):
                return True
            if isinstance(stmt, S.If) and stmt.orelse:
                if _Checker.always_returns(stmt.body) and _Checker.always_returns(stmt.orelse):
                    return True
        return False


def check_program(program: S.Program) -> list[Diagnostic]:
    """The diagnostics of one parsed program; it may run only if none is an error."""
    checker = _Checker()
    checker.block(program.statements, set(PREBOUND_NAMES))
    if not checker.always_returns(program.statements):
        checker.error(program.statements[-1], "program can finish without reaching a return",
                      hint="end with `return <expression>`")
    return checker.diagnostics


@functools.lru_cache(maxsize=CHECK_CACHE_SIZE)
def _checked(source: str) -> tuple[S.Program | None, tuple[Diagnostic, ...]]:
    try:
        program = S.parse(source)
    except DslSyntaxError as exc:
        return None, (Diagnostic("error", exc.line, exc.col, str(exc),
                                 hint="fix the syntax before anything else is checked"),)
    diagnostics = check_program(program)
    if not is_clean(diagnostics):
        return None, tuple(diagnostics)
    object.__setattr__(program, "checked", True)
    return program, tuple(diagnostics)


def check_source(source: str) -> tuple[S.Program | None, list[Diagnostic]]:
    """(program, diagnostics) of one source; the program is None unless clean."""
    program, diagnostics = _checked(source)
    return program, list(diagnostics)


def check_syntax(source: str) -> list[Diagnostic]:
    """All diagnostics for one source text; empty means clean."""
    return check_source(source)[1]


def is_clean(diagnostics: list[Diagnostic]) -> bool:
    return not any(d.severity == "error" for d in diagnostics)
