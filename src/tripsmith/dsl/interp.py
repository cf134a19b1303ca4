"""Closed tree-walking interpreter for constraint programs.

Programs are never handed to a general-purpose compiler: evaluation happens
entirely inside this module, with strict typing (numbers are not truthy,
division by zero is an error) and deterministic results. Numbers are Decimals;
division rounds to 6 fractional digits, all other arithmetic is exact. Every
call, builtin or concept, is resolved and arity-checked by `concept()`.

Each program is checked once (`check_source`); `run_program` then decides
pass/fail for the search and the evaluator alike: only a boolean True passes,
and a runtime error or a non-boolean result fails the plan, not the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal

from ..errors import DslEvalError
from ..plan.concepts import ConceptContext, concept, type_name
from ..plan.model import Plan
from . import syntax as S
from .check import Diagnostic, check_source

DIV_SCALE = Decimal("0.000001")


class _Returned(Exception):
    def __init__(self, value):
        self.value = value


def _require_bool(value, node, what: str) -> bool:
    if not isinstance(value, bool):
        raise DslEvalError(f"{what} must be a boolean, got {type_name(value)}",
                           node.line, node.col)
    return value


def _require_number(value, node, op: str) -> Decimal:
    if not isinstance(value, Decimal):
        raise DslEvalError(f"operator {op!r} needs numbers, got {type_name(value)}",
                           node.line, node.col)
    return value


def _scalar_key(value):
    if isinstance(value, bool):
        return (0, value)
    if isinstance(value, Decimal):
        return (1, value)
    return (2, value)


def _as_collection(value, node, what: str) -> list:
    if isinstance(value, list):
        return value
    if isinstance(value, frozenset):
        return sorted(value, key=_scalar_key)
    raise DslEvalError(f"{what} must be a list or set, got {type_name(value)}",
                       node.line, node.col)


def _equal(a, b) -> bool:
    """DSL equality: values of different types are never equal, so True != 1,
    and two lists are equal when their elements are, pair by pair."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b


class _Interpreter:
    def __init__(self, plan: Plan, dataset):
        self.env: dict = {"plan": plan}
        self.ctx = ConceptContext(plan, dataset)

    def run(self, program: S.Program):
        try:
            self.block(program.statements)
        except _Returned as ret:
            return ret.value
        raise DslEvalError("program finished without returning a value")

    def block(self, statements) -> None:
        for stmt in statements:
            self.statement(stmt)

    def statement(self, stmt) -> None:
        if isinstance(stmt, S.Assign):
            value = self.eval(stmt.value)
            if stmt.augmented:
                current = self.lookup(stmt.target, stmt)
                lhs = _require_number(current, stmt, "+=")
                rhs = _require_number(value, stmt, "+=")
                value = lhs + rhs
            self.env[stmt.target] = value
        elif isinstance(stmt, S.Append):
            target = self.lookup(stmt.target, stmt)
            if not isinstance(target, list):
                raise DslEvalError(f"append target must be a list, got {type_name(target)}",
                                   stmt.line, stmt.col)
            target.append(self.eval(stmt.value))
        elif isinstance(stmt, S.Return):
            raise _Returned(self.eval(stmt.value))
        elif isinstance(stmt, S.For):
            items = _as_collection(self.eval(stmt.iterable), stmt, "loop collection")
            for item in list(items):
                self.env[stmt.var] = item
                self.block(stmt.body)
        elif isinstance(stmt, S.If):
            cond = _require_bool(self.eval(stmt.cond), stmt, "if condition")
            if cond:
                self.block(stmt.body)
            elif stmt.orelse:
                self.block(stmt.orelse)
        else:
            raise TypeError(f"unhandled statement {type(stmt).__name__}")

    def lookup(self, name: str, node):
        try:
            return self.env[name]
        except KeyError:
            raise DslEvalError(f"variable {name!r} is not assigned",
                               node.line, node.col) from None

    def call(self, node: S.Call):
        args = [self.eval(arg) for arg in node.args]
        try:
            return concept(node.func, args, self.ctx)
        except DslEvalError as exc:
            raise DslEvalError(str(exc), node.line, node.col) from None

    def eval(self, node):
        if isinstance(node, (S.Num, S.Str, S.Bool)):
            return node.value
        if isinstance(node, S.Name):
            return self.lookup(node.id, node)
        if isinstance(node, S.ListLit):
            return [self.eval(item) for item in node.items]
        if isinstance(node, S.Call):
            return self.call(node)
        if isinstance(node, S.UnaryOp):
            value = self.eval(node.operand)
            if node.op == "not":
                return not _require_bool(value, node, "operand of 'not'")
            return -_require_number(value, node, "-")
        if isinstance(node, S.BinOp):
            return self.binop(node)
        if isinstance(node, S.Compare):
            return self.compare(node)
        if isinstance(node, S.IfExp):
            cond = _require_bool(self.eval(node.cond), node, "conditional-expression test")
            return self.eval(node.then) if cond else self.eval(node.orelse)
        raise TypeError(f"unhandled node {type(node).__name__}")

    def binop(self, node: S.BinOp):
        if node.op in ("and", "or"):
            left = _require_bool(self.eval(node.left), node, f"operand of {node.op!r}")
            if node.op == "and" and not left:
                return False
            if node.op == "or" and left:
                return True
            return _require_bool(self.eval(node.right), node, f"operand of {node.op!r}")
        left = _require_number(self.eval(node.left), node, node.op)
        right = _require_number(self.eval(node.right), node, node.op)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0:
            raise DslEvalError("division by zero", node.line, node.col)
        return (left / right).quantize(DIV_SCALE, rounding=ROUND_HALF_EVEN)

    def compare(self, node: S.Compare):
        left = self.eval(node.left)
        right = self.eval(node.right)
        if node.op == "in":
            items = _as_collection(right, node, "right operand of 'in'")
            return any(_equal(left, item) for item in items)
        if node.op == "==":
            return _equal(left, right)
        if node.op == "!=":
            return not _equal(left, right)
        both_numbers = isinstance(left, Decimal) and isinstance(right, Decimal)
        both_text = isinstance(left, str) and isinstance(right, str)
        if not (both_numbers or both_text):
            raise DslEvalError(
                f"cannot order {type_name(left)} and {type_name(right)} with {node.op!r}",
                node.line, node.col,
            )
        if node.op == "<":
            return left < right
        if node.op == ">":
            return left > right
        if node.op == "<=":
            return left <= right
        return left >= right


def evaluate(program: S.Program, plan: Plan, db=None):
    """Evaluate a checked program against (plan, dataset); returns its value."""
    return _Interpreter(plan, db).run(program)


def evaluate_source(source: str, plan: Plan, db=None):
    return evaluate(S.parse(source), plan, db)


@dataclass
class ConstraintOutcome:
    passed: bool
    value: object = None
    diagnostics: list[Diagnostic] = field(default_factory=list)


def run_program(program: S.Program, plan: Plan, db=None) -> ConstraintOutcome:
    """Run one checked constraint; failures count against the plan, not the run."""
    try:
        value = evaluate(program, plan, db)
    except DslEvalError as exc:
        return ConstraintOutcome(False, None,
                                 [Diagnostic("error", exc.line, exc.col, str(exc))])
    if not isinstance(value, bool):
        warning = Diagnostic(
            "warning", 1, 1,
            f"constraint returned {type_name(value)}, coercing to false",
            hint="constraints must return a boolean",
        )
        return ConstraintOutcome(False, value, [warning])
    return ConstraintOutcome(value, value, [])


def run_constraint(source: str, plan: Plan, db=None) -> ConstraintOutcome:
    """Check and run one constraint source; an unclean source fails the plan."""
    program, diagnostics = check_source(source)
    if program is None:
        return ConstraintOutcome(False, None, diagnostics)
    return run_program(program, plan, db)
