"""Compiler of constraint programs into closures, and the one way to run them.

Programs never reach a general-purpose compiler (no `exec`, no `eval`): the
first `evaluate` of a Program runs the checker (`check_program`) on it, unless
`check_source` already passed it, then turns each node into one closure over
its children's and keeps the result on the Program; each call site is bound
to its `FUNCTIONS` implementation then.
The closures trust the checker, so a program it refuses never runs: each
evaluation raises its first error. Evaluation is strictly typed (numbers are
not truthy, division by zero is an error) and deterministic. Numbers are
Decimals; division rounds to 6 fractional digits, all other arithmetic is
exact. A runtime error is a `DslEvalError` at its node's (line, col); a
concept's own error is placed at its call.

`run_program` decides pass/fail for the search and the evaluator alike: only
a boolean True passes, and a runtime error or a non-boolean result fails the
plan, not the run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from functools import partial

from ..errors import DslEvalError
from ..plan.concepts import FUNCTIONS, ConceptContext, type_name
from ..plan.model import Plan
from . import syntax as S
from .check import Diagnostic, check_program, check_source

DIV_SCALE = Decimal("0.000001")
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_ORDER = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


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


# Compiled nodes are closures, or functions with their node and children bound
# by `partial`, of (env, ctx): the variables and the ConceptContext. A
# statement returns nothing; `return` raises _Returned.

def _values(items: tuple, env: dict, ctx) -> list:
    # a loop: a list comprehension is a function call of its own before 3.12
    values = []
    for item in items:
        values.append(item(env, ctx))
    return values


def _call(node: S.Call, impl, args: tuple, env: dict, ctx):
    values = _values(args, env, ctx)
    try:
        return impl(ctx, *values)
    except DslEvalError as exc:
        raise DslEvalError(str(exc), node.line, node.col) from None


def _divide(node: S.BinOp, left, right, env: dict, ctx):
    dividend = _require_number(left(env, ctx), node, "/")
    divisor = _require_number(right(env, ctx), node, "/")
    if divisor == 0:
        raise DslEvalError("division by zero", node.line, node.col)
    return (dividend / divisor).quantize(DIV_SCALE, rounding=ROUND_HALF_EVEN)


def _ordered(node: S.Compare, left, right, env: dict, ctx):
    a, b = left(env, ctx), right(env, ctx)
    if not (isinstance(a, Decimal) and isinstance(b, Decimal)
            or isinstance(a, str) and isinstance(b, str)):
        raise DslEvalError(f"cannot order {type_name(a)} and {type_name(b)} with {node.op!r}",
                           node.line, node.col)
    return _ORDER[node.op](a, b)


def _expression(node):
    match node:
        case S.Num() | S.Str() | S.Bool():
            return lambda env, ctx: node.value
        case S.Name():
            return lambda env, ctx: env[node.id]
        case S.ListLit():
            return partial(_values, tuple(map(_expression, node.items)))
        case S.Call():
            args = tuple(map(_expression, node.args))
            return partial(_call, node, FUNCTIONS[node.func][0], args)
        case S.UnaryOp():
            operand, op = _expression(node.operand), node.op
            if op == "not":
                return lambda env, ctx: not _require_bool(operand(env, ctx), node,
                                                          "operand of 'not'")
            return lambda env, ctx: -_require_number(operand(env, ctx), node, op)
        case S.IfExp():
            cond, then, orelse = map(_expression, (node.cond, node.then, node.orelse))
            test = "conditional-expression test"
            return lambda env, ctx: (
                then if _require_bool(cond(env, ctx), node, test) else orelse)(env, ctx)
    # a BinOp or a Compare
    left, right, op = _expression(node.left), _expression(node.right), node.op
    if op in ("and", "or"):
        what, decisive = f"operand of {op!r}", op == "or"    # decisive: decides alone
        return lambda env, ctx: (
            decisive if _require_bool(left(env, ctx), node, what) is decisive
            else _require_bool(right(env, ctx), node, what))
    if op in _ARITHMETIC:
        return lambda env, ctx: _ARITHMETIC[op](_require_number(left(env, ctx), node, op),
                                                _require_number(right(env, ctx), node, op))
    if op == "in":
        return lambda env, ctx: any(map(partial(_equal, left(env, ctx)), _as_collection(
            right(env, ctx), node, "right operand of 'in'")))
    if op == "==":
        return lambda env, ctx: _equal(left(env, ctx), right(env, ctx))
    if op == "!=":
        return lambda env, ctx: not _equal(left(env, ctx), right(env, ctx))
    return partial(_divide if op == "/" else _ordered, node, left, right)


def _assign(stmt: S.Assign, value, env: dict, ctx) -> None:
    result = value(env, ctx)
    if stmt.augmented:
        result = (_require_number(env[stmt.target], stmt, "+=")
                  + _require_number(result, stmt, "+="))
    env[stmt.target] = result


def _append(stmt: S.Append, value, env: dict, ctx) -> None:
    target = env[stmt.target]
    if not isinstance(target, list):
        raise DslEvalError(f"append target must be a list, got {type_name(target)}",
                           stmt.line, stmt.col)
    target.append(value(env, ctx))


def _return(value, env: dict, ctx):
    raise _Returned(value(env, ctx))


def _loop(stmt: S.For, iterable, body, env: dict, ctx) -> None:
    for item in list(_as_collection(iterable(env, ctx), stmt, "loop collection")):
        env[stmt.var] = item
        body(env, ctx)


def _run(steps: tuple, env: dict, ctx) -> None:
    for step in steps:
        step(env, ctx)


def _block(statements):
    steps = tuple(map(_statement, statements))
    return steps[0] if len(steps) == 1 else partial(_run, steps)


def _statement(stmt):
    match stmt:
        case S.Assign():
            return partial(_assign, stmt, _expression(stmt.value))
        case S.Append():
            return partial(_append, stmt, _expression(stmt.value))
        case S.Return():
            return partial(_return, _expression(stmt.value))
        case S.For():
            return partial(_loop, stmt, _expression(stmt.iterable), _block(stmt.body))
    cond, body, orelse = _expression(stmt.cond), _block(stmt.body), _block(stmt.orelse)
    return lambda env, ctx: (
        body if _require_bool(cond(env, ctx), stmt, "if condition") else orelse)(env, ctx)


def _refuse(error: Diagnostic, env: dict, ctx):
    raise DslEvalError(error.message, error.line, error.col)


def _compile(program: S.Program):
    diagnostics = () if program.checked else check_program(program)
    error = next((d for d in diagnostics if d.severity == "error"), None)
    return _block(program.statements) if error is None else partial(_refuse, error)


def evaluate(program: S.Program, plan: Plan, db=None):
    """Evaluate a program against (plan, dataset); returns its value.

    The first evaluation checks (unless `check_source` did) and compiles the
    program and keeps the result on it; a program with a checker error raises
    it before any of it runs.
    """
    if program.compiled is None:
        object.__setattr__(program, "compiled", _compile(program))
    try:
        program.compiled({"plan": plan}, ConceptContext(plan, db))
    except _Returned as ret:
        return ret.value


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
