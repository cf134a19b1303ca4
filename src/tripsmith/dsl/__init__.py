"""Constraint DSL: parser, static checker and interpreter."""

from .check import (
    BUILTIN_FUNCTIONS,
    Diagnostic,
    check_program,
    check_source,
    check_syntax,
    is_clean,
)
from .interp import (
    ConstraintOutcome,
    EvalStats,
    evaluate,
    evaluate_source,
    run_constraint,
    run_program,
)
from .syntax import Program, parse, pretty

__all__ = [
    "BUILTIN_FUNCTIONS",
    "ConstraintOutcome",
    "Diagnostic",
    "EvalStats",
    "Program",
    "check_program",
    "check_source",
    "check_syntax",
    "evaluate",
    "evaluate_source",
    "is_clean",
    "parse",
    "pretty",
    "run_constraint",
    "run_program",
]
