"""Constraint DSL: parser, static checker and closure compiler."""

from .check import (
    Diagnostic,
    check_source,
    check_syntax,
    is_clean,
)
from .interp import (
    ConstraintOutcome,
    evaluate,
    evaluate_source,
    run_constraint,
    run_program,
)
from .syntax import Program, parse

__all__ = [
    "ConstraintOutcome",
    "Diagnostic",
    "Program",
    "check_source",
    "check_syntax",
    "evaluate",
    "evaluate_source",
    "is_clean",
    "parse",
    "run_constraint",
    "run_program",
]
