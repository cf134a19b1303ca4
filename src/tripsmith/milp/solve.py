"""Desk-scale exact solver for small instances.

Depth-first branch-and-propagate over the model's variables: every constraint
keeps running min/max bounds of its left side, infeasible prefixes are cut,
and single-value domains are fixed by propagation. Exact and deterministic,
meant for toy models and test oracles only - refuses anything above 2,000
variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from ..errors import SolveRefusedError
from .build import VarInfo

VARIABLE_LIMIT = 2000
NODE_LIMIT = 500_000


@dataclass
class MilpModel:
    """A model as the solver takes it: the variables it tries in order, and its rows."""

    variables: dict[str, VarInfo]
    rows: list[tuple]       # (name, ((coef, var), ...), "<=" | ">=" | "=", rhs, category)
    objective: tuple = ()


class _Problem:
    def __init__(self, model: MilpModel):
        self.names = list(model.variables)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.domains = []
        for name in self.names:
            info = model.variables[name]
            self.domains.append((info.lo, info.hi))
        self.rows = []
        self.rows_by_var: list[list[int]] = [[] for _ in self.names]
        for name, row_terms, sense, rhs, _ in model.rows:
            ridx = len(self.rows)
            terms = [(coef, self.index[var]) for coef, var in row_terms if coef != 0]
            self.rows.append((terms, sense, rhs, name))
            for _, vidx in terms:
                self.rows_by_var[vidx].append(ridx)

    def bounds(self, terms, values) -> tuple:
        lo = Decimal(0) if any(isinstance(c, Decimal) for c, _ in terms) else 0
        hi = lo
        for coef, vidx in terms:
            value = values[vidx]
            if value is not None:
                lo += coef * value
                hi += coef * value
            else:
                dlo, dhi = self.domains[vidx]
                if coef > 0:
                    lo += coef * dlo
                    hi += coef * dhi
                else:
                    lo += coef * dhi
                    hi += coef * dlo
        return lo, hi

    def row_feasible(self, ridx: int, values) -> bool:
        terms, sense, rhs, _ = self.rows[ridx]
        lo, hi = self.bounds(terms, values)
        if sense == "<=":
            return lo <= rhs
        if sense == ">=":
            return hi >= rhs
        return lo <= rhs <= hi

    def propagate(self, values, touched: list[int]) -> bool:
        """Fix forced values; False when some row cannot be satisfied."""
        queue = list(touched)
        seen_rows = set(queue)
        while queue:
            ridx = queue.pop()
            seen_rows.discard(ridx)
            if not self.row_feasible(ridx, values):
                return False
            terms, sense, rhs, _ = self.rows[ridx]
            for coef, vidx in terms:
                if values[vidx] is not None:
                    continue
                dlo, dhi = self.domains[vidx]
                feasible_values = []
                for candidate in range(dlo, dhi + 1):
                    values[vidx] = candidate
                    if self.row_feasible(ridx, values):
                        feasible_values.append(candidate)
                    values[vidx] = None
                if not feasible_values:
                    return False
                if len(feasible_values) == 1:
                    values[vidx] = feasible_values[0]
                    for other in self.rows_by_var[vidx]:
                        if other not in seen_rows:
                            queue.append(other)
                            seen_rows.add(other)
        return True


def check_assignment(model: MilpModel, assignment: dict[str, int]) -> list[str]:
    """Names of rows the assignment violates (empty = all satisfied)."""
    violated = []
    for name, terms, sense, rhs, _ in model.rows:
        total = sum(coef * assignment[var] for coef, var in terms)
        ok = (
            total <= rhs if sense == "<=" else
            total >= rhs if sense == ">=" else
            total == rhs
        )
        if not ok:
            violated.append(name)
    return violated


def micro_solve(model: MilpModel) -> dict[str, int] | None:
    """A feasible assignment, or None when the model is proven infeasible."""
    if len(model.variables) > VARIABLE_LIMIT:
        raise SolveRefusedError(
            f"micro_solve handles at most {VARIABLE_LIMIT} variables, "
            f"got {len(model.variables)}"
        )
    problem = _Problem(model)
    count = len(problem.names)
    values: list = [None] * count
    nodes = 0

    # fixed single-value domains first
    for vidx, (lo, hi) in enumerate(problem.domains):
        if lo == hi:
            values[vidx] = lo
    if not problem.propagate(values, list(range(len(problem.rows)))):
        return None

    def first_unassigned() -> int:
        for vidx in range(count):
            if values[vidx] is None:
                return vidx
        return -1

    def search() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > NODE_LIMIT:
            raise SolveRefusedError("micro_solve search budget exceeded")
        vidx = first_unassigned()
        if vidx < 0:
            return True
        dlo, dhi = problem.domains[vidx]
        snapshot = list(values)
        for candidate in range(dlo, dhi + 1):
            values[vidx] = candidate
            if problem.propagate(values, list(problem.rows_by_var[vidx])):
                if search():
                    return True
            values[:] = snapshot
            values[vidx] = None
        return False

    if not search():
        return None
    assignment = {name: int(values[problem.index[name]]) for name in problem.names}
    leftovers = check_assignment(model, assignment)
    if leftovers:
        raise SolveRefusedError(f"internal error: solution violates {leftovers[:3]}")
    return assignment
