"""Soft-preference scoring and method ranking.

A preference is a constraint program returning a number instead of a boolean
(-1 is the conventional "undefined" sentinel and is passed through untouched).
Methods are compared per query by ranking their values, best rank 1, ties
sharing the mean rank; rank averages aggregate across queries, and across
preferences by plain mean.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from ..dsl import check_source, evaluate
from ..errors import InputError

MAXIMIZE = "maximize"
MINIMIZE = "minimize"


def preference_value(plan, preference_source: str, dataset) -> Decimal:
    """Check and run one preference program against a plan; numeric result expected."""
    program, diagnostics = check_source(preference_source)
    if program is None:
        raise InputError("preference program does not check clean: "
                         + "; ".join(d.render() for d in diagnostics))
    value = evaluate(program, plan, dataset)
    if not isinstance(value, Decimal):
        raise InputError("preference programs must return a number")
    return value


def _ranks_for_query(values: list[Decimal], direction: str) -> list[Fraction]:
    """Competition-free ranks 1..M, ties share the mean of their positions."""
    reverse = direction == MAXIMIZE
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=reverse)
    ranks: list[Fraction] = [Fraction(0)] * len(values)
    pos = 0
    while pos < len(order):
        tied = [order[pos]]
        while pos + len(tied) < len(order) and values[order[pos + len(tied)]] == values[tied[0]]:
            tied.append(order[pos + len(tied)])
        mean_rank = Fraction(sum(range(pos + 1, pos + len(tied) + 1)), len(tied))
        for idx in tied:
            ranks[idx] = mean_rank
        pos += len(tied)
    return ranks


def preference_ranking(
    values_by_method: dict[str, list[Decimal]],
    direction: str,
) -> dict[str, Fraction]:
    """Average rank per method over a shared query list."""
    if direction not in (MAXIMIZE, MINIMIZE):
        raise InputError(f"direction must be {MAXIMIZE!r} or {MINIMIZE!r}")
    if not values_by_method:
        raise InputError("no methods to rank")
    methods = sorted(values_by_method)
    lengths = {len(values_by_method[m]) for m in methods}
    if len(lengths) != 1:
        raise InputError("methods were scored on different query sets")
    (count,) = lengths
    if count == 0:
        raise InputError("cannot rank over an empty query set")

    totals = {m: Fraction(0) for m in methods}
    for q in range(count):
        per_query = [values_by_method[m][q] for m in methods]
        for method, rank in zip(methods, _ranks_for_query(per_query, direction)):
            totals[method] += rank
    return {m: totals[m] / count for m in methods}


def aggregate_rankings(per_preference: list[dict[str, Fraction]]) -> dict[str, Fraction]:
    """Multi-preference aggregation: mean of per-preference average ranks."""
    if not per_preference:
        raise InputError("nothing to aggregate")
    methods = set(per_preference[0])
    for ranking in per_preference:
        if set(ranking) != methods:
            raise InputError("rankings cover different method sets")
    return {
        m: sum((r[m] for r in per_preference), Fraction(0)) / len(per_preference)
        for m in sorted(methods)
    }
