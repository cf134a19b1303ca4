"""Candidate ranking.

A ranker returns the candidates to try for one expansion step, best first.
The built-in heuristic mirrors how a frugal traveller would choose: anything
matching a term the query asked for comes first, and when a budget is in play
cheaper options are tried before expensive ones, a match breaking ties of
price. All sorts are stable, so a run is reproducible from (query, database)
alone. A row's key depends only on the row, the required terms and the budget
use, so rows taken from a table in table order sort as that subsequence of
the whole table's order: the heuristic ranks a `TableView` by walking its
table's cached order past the left-out rows.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import filterfalse, islice
from typing import Protocol

from ..sandbox import IntercityRoute
from .context import QueryContext
from .state import SearchState

MAX_BRANCHING = 10      # ranked candidates the search tries per expansion
ORDER_MEMO_SIZE = 256   # orders a table's cache keeps; the oldest goes first


class Ranker(Protocol):
    """Returns only rows of its `candidates`: whatever it picks, every search leaf is
    env-valid by construction, and the env check runs in `certify` and `eval`."""

    def rank(self, candidates: list, state: SearchState, context: QueryContext) -> list:
        """The candidates to try, best first; the search tries at most `MAX_BRANCHING`."""


class TableView(list):
    """The rows of `table` outside the `removed` positions, in table order, with
    `orders`, the cache of the table's orders, which lives as long as the table."""

    def __init__(self, table: list, orders: dict, removed: frozenset = frozenset()):
        super().__init__(table)
        for position in sorted(removed, reverse=True):
            del self[position]
        self.table, self.removed, self.orders = table, removed, orders


def _candidate_terms(candidate) -> list[str]:
    if isinstance(candidate, IntercityRoute):
        return [candidate.id, candidate.kind]
    terms = [candidate.get("name", "")]
    for key in ("cuisinetype", "type", "featurehoteltype", "recommendedfood"):
        if key in candidate:
            terms.append(str(candidate[key]))
    return terms


def _candidate_price(candidate) -> Decimal:
    if isinstance(candidate, IntercityRoute):
        return candidate.cost
    return candidate.get("price", Decimal("0"))


def _order(rows: list, required: tuple, budgeted: bool):
    """The positions of `rows` in stable order by the heuristic's key: (price,
    misses every required term) under a budget, else whether the row misses
    every required term. With no required term every row misses."""
    if not required:
        if not budgeted:
            return range(len(rows))
        keys = list(map(_candidate_price, rows))
    else:
        keys = []
        for row in rows:
            # a required term holds no "\0" (the skeleton refuses it), so it
            # is in the joined terms exactly when it is in one of them
            joined = "\0".join(_candidate_terms(row))
            miss = not any(req in joined for req in required)
            keys.append((_candidate_price(row), miss) if budgeted else miss)
    return sorted(range(len(rows)), key=keys.__getitem__)


class HeuristicRanker:
    """On a `TableView`, the first `MAX_BRANCHING` rows of its table's cached
    order that the view holds; on any other list, all of it in stable order."""

    def rank(self, candidates: list, state: SearchState, context: QueryContext) -> list:
        key = (context.required_terms, context.budget_limit is not None)
        if not isinstance(candidates, TableView):
            return list(map(candidates.__getitem__, _order(candidates, *key)))
        orders, table = candidates.orders, candidates.table
        order = orders.get(key)
        if order is None:
            if len(orders) >= ORDER_MEMO_SIZE:
                del orders[next(iter(orders))]
            order = orders[key] = _order(table, *key)
        kept = filterfalse(candidates.removed.__contains__, order)
        return list(map(table.__getitem__, islice(kept, MAX_BRANCHING)))
