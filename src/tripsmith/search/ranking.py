"""Candidate ranking.

A ranker returns the candidates to try for one expansion step, best first.
The built-in heuristic goes after what the query asks for: a row whose name
(a route's id) is a required term comes first, then the rows that hit the
most required terms, and when a budget is in play cheaper options break the
remaining ties. A row hits a term when the term is a substring of its name,
id, kind, type, cuisine, hotel feature or recommended food. All sorts are
stable, so a run is reproducible from (query, database) alone.

A row's key depends only on the row, the required terms and the budget use,
so rows taken from a table in table order sort as that subsequence of the
whole table's order: the heuristic ranks a `TableView` by walking its
table's cached order past the left-out rows. Computing an order is cheap per
query: each table's joined terms, names and prices are read once, into its
`TableOrders`; only the rows that hit a term get a key and are sorted, and
every other row keeps the table's base order (by price under a budget, else
table order), also built once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from decimal import Decimal
from functools import cached_property
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

    def rank(self, candidates: Sequence, state: SearchState, context: QueryContext) -> list:
        """The candidates to try, best first; the search tries at most `MAX_BRANCHING`."""


def _candidate_terms(candidate) -> list[str]:
    """The row's name (a route's id) first, then the rest of its searchable text."""
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


class TableOrders(dict):
    """The heuristic's orders of `table`: (required terms, budget use) -> the
    table's positions in ranked order, the newest last and at most
    ORDER_MEMO_SIZE of them. What the orders read of the rows is kept outside
    that bound, built on first use; it lives as long as the table does."""

    def __init__(self, table: Sequence):
        super().__init__()
        self.table = table

    def order(self, required: tuple, budgeted: bool) -> Sequence:
        key = (required, budgeted)
        order = self.get(key)
        if order is None:
            if len(self) >= ORDER_MEMO_SIZE:
                del self[next(iter(self))]
            order = self[key] = self._order(required, budgeted)
        return order

    def _order(self, required: tuple, budgeted: bool) -> Sequence:
        """The rows hitting a required term, by (name is a term, most terms hit,
        price under a budget), then the others in the base order."""
        base = self.by_price if budgeted else range(len(self.table))
        if not required:
            return base
        names, joined = self.terms
        # a required term holds no "\0" (the skeleton refuses it), so it is in
        # the joined terms exactly when it is in one of them
        counts = Counter()
        for req in required:
            counts.update([position for position, text in enumerate(joined) if req in text])
        if not counts:
            return base
        price = self.prices.__getitem__ if budgeted else (lambda position: 0)
        first = sorted(counts, key=lambda position: (
            names[position] not in required, -counts[position], price(position), position))
        return first + [position for position in base if position not in counts]

    @cached_property
    def terms(self) -> tuple[list[str], list[str]]:
        """Each row's name (a route's id), and its terms joined by "\\0"."""
        terms = list(map(_candidate_terms, self.table))
        return [row[0] for row in terms], ["\0".join(row) for row in terms]

    @cached_property
    def prices(self) -> list[Decimal]:
        return list(map(_candidate_price, self.table))

    @cached_property
    def by_price(self) -> list[int]:
        return sorted(range(len(self.table)), key=self.prices.__getitem__)


class TableView(Sequence):
    """The rows of the table of `orders` that a filter would give, in table
    order: those outside the `removed` positions and, when `closes` (each row's
    closing minute) is given, those that close after `clock`. The heuristic
    walks one of the table's orders past the left-out positions and never
    builds the rows; any other reader gets them built once."""

    def __init__(self, orders: TableOrders, removed: frozenset = frozenset(),
                 closes: Sequence[int] | None = None, clock: int = 0):
        self.orders, self.table, self.removed = orders, orders.table, removed
        self.closes, self.clock = closes, clock

    def kept(self, positions):
        """The positions of the view among `positions`, in their order."""
        removed, closes, clock = self.removed, self.closes, self.clock
        if closes is None:
            return filterfalse(removed.__contains__, positions)
        return (p for p in positions if closes[p] > clock and p not in removed)

    @cached_property
    def rows(self) -> list:
        return list(map(self.table.__getitem__, self.kept(range(len(self.table)))))

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class HeuristicRanker:
    """On a `TableView`, the first `MAX_BRANCHING` rows of its table's cached
    order that the view holds; on any other list, all of it in stable order."""

    def rank(self, candidates: Sequence, state: SearchState, context: QueryContext) -> list:
        key = (context.required_terms, context.budget_limit is not None)
        if not isinstance(candidates, TableView):
            return list(map(candidates.__getitem__, TableOrders(candidates).order(*key)))
        order = candidates.orders.order(*key)
        return list(map(candidates.table.__getitem__,
                        islice(candidates.kept(order), MAX_BRANCHING)))
