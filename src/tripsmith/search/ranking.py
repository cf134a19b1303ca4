"""Candidate ranking.

A ranker permutes (never filters) the candidate list for one expansion step.
The built-in heuristic mirrors how a frugal traveller would choose: anything
matching a term the query asked for comes first, and when a budget is in play
cheaper options are tried before expensive ones, a match breaking ties of
price. All sorts are stable, so a run is reproducible from (query, database)
alone.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Protocol

from ..sandbox import IntercityRoute
from .context import QueryContext
from .state import SearchState


class Ranker(Protocol):
    def rank(self, candidates: list, state: SearchState, context: QueryContext) -> list:
        ...


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


class HeuristicRanker:
    """Permute by a key computed once per row for each (required terms, budget use).

    The key is (price, misses every required term) under a budget, else
    whether the row misses every required term. One stable sort by it gives
    the order of a stable split into matching rows and the rest, followed
    by a stable price sort. A query that names no required term needs no
    memo: every row misses, so the order is the price order under a budget
    and the input order otherwise. Two contexts with equal terms and budget
    use share their keys. Keys are held by `id()`, and every keyed row is
    kept in `_pins`, so no id is reused while the ranker lives.
    """

    def __init__(self):
        self._keys: dict[tuple, dict[int, object]] = {}
        self._pins: list = []

    def rank(self, candidates: list, state: SearchState, context: QueryContext) -> list:
        required = context.required_terms
        budgeted = context.budget_limit is not None
        if not required:
            return sorted(candidates, key=_candidate_price) if budgeted else list(candidates)
        keys = self._keys.setdefault((required, budgeted), {})
        ranks = list(map(keys.get, map(id, candidates)))
        if None in ranks:
            for index, candidate in enumerate(candidates):
                if ranks[index] is None:
                    terms = _candidate_terms(candidate)
                    miss = not any(req in term for req in required for term in terms)
                    rank = (_candidate_price(candidate), miss) if budgeted else miss
                    keys[id(candidate)] = ranks[index] = rank
                    self._pins.append(candidate)
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        return list(map(candidates.__getitem__, order))
