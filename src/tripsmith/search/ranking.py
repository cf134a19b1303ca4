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
    use share their keys. Each row's key is kept as its ordinal among the
    distinct keys, so a call sorts ints; a new key value renumbers them. Keys
    are held by `id()`, and every keyed row is kept in `_pins`, so no id is
    reused while the ranker lives.
    """

    def __init__(self):
        # (terms, budget use) -> (ordinal by row id, row ids by key value)
        self._keys: dict[tuple, tuple[dict[int, int], dict[object, list[int]]]] = {}
        self._pins: list = []

    def rank(self, candidates: list, state: SearchState, context: QueryContext) -> list:
        required = context.required_terms
        budgeted = context.budget_limit is not None
        if not required:
            return sorted(candidates, key=_candidate_price) if budgeted else list(candidates)
        ordinals, rows_by_key = self._keys.setdefault((required, budgeted), ({}, {}))
        ranks = list(map(ordinals.get, map(id, candidates)))
        if None in ranks:
            renumber = False
            for candidate, rank in zip(candidates, ranks):
                if rank is None:
                    # a required term holds no "\0" (the skeleton refuses it), so
                    # it is in the joined terms exactly when it is in one of them
                    joined = "\0".join(_candidate_terms(candidate))
                    miss = not any(req in joined for req in required)
                    key = (_candidate_price(candidate), miss) if budgeted else miss
                    rows = rows_by_key.setdefault(key, [])
                    renumber = renumber or not rows
                    ordinals[id(candidate)] = ordinals[rows[0]] if rows else -1
                    rows.append(id(candidate))
                    self._pins.append(candidate)
            if renumber:
                for ordinal, key in enumerate(sorted(rows_by_key)):
                    ordinals.update(dict.fromkeys(rows_by_key[key], ordinal))
            ranks = list(map(ordinals.__getitem__, map(id, candidates)))
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        return list(map(candidates.__getitem__, order))
