"""The heuristic ranker's per-search key memo.

`HeuristicRanker` sorts once by a key it remembers per row for one query.
The reference below is the partition-then-sort it replaced: a stable split
into rows that hit a required term and the rest, then, under a budget, a
stable sort by price. Every order must match it, also when one ranker is
reused across queries and across separately loaded datasets.
"""

from __future__ import annotations

import gc
from decimal import Decimal

import pytest

from tripsmith.sandbox import IntercityRoute, load_dataset
from tripsmith.search import HeuristicRanker, initial_state, ranking
from tripsmith.search.context import QueryContext
from tripsmith.search.rules import outbound_routes, return_routes

from .conftest import FIXTURES


def _terms(candidate) -> list[str]:
    if isinstance(candidate, IntercityRoute):
        return [candidate.id, candidate.kind]
    return [candidate.get("name", "")] + [
        str(candidate[key])
        for key in ("cuisinetype", "type", "featurehoteltype", "recommendedfood")
        if key in candidate
    ]


def _price(candidate) -> Decimal:
    if isinstance(candidate, IntercityRoute):
        return candidate.cost
    return candidate.get("price", Decimal("0"))


def reference_rank(candidates: list, context: QueryContext) -> list:
    required = context.required_terms
    ordered = list(candidates)
    if required:
        matching, rest = [], []
        for candidate in candidates:
            hit = any(req in term for req in required for term in _terms(candidate))
            (matching if hit else rest).append(candidate)
        ordered = matching + rest
    if context.budget_limit is not None:
        ordered = sorted(ordered, key=_price)
    return ordered


def _ids(ranker, candidates: list, context: QueryContext) -> tuple[list, list]:
    """Object ids in the ranker's order and in the reference order."""
    ranked = ranker.rank(candidates, initial_state(), context)
    return list(map(id, ranked)), list(map(id, reference_rank(candidates, context)))


def _tables(dataset, origin="Alpha", target="Beta") -> dict[str, list]:
    ctx = QueryContext(origin, target, 1, 2)
    db = dataset[target]
    return {
        "attractions": list(db.attractions),
        "restaurants": list(db.restaurants),
        "hotels": list(db.hotels),
        "outbound": list(outbound_routes(dataset, ctx)),
        "return": list(return_routes(dataset, ctx)),
    }


def _contexts(dataset) -> dict[str, QueryContext]:
    """No terms, terms only, budget only and both; the terms hit every table."""
    db = dataset["Beta"]
    ctx = QueryContext("Alpha", "Beta", 1, 2)
    routes = (return_routes(dataset, ctx)[-1], outbound_routes(dataset, ctx)[-1])
    terms = {"required_terms": (db.restaurants[-1]["cuisinetype"], db.attractions[-1]["type"],
                                db.hotels[-1]["featurehoteltype"],
                                *(route.id for route in routes))}
    budget = {"budget_limit": Decimal("5000")}
    return {
        "none": QueryContext("Alpha", "Beta", 1, 2),
        "terms": QueryContext("Alpha", "Beta", 1, 2, **terms),
        "budget": QueryContext("Alpha", "Beta", 1, 2, **budget),
        "both": QueryContext("Alpha", "Beta", 1, 2, **terms, **budget),
    }


@pytest.mark.parametrize("kind", ["none", "terms", "budget", "both"])
@pytest.mark.parametrize("fixture", ["micro", "mini"])
def test_rank_matches_partition_then_sort(kind, fixture):
    dataset = load_dataset(FIXTURES / fixture)
    ctx = _contexts(dataset)[kind]
    ranker = HeuristicRanker()
    for _ in range(2):      # the second pass reads every key from the memo
        for table, rows in _tables(dataset).items():
            # reversed as well, so the stable tie order is checked both ways
            for candidates in (rows, rows[::-1]):
                got, want = _ids(ranker, candidates, ctx)
                assert got == want, table


@pytest.mark.parametrize("fixture", ["micro", "mini"])
def test_the_terms_hit_rows_of_every_table(fixture):
    dataset = load_dataset(FIXTURES / fixture)
    required = _contexts(dataset)["terms"].required_terms
    for table, rows in _tables(dataset).items():
        assert any(req in term for row in rows for req in required for term in _terms(row)), \
            table


def test_one_ranker_follows_each_query():
    dataset = load_dataset(FIXTURES / "mini")
    contexts = list(_contexts(dataset).values())
    ranker = HeuristicRanker()
    rows = _tables(dataset)["restaurants"]
    for ctx in contexts + contexts[::-1]:
        got, want = _ids(ranker, rows, ctx)
        assert got == want
    # the same context object, given a new term and a budget between two calls
    ctx = QueryContext("Alpha", "Beta", 1, 2)
    for change in ({}, {"required_terms": (rows[-1]["cuisinetype"],)},
                   {"budget_limit": Decimal("100")}):
        for field, value in change.items():
            setattr(ctx, field, value)
        got, want = _ids(ranker, rows, ctx)
        assert got == want, change


def test_one_ranker_across_separately_loaded_datasets():
    """One context for every load, so the memo is kept while the rows change."""
    contexts = _contexts(load_dataset(FIXTURES / "mini"))
    ranker = HeuristicRanker()
    for fixture in ("mini", "micro", "mini", "micro"):
        tables = _tables(load_dataset(FIXTURES / fixture))
        for table, rows in tables.items():
            for ctx in (contexts["both"], contexts["terms"]):
                got, want = _ids(ranker, rows, ctx)
                assert got == want, (fixture, table)
        del tables, rows
        gc.collect()


def test_a_freed_row_never_lends_its_key_to_a_new_one():
    """Rows built afresh for each call, under one context: were a key kept by
    `id()` without its row, a new row at a freed address would take it."""
    base = _tables(load_dataset(FIXTURES / "mini"))["restaurants"]
    ctx = QueryContext("Alpha", "Beta", 1, 2, budget_limit=Decimal("100"),
                       required_terms=(base[0]["cuisinetype"],))
    ranker = HeuristicRanker()
    for turn in range(20):
        rows = [dict(row, price=Decimal((index * 7 + turn * 3) % 5))
                for index, row in enumerate(base)]
        got, want = _ids(ranker, rows, ctx)
        assert got == want
        del rows
        gc.collect()


@pytest.mark.parametrize("kind", ["none", "budget"])
def test_a_query_with_no_required_term_reads_no_terms(monkeypatch, kind):
    """Every row misses then, so the order comes without reading a term or
    filling the key memo."""
    dataset = load_dataset(FIXTURES / "mini")
    ctx = _contexts(dataset)[kind]
    assert not ctx.required_terms

    def refuse(candidate):
        raise AssertionError("terms read for a query that names none")

    monkeypatch.setattr(ranking, "_candidate_terms", refuse)
    ranker = HeuristicRanker()
    for table, rows in _tables(dataset).items():
        for candidates in (rows, rows[::-1]):
            got, want = _ids(ranker, candidates, ctx)
            assert got == want, table
    assert ranker._keys == {} and ranker._pins == []


def test_equal_contexts_share_their_keys(monkeypatch):
    """Keys belong to (required terms, budget use), not to one context object:
    a second context with equal terms and budget reads no terms."""
    dataset = load_dataset(FIXTURES / "mini")
    first = _contexts(dataset)["both"]
    second = _contexts(dataset)["both"]
    assert second is not first and second.required_terms == first.required_terms
    ranker = HeuristicRanker()
    tables = _tables(dataset)
    for rows in tables.values():
        ranker.rank(rows, initial_state(), first)

    def refuse(candidate):
        raise AssertionError("terms read again for equal terms and budget use")

    monkeypatch.setattr(ranking, "_candidate_terms", refuse)
    for table, rows in tables.items():
        for candidates in (rows, rows[::-1]):
            got, want = _ids(ranker, candidates, second)
            assert got == want, table
    assert len(ranker._keys) == 1


def test_a_context_whose_terms_change_is_keyed_anew(monkeypatch):
    dataset = load_dataset(FIXTURES / "mini")
    rows = _tables(dataset)["restaurants"]
    ctx = QueryContext("Alpha", "Beta", 1, 2, required_terms=(rows[0]["cuisinetype"],))
    ranker = HeuristicRanker()
    got, want = _ids(ranker, rows, ctx)
    assert got == want
    read = []
    monkeypatch.setattr(ranking, "_candidate_terms",
                        lambda candidate: read.append(candidate) or _terms(candidate))
    for change in ({"required_terms": (rows[-1]["cuisinetype"],)},
                   {"budget_limit": Decimal("100")}):
        for field, value in change.items():
            setattr(ctx, field, value)
        read.clear()
        got, want = _ids(ranker, rows, ctx)
        assert got == want, change
        assert list(map(id, read)) == list(map(id, rows)), change
    assert len(ranker._keys) == 3


@pytest.mark.parametrize("kind", ["terms", "both"])
def test_ordinals_follow_rows_added_between_calls(kind):
    """Rows join the memo between calls, with prices already seen (ties) and
    prices below, between and above the known ones (new key values): every
    order still matches the reference, and the ordinals stay dense ints."""
    dataset = load_dataset(FIXTURES / "mini")
    ctx = _contexts(dataset)[kind]
    base = _tables(dataset)["restaurants"]
    ranker = HeuristicRanker()
    candidates = list(base[:2])
    for turn, price in enumerate(["5", "3", "5", "7", "1", "3", "4.5", "7", "0", "5"]):
        row = dict(base[turn % len(base)], price=Decimal(price))
        candidates.insert(turn * 3 % (len(candidates) + 1), row)
        for ordered in (candidates, candidates[::-1]):
            got, want = _ids(ranker, ordered, ctx)
            assert got == want, (turn, price)
    [(ordinals, rows_by_key)] = ranker._keys.values()
    assert sorted(set(ordinals.values())) == list(range(len(rows_by_key)))
