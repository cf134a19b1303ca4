"""The heuristic ranker: its order, and the table orders it caches.

The reference below is one stable sort of every row by the heuristic's key:
whether the row's name (a route's id) is a required term, then how many
required terms the row hits, most first, then, under a budget, price. Every
order must match it, also when one ranker is reused across queries and across
separately loaded datasets. On a `TableView`, the search's candidate list,
the ranker returns the first `MAX_BRANCHING` rows of that order from an order
of the whole table that the table's `TableOrders` keeps per (required terms,
budget use).
"""

from __future__ import annotations

import gc
import math
import random
import weakref
from dataclasses import replace
from decimal import Decimal

import pytest

from tripsmith.sandbox import IntercityRoute, load_dataset
from tripsmith.search import HeuristicRanker, SearchConfig, dfs, dfs_search, initial_state, ranking
from tripsmith.search.context import QueryContext
from tripsmith.search.ranking import MAX_BRANCHING, ORDER_MEMO_SIZE, TableOrders, TableView
from tripsmith.search.rules import ACCOMMODATION, ATTRACTION, OUTBOUND, RETURN, outbound_routes, \
    return_routes

from .conftest import FIXTURES, NodeCapped
from .test_leaf_decision import FALSE


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


def reference_key(candidate, required: tuple, budgeted: bool) -> tuple:
    terms = _terms(candidate)
    hits = sum(any(req in term for term in terms) for req in required)
    return terms[0] not in required, -hits, _price(candidate) if budgeted else 0


def reference_rank(candidates: list, context: QueryContext) -> list:
    required, budgeted = context.required_terms, context.budget_limit is not None
    return sorted(candidates, key=lambda row: reference_key(row, required, budgeted))


def _ids(ranker, candidates: list, context: QueryContext) -> tuple[list, list]:
    """Object ids in the ranker's order and in the reference order."""
    ranked = ranker.rank(candidates, initial_state(), context)
    return list(map(id, ranked)), list(map(id, reference_rank(candidates, context)))


def _tables(dataset) -> dict[str, list]:
    origin, target = dataset.city_names[:2]
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
    origin, target = dataset.city_names[:2]
    db = dataset[target]
    ctx = QueryContext(origin, target, 1, 2)
    routes = (return_routes(dataset, ctx)[-1], outbound_routes(dataset, ctx)[-1])
    terms = {"required_terms": (db.restaurants[-1]["cuisinetype"], db.attractions[-1]["type"],
                                db.hotels[-1]["featurehoteltype"],
                                *(route.id for route in routes))}
    budget = {"budget_limit": Decimal("5000")}
    return {
        "none": QueryContext(origin, target, 1, 2),
        "terms": QueryContext(origin, target, 1, 2, **terms),
        "budget": QueryContext(origin, target, 1, 2, **budget),
        "both": QueryContext(origin, target, 1, 2, **terms, **budget),
    }


def _want(candidates: list, context: QueryContext) -> list:
    """Object ids in the reference order; of a view, its first MAX_BRANCHING."""
    ranked = reference_rank(list(candidates), context)
    return list(map(id, ranked[:MAX_BRANCHING] if isinstance(candidates, TableView) else ranked))


def _got(candidates: list, context: QueryContext, ranker=None) -> list:
    return list(map(id, (ranker or HeuristicRanker()).rank(candidates, initial_state(), context)))


def _reading(monkeypatch) -> list:
    """The rows whose terms the ranker reads from now on, in reading order."""
    read = []
    monkeypatch.setattr(ranking, "_candidate_terms",
                        lambda candidate: read.append(candidate) or _terms(candidate))
    return read


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


@pytest.fixture(params=["micro", "mini", "synth"])
def dataset(request):
    return request.getfixturevalue(f"{request.param}_dataset")


def _random_terms(rows: list, rng) -> tuple:
    """One to four required terms: whole terms of the table's rows (names and ids
    among them), pieces of them, repeats and terms that hit nothing."""
    vocabulary = sorted({term for row in rows for term in _terms(row)})
    terms = []
    for _ in range(rng.randint(1, 4)):
        term = rng.choice(vocabulary)
        pick = rng.random()
        if pick < 0.25:
            start = rng.randrange(len(term))
            term = term[start:start + rng.randint(1, 4)]
        elif pick < 0.35:
            term = "No Such Term"
        elif pick < 0.45 and terms:
            term = terms[-1]
        terms.append(term)
    return tuple(terms)


def test_orders_equal_a_full_sort_by_the_key_on_random_terms(dataset):
    """Each cached order, which sorts only the rows that hit a term and keeps
    the others in the table's base order, equals one stable sort of every row
    by the reference key."""
    rng = random.Random(29)
    compared = 0
    for table, rows in _tables(dataset).items():
        orders = TableOrders(rows)
        for _ in range(90):
            required = _random_terms(rows, rng)
            for budgeted in (False, True):
                want = sorted(range(len(rows)),
                              key=lambda position: reference_key(rows[position], required,
                                                                 budgeted))
                assert list(orders.order(required, budgeted)) == want, (table, required)
                compared += 1
    assert compared == 5 * 90 * 2


def _removed_sets(size: int, rng):
    """Positions to leave out of a table of `size` rows: none, all and random ones."""
    yield frozenset()
    yield frozenset(range(size))
    for count in (1, 2, 3, 5, 8, 13, 40):
        for _ in range(3):
            yield frozenset(rng.sample(range(size), min(count, size)))


@pytest.mark.parametrize("kind", ["none", "terms", "budget", "both"])
def test_a_view_ranks_as_the_first_rows_of_the_reference(dataset, kind):
    """On every table and with any positions left out, a view holds the table's
    other rows in table order, and the ranker returns the first MAX_BRANCHING of
    the reference order of those rows, from one cached order of the table."""
    ctx = _contexts(dataset)[kind]
    rng = random.Random(19)
    ranker = HeuristicRanker()
    for table, rows in _tables(dataset).items():
        orders = TableOrders(rows)
        for removed in _removed_sets(len(rows), rng):
            view = TableView(orders, removed)
            assert list(map(id, view)) == [id(row) for position, row in enumerate(rows)
                                           if position not in removed]
            assert _got(view, ctx, ranker) == _want(view, ctx), (table, sorted(removed))
        assert list(orders) == [(ctx.required_terms, ctx.budget_limit is not None)]


@pytest.mark.parametrize("kind", ["none", "terms", "budget", "both"])
def test_the_search_candidates_rank_as_the_reference(dataset, kind):
    """The search's own candidate lists: a visited row is left out by its
    position, every list is a view, and each ranks as the reference's prefix."""
    ctx = _contexts(dataset)[kind]
    search = dfs._Search([], dataset, HeuristicRanker(), math.inf, ctx, prune_budget=False)
    db = dataset[ctx.target]
    rng = random.Random(23)
    for act_type, rows, field in ((ATTRACTION, db.attractions, "visited_attractions"),
                                  ("dinner", db.restaurants, "visited_restaurants")):
        names = [row["name"] for row in rows]
        for removed in _removed_sets(len(rows), rng):
            visited = frozenset(names[position] for position in removed) | {"No Such Place"}
            view = search.candidates(act_type, replace(initial_state(), **{field: visited}))
            assert isinstance(view, TableView) and view.table is rows
            assert list(map(id, view)) == [id(row) for row in rows if row["name"] not in visited]
            assert _got(view, ctx) == _want(view, ctx), (act_type, sorted(removed))
    for act_type in (OUTBOUND, RETURN, ACCOMMODATION):
        view = search.candidates(act_type, initial_state())
        assert isinstance(view, TableView) and not view.removed
        assert _got(view, ctx) == _want(view, ctx), act_type


@pytest.mark.parametrize("kind", ["none", "budget"])
def test_a_query_with_no_required_term_reads_no_terms(monkeypatch, kind):
    """Every row misses then, so neither a ranking, of a view or of any other
    list, nor a whole search reads a term."""
    dataset = load_dataset(FIXTURES / "mini")
    ctx = _contexts(dataset)[kind]
    assert not ctx.required_terms
    read = _reading(monkeypatch)
    for table, rows in _tables(dataset).items():
        for candidates in (rows, rows[::-1], TableView(TableOrders(rows), frozenset({0}))):
            assert _got(candidates, ctx) == _want(candidates, ctx), table
    dfs_search([FALSE], dataset, NodeCapped(200), SearchConfig(budget_seconds=600), ctx)
    assert read == []
    assert list(dataset["Beta"].order_memo["attractions"]) == [((), kind == "budget")]


def test_equal_contexts_share_their_keys(monkeypatch):
    """Orders belong to the database and to (required terms, budget use), not to
    a context, a ranker or a search: a second search with equal terms and budget
    use reads no term of an attraction or a restaurant, and ends as the first."""
    dataset = load_dataset(FIXTURES / "mini")
    first = _contexts(dataset)["both"]
    second = _contexts(dataset)["both"]
    assert second is not first and second.required_terms == first.required_terms
    cfg = SearchConfig(budget_seconds=600)
    before = dfs_search([FALSE], dataset, NodeCapped(200), cfg, first)
    memo = dataset["Beta"].order_memo
    orders = {table: dict(memo[table]) for table in memo}
    assert all(list(kept) == [(first.required_terms, True)] for kept in orders.values())
    read = _reading(monkeypatch)
    after = dfs_search([FALSE], dataset, NodeCapped(200), cfg, second)
    rows = set(map(id, dataset["Beta"].attractions + dataset["Beta"].restaurants))
    assert read and not rows & set(map(id, read))      # routes and hotels: per search
    assert all(memo[table][key] is order
               for table in memo for key, order in orders[table].items())
    assert (after.status, after.nodes_expanded) == (before.status, before.nodes_expanded)


def test_a_context_whose_terms_change_is_keyed_anew(monkeypatch):
    """A change of required terms or of budget use computes a new order of the
    whole table; the table's terms are read once, each row once, by the first
    order that needs them, and a key seen before reads none."""
    dataset = load_dataset(FIXTURES / "mini")
    rows = dataset["Beta"].restaurants
    ctx = QueryContext("Alpha", "Beta", 1, 2, required_terms=(rows[0]["cuisinetype"],))
    view = TableView(TableOrders(rows), frozenset({1}))
    read = _reading(monkeypatch)
    for change in ({}, {"required_terms": (rows[-1]["cuisinetype"],)},
                   {"budget_limit": Decimal("100")}):
        for field, value in change.items():
            setattr(ctx, field, value)
        assert _got(view, ctx) == _want(view, ctx), change
        assert list(map(id, read)) == list(map(id, rows)), change
    assert len(view.orders) == 3
    read.clear()
    assert _got(view, ctx) == _want(view, ctx) and read == []


def test_a_dataset_takes_its_orders_with_it():
    """The orders live on the database: once a search is over and the dataset
    dropped, nothing keeps the dataset alive."""
    dataset = load_dataset(FIXTURES / "mini")
    ctx = _contexts(dataset)["both"]
    dfs_search([FALSE], dataset, NodeCapped(200), SearchConfig(budget_seconds=600), ctx)
    assert dataset["Beta"].order_memo["restaurants"]
    gone = weakref.ref(dataset)
    del dataset
    gc.collect()
    assert gone() is None


def test_a_table_keeps_at_most_its_bound_of_orders():
    """1,000 distinct term tuples through one database: each table keeps the
    newest ORDER_MEMO_SIZE orders, and every order stays exact."""
    dataset = load_dataset(FIXTURES / "mini")
    memo = dataset["Beta"].order_memo
    budgets = [Decimal(100) if index % 3 else None for index in range(1000)]
    for index, budget in enumerate(budgets):
        ctx = QueryContext("Alpha", "Beta", 1, 2, required_terms=(f"Term {index}",),
                           budget_limit=budget)
        search = dfs._Search([], dataset, HeuristicRanker(), math.inf, ctx, prune_budget=False)
        for act_type in (ATTRACTION, "lunch"):
            view = search.candidates(act_type, initial_state())
            assert _got(view, ctx) == _want(view, ctx)
        assert all(len(orders) <= ORDER_MEMO_SIZE for orders in memo.values())
    newest = [((f"Term {index}",), budgets[index] is not None)
              for index in range(1000 - ORDER_MEMO_SIZE, 1000)]
    assert all(list(orders) == newest for orders in memo.values())
