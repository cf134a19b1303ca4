"""What a search computes once answers as the per-expansion code it replaced.

`_Search` takes the outbound and return route lists, the latest return
departure and the room-type filtered hotels once per search, and gives each
attraction or restaurant candidate list as a view of the table that leaves
the visited rows out by position. The references below are the
straightforward forms: a fresh route selection, a comprehension over the
whole table, and `next_activity_type` called with three arguments.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import pytest

from tripsmith.genquery import sample_skeleton
from tripsmith.genquery.certify import context_from_skeleton
from tripsmith.genquery.templates import skeleton_to_dsl
from tripsmith.sandbox import IntercityRoute
from tripsmith.search import HeuristicRanker, QueryContext, SearchConfig, dfs, dfs_search
from tripsmith.search.rules import (
    ACCOMMODATION,
    ATTRACTION,
    OUTBOUND,
    RETURN,
    latest_return,
    next_activity_type,
    outbound_routes,
    return_routes,
)
from tripsmith.search.state import initial_state, schedule_outbound
from tripsmith.timeutil import to_minutes

from .conftest import NodeCapped, micro_context
from .test_leaf_decision import FALSE


def _search(dataset, ctx):
    return dfs._Search([], dataset, HeuristicRanker(), math.inf, ctx, prune_budget=False)


def _contexts(dataset):
    """One context per ordered city pair, with and without a room-type filter."""
    for origin, target in itertools.permutations(dataset.city_names, 2):
        room_types = sorted({row["numbed"] for row in dataset[target].hotels})
        for room_type in (None, *room_types[:2]):
            yield QueryContext(origin=origin, target=target, days=2, people=2,
                               required_room_type=room_type)


def _visited_sets(rows, rng):
    names = [row["name"] for row in rows]
    yield frozenset()
    yield frozenset(names)
    yield frozenset({"No Such Place"} | set(names[:1]))
    for size in (1, 2, 3, 5, 8, 13):
        for _ in range(4):
            yield frozenset(rng.sample(names, min(size, len(names))))


@pytest.fixture(params=["micro", "mini", "synth"])
def dataset(request):
    return request.getfixturevalue(f"{request.param}_dataset")


def test_candidate_lists_by_deletion_equal_the_comprehension(dataset):
    rng = random.Random(0)
    for ctx in _contexts(dataset):
        search = _search(dataset, ctx)
        db = dataset[ctx.target]
        for act_type, table, field in ((ATTRACTION, db.attractions, "visited_attractions"),
                                       ("lunch", db.restaurants, "visited_restaurants")):
            for visited in _visited_sets(table, rng):
                state = replace(initial_state(), **{field: visited})
                want = [row for row in table if row["name"] not in visited]
                got = search.candidates(act_type, state)
                assert list(map(id, got)) == list(map(id, want))
                assert len(got) == len(want)
        state = initial_state()
        hotels = [row for row in db.hotels if ctx.required_room_type is None
                  or row["numbed"] == ctx.required_room_type]
        assert list(map(id, search.candidates(ACCOMMODATION, state))) == list(map(id, hotels))
        assert list(search.candidates(OUTBOUND, state)) == outbound_routes(dataset, ctx)
        assert list(search.candidates(RETURN, state)) == return_routes(dataset, ctx)
        assert search.latest == max((r.begin for r in return_routes(dataset, ctx)), default=-1)


def _latest_checked(monkeypatch):
    """Make every expansion decide its action both ways and record whether they agree."""
    real = next_activity_type
    agreed = []

    def both(state, dataset, ctx, latest=None):
        assert latest is not None
        action = real(state, dataset, ctx, latest)
        agreed.append(action == real(state, dataset, ctx))
        return action

    monkeypatch.setattr(dfs, "next_activity_type", both)
    return agreed


def test_precomputed_latest_return_decides_like_three_arguments(monkeypatch, micro_dataset,
                                                               mini_dataset, synth_dataset):
    agreed = _latest_checked(monkeypatch)
    cfg = SearchConfig(budget_seconds=600)
    for dataset in (micro_dataset, mini_dataset):
        for ctx in _contexts(dataset):
            dfs_search([FALSE], dataset, NodeCapped(300), cfg, ctx)
    pairs = list(itertools.permutations(synth_dataset.city_names, 2))
    for index in range(6):
        origin, target = pairs[index % len(pairs)]
        skeleton = sample_skeleton(synth_dataset, "medium" if index % 2 else "easy",
                                   900 + index, origin=origin, target=target)
        dfs_search(skeleton_to_dsl(skeleton) + [FALSE], synth_dataset, NodeCapped(100), cfg,
                   context_from_skeleton(skeleton))
    assert len(agreed) > 1000 and all(agreed)


def test_no_return_route_heads_home_either_way(micro_dataset):
    # micro has trains only: no airplane ever leaves for home
    ctx = micro_context(days=1, required_intercity_kind="airplane")
    assert latest_return(return_routes(micro_dataset, ctx)) == -1
    route = IntercityRoute("G11", "train", "Alpha Station", "Beta Station",
                           "Alpha", "Beta", to_minutes("06:40"), to_minutes("08:20"), 100,
                           micro_dataset["Beta"].intercity_routes[0].cost)
    state = schedule_outbound(initial_state(), route, ctx)
    assert next_activity_type(state, micro_dataset, ctx) == RETURN
    assert next_activity_type(state, micro_dataset, ctx, -1) == RETURN
