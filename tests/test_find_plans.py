"""The search finds the synth plans that exist.

Before the branching cap, `_Search.candidates` leaves out every candidate
that no `schedule_*` helper can accept at the state's clock: the return
routes that leave before it, and the attractions and restaurants that close
at or before it. The prune must be sound: over a grid of clocks, positions
and inner-city modes on micro, mini and a synth city, the matching helper
refuses every candidate it drops. `enumerate_complete_plans` stays unpruned.

With the prune and the goal-directed ranking key, every skeleton of the easy
probe (the synth city set, seeds 3-36) certifies within 100 ranked nodes;
before them, 5 of the 34 did.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import pytest

from tripsmith.genquery import EASY, certify, sample_skeleton
from tripsmith.search import HeuristicRanker, QueryContext, SearchConfig, dfs, initial_state
from tripsmith.search.rules import ATTRACTION, RETURN
from tripsmith.timeutil import to_minutes

from .conftest import NodeCapped

MODES = (None, "walk", "metro", "taxi")
ACTIONS = (ATTRACTION, "breakfast", "lunch", "dinner", RETURN)


def _grid(dataset, target: str, positions: int, clocks: int):
    """Known positions of the target city (its stations first) and clocks over the day."""
    db = dataset[target]
    stations = sorted({route.from_station for route in db.intercity_routes
                       if route.from_city == target})
    names = sorted(db.poi_coordinates)
    step = max(1, len(names) // positions)
    return stations + names[::step], range(0, 24 * 60, 24 * 60 // clocks)


def _searches(dataset, ctx):
    """A search that prunes and one that does not, for one query."""
    return [dfs._Search([], dataset, HeuristicRanker(), math.inf, ctx, prune_budget=False,
                        prune_closed=prune) for prune in (True, False)]


@pytest.mark.parametrize("fixture, positions, clocks", [
    ("micro", 100, 48), ("mini", 100, 48), ("synth", 12, 16)])
def test_every_candidate_the_prune_drops_is_refused_by_its_helper(request, fixture,
                                                                   positions, clocks):
    dataset = request.getfixturevalue(f"{fixture}_dataset")
    origin, target = dataset.city_names[:2]
    places, minutes = _grid(dataset, target, positions, clocks)
    dropped = dict.fromkeys(ACTIONS, 0)
    for mode in MODES:
        ctx = QueryContext(origin, target, 2, 2, required_innercity_mode=mode)
        pruned, whole = _searches(dataset, ctx)
        base = whole.extend("intercity_outbound", initial_state(), whole.outbound[0])
        for place, clock, action in itertools.product(places, minutes, ACTIONS):
            state = replace(base, clock=clock, position=place)
            kept = set(map(id, pruned.candidates(action, state)))
            for candidate in whole.candidates(action, state):
                if id(candidate) not in kept:
                    assert whole.extend(action, state, candidate) is None, (action, candidate)
                    dropped[action] += 1
    # every kind of prune happens on the grid
    assert all(dropped.values()), dropped


def test_the_prune_keeps_what_is_open_after_the_clock(micro_dataset):
    """At 22:00 on micro, Harbor Park (closing 22:30) stays; Stone Bridge
    (closing 22:00) goes, and so does every return route leaving before 22:00."""
    search, _ = _searches(micro_dataset, QueryContext("Alpha", "Beta", 1, 2))
    state = replace(initial_state(), clock=to_minutes("22:00"))
    assert [row["name"] for row in search.candidates(ATTRACTION, state)] == ["Harbor Park"]
    routes = search.candidates(RETURN, state)
    assert [route.begin for route in routes] == [route.begin for route in search.returns
                                                 if route.begin >= state.clock]


def test_every_easy_probe_skeleton_certifies(synth_dataset):
    cfg = SearchConfig(budget_seconds=600)      # the node cap ends a search, not a deadline
    rejected = [seed for seed in range(3, 37)
                if certify(sample_skeleton(synth_dataset, EASY, seed), synth_dataset, cfg,
                           ranker=NodeCapped(100)) is None]
    assert rejected == []
