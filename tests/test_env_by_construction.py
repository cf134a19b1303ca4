"""Every plan the schedule helpers build passes the 25-rule environmental check.

The search never runs the check on its own leaves: `_Search.finish_plan`
decides a leaf by its constraint programs alone, and the check runs where a
plan comes from outside the helpers, in `certify` and `eval`. That is sound
only while every plan the helpers can complete is env-valid, which is pinned
here three ways: every plan `enumerate_complete_plans` reaches on the micro
fixture over a grid of query contexts, a bounded slice of the mini fixture's
plans, and seeded random walks through `_Search.candidates` + `_Search.extend`
on the benchmark's synthetic city set. A counterexample is a fault of the
helper that built it, which must refuse that extension.

The loader also accepts routes that no plan can ride past the cross-city
rules: an empty route id; a repeated one, which the check resolves to the
first route of that id; and a station name that does not carry its city, as
a fromcity or tocity column allows. The search leaves such routes out; two
micro variants pin that.
"""

from __future__ import annotations

import itertools
import math
import random
from unittest import mock

import pytest

from tripsmith.evaluation import validate_env
from tripsmith.sandbox import load_dataset
from tripsmith.search import FULL_PASS, HeuristicRanker, QueryContext, SearchConfig, dfs
from tripsmith.search.rules import FINISH, next_activity_type
from tripsmith.search.state import initial_state

from .conftest import micro_with_routes

MODES = (None, "walk", "metro", "taxi")
KINDS = (None, "train", "airplane")
MINI_PER_CONTEXT = 60          # plans taken from each mini context, in tree order
WALKS = 100
WALK_SEED = 21


def _contexts(origin, target, days, people, room_types):
    """Every combination, except a room type on a one-day trip, which books no hotel."""
    for day_count, party, mode, kind, room in itertools.product(
            days, people, MODES, KINDS, room_types):
        if room is not None and day_count == 1:
            continue
        yield QueryContext(origin, target, day_count, party, required_innercity_mode=mode,
                           required_intercity_kind=kind, required_room_type=room)


def _env_failures(plans, dataset, ctx) -> list:
    """(context, failed rule notes) of each plan the check refuses."""
    failures = []
    for plan in plans:
        report = validate_env(plan, dataset)
        if not report.overall:
            failures.append((ctx, {rule: report.notes.get(rule, "")
                                   for rule in report.failed_rules()}))
    return failures


def test_every_enumerated_micro_plan_passes_the_env_check(micro_dataset):
    plans = 0
    failed = []
    # the reverse order reaches no plan: micro's Beta -> Alpha trains leave at 19:00 or later
    for origin, target in (("Alpha", "Beta"), ("Beta", "Alpha")):
        for ctx in _contexts(origin, target, (1, 2), (1, 2, 3, 5), (None, 1)):
            found = dfs.enumerate_complete_plans(micro_dataset, ctx)
            plans += len(found)
            failed += _env_failures(found, micro_dataset, ctx)
    assert not failed, failed[:3]
    assert plans > 8000


@pytest.mark.parametrize("origin, target, least", [("Alpha", "Beta", 1500),
                                                   ("Beta", "Alpha", 250)])
def test_a_bounded_slice_of_mini_plans_passes_the_env_check(mini_dataset, origin, target,
                                                            least):
    plans = 0
    failed = []
    with mock.patch.object(dfs, "ENUMERATION_LIMIT", MINI_PER_CONTEXT):
        for ctx in _contexts(origin, target, (1, 2), (2,), (None, 2)):
            found = dfs.enumerate_complete_plans(mini_dataset, ctx)
            plans += len(found)
            failed += _env_failures(found, mini_dataset, ctx)
    assert not failed, failed[:3]
    assert plans > least


def _random_walk(dataset, ctx, rng):
    """A plan built by extending with a random schedulable candidate at each step,
    or None when some step has no candidate the helpers accept."""
    search = dfs._Search([], dataset, HeuristicRanker(), math.inf, ctx, prune_budget=False)
    state = initial_state()
    while True:
        act_type = next_activity_type(state, dataset, ctx, search.latest)
        if act_type == FINISH:
            return state.to_plan(ctx)
        candidates = list(search.candidates(act_type, state))
        rng.shuffle(candidates)
        children = (search.extend(act_type, state, candidate) for candidate in candidates)
        state = next((child for child in children if child is not None), None)
        if state is None:
            return None


def test_random_walks_on_the_synthetic_city_set_pass_the_env_check(synth_dataset):
    rng = random.Random(WALK_SEED)
    pairs = list(itertools.permutations(synth_dataset.city_names, 2))
    plans = 0
    failed = []
    for _ in range(WALKS):
        origin, target = rng.choice(pairs)
        ctx = QueryContext(origin, target, rng.randint(1, 3), rng.randint(1, 6),
                           required_innercity_mode=rng.choice(MODES),
                           required_intercity_kind=rng.choice(KINDS),
                           required_room_type=rng.choice((None, 1, 2, 3)))
        plan = _random_walk(synth_dataset, ctx, rng)
        if plan is not None:
            plans += 1
            failed += _env_failures([plan], synth_dataset, ctx)
    assert not failed, failed[:3]
    assert plans > WALKS // 2


# (rows, header) of Alpha's intercity table; micro's Beta -> Alpha trains are G12, G14, G16
QUIRKY_ROUTES = {
    # the second G11 is not the route its id names; nor, as Alpha sorts first, is Beta's
    # G12; and a ride with no id names no route
    "ids": ((
        ",train,Alpha Station,Beta Station,06:10,07:50,100,80.00",
        "G11,train,Alpha Station,Beta Station,06:40,08:20,100,120.00",
        "G11,train,Alpha Station,Beta Station,07:40,09:20,100,118.00",
        "G12,train,Alpha Station,Beta Station,08:40,10:20,100,90.00",
    ), "ID,Kind,From,To,BeginTime,EndTime,Duration,Cost"),
    # "East Terminal" does not carry "Alpha", though the fromcity column names it
    "city-columns": ((
        "G11,train,Alpha Station,Beta Station,06:40,08:20,100,120.00,Alpha,Beta",
        "G13,train,East Terminal,Beta Station,07:40,09:20,100,118.00,Alpha,Beta",
    ), "ID,Kind,From,To,BeginTime,EndTime,Duration,Cost,FromCity,ToCity"),
}


@pytest.mark.parametrize("quirk", sorted(QUIRKY_ROUTES))
def test_routes_the_cross_city_rules_refuse_are_never_ridden(tmp_path, quirk):
    rows, header = QUIRKY_ROUTES[quirk]
    dataset = load_dataset(micro_with_routes(tmp_path, *rows, header=header))
    plans = 0
    failed = []
    for ctx in _contexts("Alpha", "Beta", (1, 2), (2,), (None,)):
        found = dfs.enumerate_complete_plans(dataset, ctx)
        plans += len(found)
        failed += _env_failures(found, dataset, ctx)
    assert not failed, failed[:3]
    assert plans > 500
    ctx = QueryContext("Alpha", "Beta", 2, 2)
    outcome = dfs.dfs_search([], dataset, None, SearchConfig(budget_seconds=600), ctx)
    assert outcome.status == FULL_PASS
    assert validate_env(outcome.plan, dataset).overall
