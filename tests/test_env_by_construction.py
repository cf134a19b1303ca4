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

The rides need no such care: the loader refuses every route that no plan
could ride past the cross-city rules, so the search takes every route it
selects. Micro variants with an empty route id, a repeated one (in one city
or across two), and a station name that does not start with its city's name
pin that each is a one-line load error. Which city a station is in is the
loader's decision alone: on a copy of micro whose `Alpha` is `Betaville`, the
station concepts and the endpoint rule read `Betaville` where a match of city
names inside station names would read `Beta`, and a Beta route out of a
`Betaville` station is a load error; so is a station that two routes put in
two cities, which a multi-word city (`Bay Area` beside `Bay`) can still reach.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from pathlib import Path
from unittest import mock

import pytest

from tripsmith.cli import main
from tripsmith.errors import IntegrityError
from tripsmith.evaluation import validate_env
from tripsmith.plan.concepts import ConceptContext, concept
from tripsmith.sandbox import load_dataset
from tripsmith.search import HeuristicRanker, QueryContext, dfs
from tripsmith.search.rules import FINISH, next_activity_type
from tripsmith.search.state import initial_state

from .conftest import FIXTURES, micro_with_routes

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
        assert len(state.days) == state.day     # `with_activity` appends to the last day


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


_HEADER = "ID,Kind,From,To,BeginTime,EndTime,Duration,Cost"
_G11 = "G11,train,Alpha Station,Beta Station,06:40,08:20,100,120.00"
# (rows of Alpha's intercity table, its header, what the error names); micro's Beta ->
# Alpha trains are G12, G14, G16
UNRIDEABLE_ROUTES = {
    "empty-id": ((_G11, ",train,Alpha Station,Beta Station,06:10,07:50,100,80.00"), _HEADER,
                 "Alpha/intercity: a route has an empty id"),
    "id-repeated-in-city": ((_G11, "G11,train,Alpha Station,Beta Station,07:40,09:20,100,118.00"),
                            _HEADER, "Alpha/intercity: route id 'G11' is not unique"),
    # Beta sorts after Alpha, so Beta's G12 is the second of the two
    "id-repeated-across-cities": (
        (_G11, "G12,train,Alpha Station,Beta Station,08:40,10:20,100,90.00"), _HEADER,
        "Beta/intercity: route id 'G12' is not unique"),
    # "East Terminal" does not carry "Alpha"; the FromCity column is not read, as a
    # route's from-city is the city whose file lists it
    "station-without-its-city": (
        (f"{_G11},Alpha,Beta", "G13,train,East Terminal,Beta Station,07:40,09:20,100,118.00,"
                               "Alpha,Beta"),
        f"{_HEADER},FromCity,ToCity", "Alpha/intercity: the stations of 'G13' do not carry"),
    # a Beta -> Alpha route listed under Alpha, which `intercity_select` would never
    # offer from Beta
    "from-station-of-another-city": (
        (_G11, "G18,train,Beta Station,Alpha Station,21:00,22:40,100,90.00"), _HEADER,
        "Alpha/intercity: the stations of 'G18' do not carry its cities 'Alpha' and 'Alpha'"),
    # with no space, a To station's first word, its to-city, is its whole name, and no
    # name starts with itself and a space
    "to-station-without-a-space": (
        (_G11, "G13,train,Alpha Station,BetaStation,07:40,09:20,100,118.00"), _HEADER,
        "Alpha/intercity: the stations of 'G13' do not carry its cities 'Alpha' and "
        "'BetaStation'"),
}


@pytest.fixture(scope="module")
def micro_bench(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("bench") / "bench.jsonl"
    assert main(["generate", "--db", str(FIXTURES / "micro"), "--count", "1",
                 "--seed", "11", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("quirk", sorted(UNRIDEABLE_ROUTES))
def test_routes_the_cross_city_rules_would_refuse_do_not_load(tmp_path, capsys, micro_bench,
                                                              quirk):
    rows, header, message = UNRIDEABLE_ROUTES[quirk]
    root = micro_with_routes(tmp_path, *rows, header=header)
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}"):
        load_dataset(root)
    out = tmp_path / "plans.jsonl"
    capsys.readouterr()
    assert main(["plan", "--benchmark", str(micro_bench), "--db", str(root),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def _renamed(tmp_path, **names: str) -> Path:
    """The micro fixture with each city renamed as `names` maps it, stations included."""
    micro, root = FIXTURES / "micro", tmp_path / "renamed"
    for path in sorted(filter(Path.is_file, micro.rglob("*"))):
        where, text = str(path.relative_to(micro)), path.read_text()
        for old, new in names.items():
            where, text = where.replace(old, new), text.replace(old, new)
        out = root / where
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    return root


def test_a_station_is_in_the_one_city_the_sandbox_places_it_in(tmp_path):
    # the name of the other city, `Beta`, is part of every Betaville station's
    dataset = load_dataset(_renamed(tmp_path, Alpha="Betaville"))
    with mock.patch.object(dfs, "ENUMERATION_LIMIT", 1):
        [plan] = dfs.enumerate_complete_plans(dataset, QueryContext("Betaville", "Beta", 1, 2))
    outbound, inbound = plan.all_activities()[0], plan.all_activities()[-1]
    assert (outbound["start"], inbound["end"]) == ("Betaville Station", "Betaville Station")
    context = ConceptContext(plan, dataset)
    assert [concept(name, [ride], context)
            for ride in (outbound, inbound)
            for name in ("intercity_transport_origin", "intercity_transport_destination")
            ] == ["Betaville", "Beta", "Beta", "Betaville"]
    assert validate_env(plan, dataset).overall
    plan.start_city = "Beta"
    assert validate_env(plan, dataset).failed_rules() == ["env.cross_city.endpoints"]


# (renamed cities, lines appended to <city>/<table>.csv, the one-line load error)
MISPLACED_STATIONS = {
    # "Betaville Airport" starts with "Beta" but not with "Beta "
    "betaville-airport-under-beta": (
        {"Alpha": "Betaville"},
        {("Beta", "poi"): "Betaville Airport,31.2050,121.4050",
         ("Beta", "intercity"): "F20,airplane,Betaville Airport,Betaville Station,"
                                "21:00,22:40,100,90.00"},
        "Beta/intercity: the stations of 'F20' do not carry its cities 'Beta' and "
        "'Betaville'"),
    "betaville-station-under-beta": (
        {"Alpha": "Betaville"},
        {("Beta", "intercity"): "G18,train,Betaville Station,Beta Station,"
                                "21:00,22:40,100,90.00"},
        "Beta/intercity: the stations of 'G18' do not carry its cities 'Beta' and 'Beta'"),
    # Bay's routes, with no ToCity cell, go to "Bay Area Station" as a station of Bay
    # (its first word); Bay Area's own routes leave from it
    "bay-area-station-in-bay": (
        {"Alpha": "Bay Area", "Beta": "Bay"},
        {("Bay", "poi"): "Bay Area Station,30.6000,120.2000"},
        "Bay Area/intercity: route 'G11' puts 'Bay Area Station' in 'Bay Area'; "
        "it is in 'Bay'"),
}


@pytest.mark.parametrize("case", sorted(MISPLACED_STATIONS))
def test_a_station_its_city_does_not_name_does_not_load(tmp_path, capsys, micro_bench, case):
    names, lines, message = MISPLACED_STATIONS[case]
    root = _renamed(tmp_path, **names)
    for (city, table), line in lines.items():
        with open(root / city / f"{table}.csv", "a", encoding="utf-8") as fh:
            fh.write(f"{line}\n")
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
        load_dataset(root)
    out = tmp_path / "plans.jsonl"
    capsys.readouterr()
    assert main(["plan", "--benchmark", str(micro_bench), "--db", str(root),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
