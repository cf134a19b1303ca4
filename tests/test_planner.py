import json
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsmith.dsl import check_source
from tripsmith.errors import InputError
from tripsmith.evaluation import evaluate_plan, validate_env
from tripsmith.plan import serialize_plan
from tripsmith.sandbox import IntercityRoute, intercity_select, load_dataset
from tripsmith.sandbox.fares import travel_minutes
from tripsmith.search import (
    EMPTY,
    ENV_ONLY_BEST,
    FULL_PASS,
    HeuristicRanker,
    SearchConfig,
    dfs_search,
    enumerate_complete_plans,
    next_activity_type,
)
from tripsmith.search import dfs
from tripsmith.search.rules import (
    ACCOMMODATION,
    ATTRACTION,
    FINISH,
    OUTBOUND,
    RETURN,
    latest_return,
    return_routes,
)
from tripsmith.search.state import (
    initial_state,
    schedule_hotel,
    schedule_outbound,
    schedule_return,
    schedule_visit,
)
from tripsmith.timeutil import clock_span, to_hhmm, to_minutes

from .conftest import micro_context, micro_with_routes


def cfg() -> SearchConfig:
    return SearchConfig(budget_seconds=10)


def decide(state, dataset, ctx) -> str:
    """The next activity type, given the latest return departure a search computes."""
    return next_activity_type(state, dataset, ctx, latest_return(return_routes(dataset, ctx)))


def state_at(micro_dataset, clock: str, *, day=1, days=1,
             position="Beta Station", meals=(), visited=()):
    ctx = micro_context(days=days)
    state = initial_state()
    route = IntercityRoute("G11", "train", "Alpha Station", "Beta Station",
                          "Alpha", "Beta", 400, 500, 100, Decimal(120))
    state = schedule_outbound(state, route, ctx)
    object.__setattr__(state, "clock", to_minutes(clock))
    object.__setattr__(state, "day", day)
    object.__setattr__(state, "position", position)
    object.__setattr__(state, "meals_today", frozenset(meals))
    object.__setattr__(state, "visited_attractions", frozenset(visited))
    return state, ctx


def test_cascade_lunch_throughout_window(micro_dataset):
    for clock in ("10:30", "11:00", "11:45", "12:30"):
        state, ctx = state_at(micro_dataset, clock, days=2)
        assert decide(state, micro_dataset, ctx) == "lunch"


def test_cascade_lunch_already_scheduled(micro_dataset):
    state, ctx = state_at(micro_dataset, "11:00", days=2, meals=("lunch",))
    assert decide(state, micro_dataset, ctx) == ATTRACTION


def test_cascade_hotel_after_cutoff(micro_dataset):
    state, ctx = state_at(micro_dataset, "22:30", days=2)
    assert decide(state, micro_dataset, ctx) == ACCOMMODATION


def test_cascade_hotel_when_nothing_open(micro_dataset):
    # both micro attractions already visited; nothing nearby is schedulable
    state, ctx = state_at(micro_dataset, "15:00", days=2,
                          visited=("Harbor Park", "Stone Bridge"))
    assert decide(state, micro_dataset, ctx) == ACCOMMODATION


def test_cascade_return_on_last_day_when_nothing_open(micro_dataset):
    state, ctx = state_at(micro_dataset, "15:00", days=1,
                          visited=("Harbor Park", "Stone Bridge"))
    assert decide(state, micro_dataset, ctx) == RETURN


def test_cascade_outbound_first_and_finish_last(micro_dataset):
    ctx = micro_context()
    assert decide(initial_state(), micro_dataset, ctx) == OUTBOUND
    state, ctx = state_at(micro_dataset, "21:00")
    object.__setattr__(state, "finished", True)
    assert decide(state, micro_dataset, ctx) == FINISH


def test_cascade_return_when_rides_would_be_lost(micro_dataset):
    # latest ride home leaves 21:50; with 90 min + 30 min slack, 20:00 is too late
    state, ctx = state_at(micro_dataset, "20:00", days=1)
    assert decide(state, micro_dataset, ctx) == RETURN


def open_until_1730(monkeypatch, db) -> dict:
    """The first attraction of `db`, its loaded hours set to 07:00-17:30 for one test."""
    for minutes, clock in ((db.open_minutes, "07:00"), (db.close_minutes, "17:30")):
        monkeypatch.setitem(minutes, "attractions",
                            [to_minutes(clock), *minutes["attractions"][1:]])
    return db.attractions[0]


def test_schedule_truncates_at_closing(micro_dataset, monkeypatch):
    # paper rule: arriving 16:45 at a POI closing 17:30 ends the visit at 17:30
    db = micro_dataset["Beta"]
    row = open_until_1730(monkeypatch, db)
    state, ctx = state_at(micro_dataset, "16:45", position=row["name"])
    child = schedule_visit(state, row, "attraction", db, ctx)
    act = child.days[0][-1]
    assert act["start_time"] == "16:45"
    assert act["end_time"] == "17:30"


def test_schedule_rejects_after_closing(micro_dataset, monkeypatch):
    db = micro_dataset["Beta"]
    row = open_until_1730(monkeypatch, db)
    state, ctx = state_at(micro_dataset, "17:31", position=row["name"])
    assert schedule_visit(state, row, "attraction", db, ctx) is None


def test_schedule_same_position_has_no_legs(micro_dataset):
    db = micro_dataset["Beta"]
    row = db.attractions[0]
    state, ctx = state_at(micro_dataset, "09:00", position=row["name"])
    child = schedule_visit(state, row, "attraction", db, ctx)
    assert "transports" not in child.days[0][-1]


def test_backtracking_leaves_parent_untouched(micro_dataset):
    db = micro_dataset["Beta"]
    state, ctx = state_at(micro_dataset, "09:00")
    before = state
    child = schedule_visit(state, db.attractions[0], "attraction", db, ctx)
    assert child is not None and child is not state
    assert state == before
    assert state.activity_count + 1 == child.activity_count


# -- ranking ----------------------------------------------------------------------


def test_heuristic_budget_sorts_by_price():
    ranker = HeuristicRanker()
    candidates = [{"name": "a", "price": Decimal(80)},
                  {"name": "b", "price": Decimal(20)},
                  {"name": "c", "price": Decimal(50)}]
    ctx = micro_context(budget_limit=Decimal(1000))
    ranked = ranker.rank(candidates, None, ctx)
    assert [c["price"] for c in ranked] == [Decimal(20), Decimal(50), Decimal(80)]


def test_heuristic_identity_without_hints():
    ranker = HeuristicRanker()
    candidates = [{"name": "a", "price": Decimal(80)},
                  {"name": "b", "price": Decimal(20)}]
    assert ranker.rank(candidates, None, micro_context()) == candidates


def test_heuristic_required_terms_first():
    ranker = HeuristicRanker()
    candidates = [{"name": "x", "cuisinetype": "Noodles", "price": Decimal(1)},
                  {"name": "y", "cuisinetype": "Hotpot", "price": Decimal(2)},
                  {"name": "z", "cuisinetype": "Hotpot", "price": Decimal(3)}]
    ctx = micro_context(required_terms=("Hotpot",))
    ranked = ranker.rank(candidates, None, ctx)
    assert [c["name"] for c in ranked] == ["y", "z", "x"]
    assert sorted(map(id, ranked)) == sorted(map(id, candidates))  # permutation


# -- full search -------------------------------------------------------------------


def test_search_trivial_constraint_full_pass(micro_dataset):
    outcome = dfs_search(["return True"], micro_dataset, None, cfg(), micro_context())
    assert outcome.status == FULL_PASS
    report = evaluate_plan(outcome.plan, ["return True"], micro_dataset)
    assert report.env.overall and all(report.logical)


def test_search_constant_false_gives_env_best(micro_dataset):
    outcome = dfs_search(["return 1 == 2"], micro_dataset, None, cfg(), micro_context())
    assert outcome.status == ENV_ONLY_BEST
    assert outcome.plan is not None
    assert validate_env(outcome.plan, micro_dataset).overall
    assert outcome.constraints_passed == 0


def test_search_empty_when_no_routes(micro_dataset):
    ctx = micro_context()
    ctx.required_intercity_kind = "airplane"   # micro fixture has trains only
    outcome = dfs_search(["return True"], micro_dataset, None, cfg(), ctx)
    assert outcome.status == EMPTY


def test_search_rejects_bad_budget(micro_dataset):
    with pytest.raises(InputError, match="search budget must be positive"):
        dfs_search(["return True"], micro_dataset, None,
                   SearchConfig(budget_seconds=0), micro_context())


def test_non_padded_route_clock_plans_padded(tmp_path):
    root = micro_with_routes(tmp_path,
                             "G11,train,Alpha Station,Beta Station,7:05,8:45,100,120.00")
    dataset = load_dataset(root)
    route = dataset.route("G11")
    assert (route.begin, route.end) == (425, 525)
    outcome = dfs_search(["return True"], dataset, None, cfg(), micro_context())
    assert outcome.status == FULL_PASS        # the env check accepts the padded text
    record = serialize_plan(outcome.plan)["itinerary"][0]["activities"][0]
    assert (record["TrainID"], record["start_time"], record["end_time"]) == (
        "G11", "07:05", "08:45")


def test_search_checks_constraints_first(micro_dataset):
    with pytest.raises(InputError):
        dfs_search(["while True: pass"], micro_dataset, None, cfg(), micro_context())


def test_search_matches_enumeration_on_micro(micro_dataset):
    """Greedy accepts if and only if some reachable complete plan passes."""
    constraints = [
        "return True",
        "return 1 == 2",
        ('found = False\ncity = target_city(plan)\n'
         'for act in allactivities(plan):\n'
         '    if activity_type(act) in ["breakfast", "lunch", "dinner"]:\n'
         '        if restaurant_type(act, city) == "Hotpot":\n'
         '            found = True\nreturn found'),
        ('total_cost = 0\nfor act in allactivities(plan):\n'
         '    total_cost += activity_cost(act)\n'
         '    total_cost += innercity_transport_cost(activity_transports(act))\n'
         'return total_cost <= 700'),
    ]
    for days in (1, 2):
        ctx = micro_context(days=days)
        plans = enumerate_complete_plans(micro_dataset, ctx)
        assert 0 < len(plans) <= 200
        for source in constraints:
            feasible = any(
                (report := evaluate_plan(p, [source], micro_dataset)).env.overall
                and all(report.logical)
                for p in plans
            )
            outcome = dfs_search([source], micro_dataset, None, cfg(), ctx)
            assert (outcome.status == FULL_PASS) == feasible, (days, source)


def test_pruning_never_changes_the_accept_set(micro_dataset):
    """dfs_search, which cuts a state over the budget, accepts what the same
    search without that cut accepts."""
    budget_programs = [
        ('total_cost = 0\nfor act in allactivities(plan):\n'
         '    total_cost += activity_cost(act)\n'
         '    total_cost += innercity_transport_cost(activity_transports(act))\n'
         f'return total_cost <= {bound}')
        for bound in (400, 700, 900, 5000)
    ]
    for days in (1, 2):
        for source in budget_programs:
            ctx = micro_context(days=days)
            ctx.budget_limit = Decimal(source.rsplit(" ", 1)[1])
            pruned = dfs_search([source], micro_dataset, None, cfg(), ctx)
            search = dfs._Search([check_source(source)[0]], micro_dataset, HeuristicRanker(),
                                 math.inf, ctx, prune_budget=False)
            free = search.outcome(search.dfs(initial_state()))
            assert (pruned.status == FULL_PASS) == (free.status == FULL_PASS)
            if pruned.status == FULL_PASS:
                assert pruned.plan == free.plan


def test_search_is_deterministic(micro_dataset):
    runs = [dfs_search(["return True"], micro_dataset, None, cfg(), micro_context())
            for _ in range(3)]
    assert len({json.dumps(serialize_plan(r.plan), sort_keys=True) for r in runs}) == 1
    assert len({r.nodes_expanded for r in runs}) == 1


def test_tiny_deadline_still_reports_something(micro_dataset):
    outcome = dfs_search(["return 1 == 2"], micro_dataset, None,
                         SearchConfig(budget_seconds=1e-9), micro_context())
    assert outcome.status in (ENV_ONLY_BEST, "partial", EMPTY)


def test_full_pass_plans_revalidate(micro_dataset):
    from .golden_programs import BUDGET

    outcome = dfs_search([BUDGET], micro_dataset, None, cfg(), micro_context(days=2))
    assert outcome.status == FULL_PASS
    report = evaluate_plan(outcome.plan, [BUDGET], micro_dataset)
    assert report.env.overall and all(report.logical)


# -- late clocks ------------------------------------------------------------------
#
# A transfer that would arrive after 23:59 has no clock time; the schedule
# helpers reject such an extension instead of raising.

LAST_MINUTE = to_minutes("23:59")


def _walk_minutes(db, start, end):
    return travel_minutes(db.distance(start, end), db.fares.walk_speed_kmh)


def _late_walk_state(dataset, clock, position):
    state, ctx = state_at(dataset, clock, position=position, days=2)
    ctx.required_innercity_mode = "walk"
    return state, ctx


def test_late_hotel_transfer_is_rejected_not_raised(mini_dataset):
    db = mini_dataset["Beta"]
    hotel = db.record("hotels", "Harbor Hotel")
    farthest = max(db.attractions,
                   key=lambda row: db.distance(row["name"], hotel["name"]))["name"]
    for clock, position in (("23:45", farthest), ("22:30", "Beta Airport")):
        state, ctx = _late_walk_state(mini_dataset, clock, position)
        assert to_minutes(clock) + _walk_minutes(db, position, hotel["name"]) > LAST_MINUTE
        assert schedule_hotel(state, hotel, db, ctx) is None


def test_late_visit_and_return_transfers_are_rejected(mini_dataset):
    db = mini_dataset["Beta"]
    state, ctx = _late_walk_state(mini_dataset, "22:30", "Beta Airport")
    for row, act_type in ((db.attractions[0], "attraction"), (db.restaurants[0], "dinner")):
        assert schedule_visit(state, row, act_type, db, ctx) is None
    route = intercity_select(mini_dataset.cities, "Beta", "Alpha", "train")[-1]
    assert schedule_return(state, route, db, ctx) is None


def test_hotel_transfer_ending_on_time_is_unchanged(mini_dataset):
    db = mini_dataset["Beta"]
    hotel = db.record("hotels", "Harbor Hotel")
    state, ctx = _late_walk_state(mini_dataset, "22:30", "Old Town Wall")
    child = schedule_hotel(state, hotel, db, ctx)
    act = child.days[0][-1]
    arrival = 22 * 60 + 30 + _walk_minutes(db, "Old Town Wall", "Harbor Hotel")
    assert act["start_time"] == to_hhmm(arrival)
    assert act["transports"][-1]["end_time"] == act["start_time"]


@given(
    clock=st.integers(min_value=to_minutes("20:00"), max_value=LAST_MINUTE),
    where=st.integers(min_value=0, max_value=100),
    mode=st.sampled_from((None, "walk", "metro", "taxi")),
    helper=st.sampled_from(("attraction", "dinner", "hotel", "return")),
    pick=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=300, deadline=None)
def test_schedule_helpers_never_raise_on_late_clocks(
    mini_dataset, clock, where, mode, helper, pick
):
    db = mini_dataset["Beta"]
    positions = sorted(db.poi_coordinates)
    state, ctx = state_at(mini_dataset, "09:00", position=positions[where % len(positions)],
                          days=2)
    object.__setattr__(state, "clock", clock)
    ctx.required_innercity_mode = mode
    if helper == "hotel":
        child = schedule_hotel(state, db.hotels[pick % len(db.hotels)], db, ctx)
    elif helper == "return":
        routes = intercity_select(mini_dataset.cities, "Beta", "Alpha")
        child = schedule_return(state, routes[pick % len(routes)], db, ctx)
    else:
        rows = db.attractions if helper == "attraction" else db.restaurants
        child = schedule_visit(state, rows[pick % len(rows)], helper, db, ctx)
    if child is None:
        return
    act = child.days[state.day - 1][-1]
    legs = act.get("transports", [])
    stamps = [act["start_time"], act["end_time"]]
    stamps += [t for leg in legs for t in (leg["start_time"], leg["end_time"])]
    assert all(clock_span(t, t) for t in stamps)
    if legs:
        assert legs[0]["start_time"] == to_hhmm(clock)
