"""Arrival-first scheduling decides exactly as building every transfer did.

`schedule_visit`, `schedule_hotel` and `schedule_return` decide on the
arrival minute and build the transfer legs only for an accepted extension.
The reference helpers below build the legs first, for every attempt, and
decide afterwards. Both must accept the same extensions and build the same
children, on the desk fixtures and on a synthetic city set from the
benchmark's generator, for every (position, candidate, clock) of a grid that
reaches 23:59.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from decimal import Decimal

from tripsmith.errors import InputError
from tripsmith.evaluation.env_rules import MEAL_WINDOWS
from tripsmith.sandbox import MODES, cars_for, goto
from tripsmith.search.context import QueryContext
from tripsmith.search.rules import return_routes
from tripsmith.search.state import (
    DAY_START,
    DEFAULT_DURATION,
    SearchState,
    arrival_minute,
    pick_mode,
    schedule_hotel,
    schedule_return,
    schedule_visit,
)
from tripsmith.timeutil import to_hhmm, to_minutes

# every 97 minutes from midnight, then closer towards 23:59 and each of its
# last five minutes
CLOCKS = sorted({*range(0, 1440, 97), 1380, 1400, 1415, 1425, 1430, *range(1435, 1440)})
MEALS = tuple(MEAL_WINDOWS)
CONTEXT_MODES = (None, *MODES)     # None: walk under 1 km, metro otherwise


# -- the leg-first reference ------------------------------------------------------


def _reference_transfer(db, start, end, clock, mode, people):
    """(legs, arrival minute, cost) of one transfer built by `goto`, or None when
    it would arrive after 23:59."""
    if start == end:
        return [], clock, Decimal("0")
    try:
        sandbox_legs = goto(db, start, end, clock, mode)
    except InputError:
        return None
    legs = []
    for leg in sandbox_legs:
        if leg["mode"] == "taxi":
            party = {"cars": cars_for(people), "cost": leg["price"] * cars_for(people)}
        else:
            party = {"tickets": people, "cost": leg["price"] * people}
        legs.append({**leg, **party})
    cost = sum((leg["cost"] for leg in legs), Decimal("0"))
    return legs, to_minutes(legs[-1]["end_time"]), cost


def _reference_visit(state, row, act_type, db, ctx):
    name = row["name"]
    mode = pick_mode(db, state.position, name, ctx)
    transfer = _reference_transfer(db, state.position, name, state.clock, mode, ctx.people)
    if transfer is None:
        return None
    legs, arrival, leg_cost = transfer
    open_at = to_minutes(row["opentime"])
    close_at = to_minutes(row["endtime"])
    if arrival < open_at or arrival > close_at:
        return None
    start = arrival
    close_cap = close_at
    if act_type in MEAL_WINDOWS:
        win_lo, win_hi = MEAL_WINDOWS[act_type]
        if arrival > win_hi:
            return None
        start = max(arrival, win_lo)
        close_cap = min(close_cap, win_hi)
    duration = min(DEFAULT_DURATION, close_cap - start)
    if duration <= 0:
        return None
    price = row["price"]
    cost = price * ctx.people
    activity = {
        "type": act_type,
        "position": name,
        "start_time": to_hhmm(start),
        "end_time": to_hhmm(start + duration),
        "price": price,
        "tickets": ctx.people,
        "cost": cost,
    }
    if legs:
        activity["transports"] = legs
    changes: dict = {"clock": start + duration, "position": name}
    if act_type == "attraction":
        changes["visited_attractions"] = state.visited_attractions | {name}
    else:
        changes["visited_restaurants"] = state.visited_restaurants | {name}
        changes["meals_today"] = state.meals_today | {act_type}
    return state.with_activity(activity, cost + leg_cost, **changes)


def _reference_hotel(state, row, db, ctx):
    name = row["name"]
    mode = pick_mode(db, state.position, name, ctx)
    transfer = _reference_transfer(db, state.position, name, state.clock, mode, ctx.people)
    if transfer is None:
        return None
    legs, arrival, leg_cost = transfer
    day_end = to_minutes("23:59")
    if arrival >= day_end:
        return None
    rooms = ctx.required_rooms or math.ceil(ctx.people / row["numbed"])
    price = row["price"]
    cost = price * rooms
    activity = {
        "type": "accommodation",
        "position": name,
        "start_time": to_hhmm(arrival),
        "end_time": to_hhmm(day_end),
        "price": price,
        "rooms": rooms,
        "room_type": row["numbed"],
        "cost": cost,
    }
    if legs:
        activity["transports"] = legs
    state = state.with_activity(activity, cost + leg_cost, hotel_name=name)
    return replace(state, days=state.days + ((),), day=state.day + 1, clock=DAY_START,
                   position=name, meals_today=frozenset())


def _reference_return(state, route, db, ctx):
    mode = pick_mode(db, state.position, route.from_station, ctx)
    transfer = _reference_transfer(db, state.position, route.from_station, state.clock,
                                   mode, ctx.people)
    if transfer is None:
        return None
    legs, arrival, leg_cost = transfer
    if arrival > route.begin:
        return None
    activity = route.activity(ctx.people)
    if legs:
        activity["transports"] = legs
    return state.with_activity(activity, activity["cost"] + leg_cost,
                               clock=route.end, position=route.to_station, finished=True)


# -- the case grid ----------------------------------------------------------------


def _every(rows, step):
    return list(rows)[::step]


def _cases(dataset, origin, target, step):
    """(positions, [(kind, candidate)]) for one target city, one in `step` rows."""
    db = dataset[target]
    ctx = QueryContext(origin, target, 1, 1)
    routes = return_routes(dataset, ctx)
    candidates = [("attraction", row) for row in _every(db.attractions, step)]
    candidates += [(meal, row) for row in _every(db.restaurants, step) for meal in MEALS]
    candidates += [("accommodation", row) for row in _every(db.hotels, max(1, step // 4))]
    candidates += [("return", route) for route in routes]
    stations = sorted({route.from_station for route in routes})
    named = [row["name"] for kind, row in candidates[::7] if kind != "return"]
    positions = sorted(set(stations + named + _every(db.poi_coordinates, step * 4)))
    return db, positions, candidates


def _extend(kind, state, candidate, db, ctx, reference):
    if kind == "return":
        return (_reference_return if reference else schedule_return)(state, candidate, db, ctx)
    if kind == "accommodation":
        return (_reference_hotel if reference else schedule_hotel)(state, candidate, db, ctx)
    if reference:
        return _reference_visit(state, candidate, kind, db, ctx)
    return schedule_visit(state, candidate, kind, db, ctx)


def _check_grid(dataset, origin, target, step, people) -> Counter:
    """Compare both paths over the grid; how often each kind was accepted, and
    how many transfers arrived past 23:59 ("late")."""
    db, positions, candidates = _cases(dataset, origin, target, step)
    seen = Counter()
    for forced in CONTEXT_MODES:
        ctx = QueryContext(origin, target, 2, people, required_innercity_mode=forced)
        for position in positions:
            for clock in CLOCKS:
                state = SearchState(days=((),), day=1, clock=clock, position=position)
                for kind, candidate in candidates:
                    new = _extend(kind, state, candidate, db, ctx, reference=False)
                    old = _extend(kind, state, candidate, db, ctx, reference=True)
                    assert new == old, (target, forced, position, clock, kind, candidate)
                    seen[kind] += new is not None
                    end = candidate.from_station if kind == "return" else candidate["name"]
                    mode = pick_mode(db, position, end, ctx)
                    arrival = arrival_minute(db, position, end, clock, mode)
                    transfer = _reference_transfer(db, position, end, clock, mode, people)
                    if transfer is None:
                        seen["late"] += 1
                        assert arrival > to_minutes("23:59")
                    else:
                        assert arrival == transfer[1]
    return seen


def _covered(seen: Counter) -> bool:
    """Every kind was accepted somewhere and some transfer arrived late."""
    return all(seen[kind] for kind in ("attraction", *MEALS, "accommodation", "return", "late"))


def test_arrival_first_matches_leg_first_on_micro(micro_dataset):
    assert _covered(_check_grid(micro_dataset, "Alpha", "Beta", step=1, people=2))


def test_arrival_first_matches_leg_first_on_mini(mini_dataset):
    for origin, target, people in (("Alpha", "Beta", 2), ("Beta", "Alpha", 5)):
        assert _covered(_check_grid(mini_dataset, origin, target, step=1, people=people))


def test_arrival_first_matches_leg_first_on_a_synthetic_city(synth_dataset):
    assert _covered(_check_grid(synth_dataset, "Arlen", "Brisa", step=60, people=3))
