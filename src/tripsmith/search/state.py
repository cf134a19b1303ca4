"""Search state and activity scheduling.

States are immutable snapshots; every extension returns a fresh state, so
backtracking is simply dropping a child. A state is only ever created through
`schedule_*` helpers, which refuse extensions that would break an
environmental rule - the partial plan is valid by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal

from ..errors import ConfigError, InputError
from ..evaluation.env_rules import MEAL_WINDOWS
from ..plan.model import DayPlan, Plan
from ..sandbox import CityDatabase, IntercityRoute, cars_for, goto
from ..timeutil import to_hhmm, to_minutes
from .context import QueryContext

DEFAULT_DURATION = 90                     # minutes per visit or meal
DAY_START = to_minutes("08:00")           # clock after a night at the hotel


@dataclass(frozen=True)
class SearchConfig:
    budget_seconds: float = 300.0

    def validate(self) -> None:
        if self.budget_seconds <= 0:
            raise ConfigError("search budget must be positive")


@dataclass(frozen=True)
class SearchState:
    days: tuple[tuple[dict, ...], ...]    # activities per day, day 1 first
    day: int                              # 1-based current day
    clock: int                            # minutes since midnight
    position: str
    meals_today: frozenset = frozenset()
    visited_attractions: frozenset = frozenset()
    visited_restaurants: frozenset = frozenset()
    hotel_name: str | None = None
    total_cost: Decimal = Decimal("0")
    finished: bool = False

    @property
    def activity_count(self) -> int:
        return sum(len(day) for day in self.days)

    def with_activity(self, activity: dict, cost: Decimal, **changes) -> "SearchState":
        days = list(self.days)
        while len(days) < self.day:
            days.append(())
        days[self.day - 1] = days[self.day - 1] + (activity,)
        return replace(self, days=tuple(days), total_cost=self.total_cost + cost, **changes)

    def to_plan(self, ctx: QueryContext) -> Plan:
        itinerary = [DayPlan(day=i + 1, activities=list(acts))
                     for i, acts in enumerate(self.days)]
        return Plan(
            people_number=ctx.people,
            start_city=ctx.origin,
            target_city=ctx.target,
            itinerary=itinerary,
        )


def initial_state() -> SearchState:
    return SearchState(days=((),), day=1, clock=0, position="")


def transport_legs(
    db: CityDatabase, start: str, end: str, start_minutes: int, mode: str, people: int
) -> tuple[list[dict], int, Decimal] | None:
    """Plan-ready legs from one goto option: (legs, arrival minutes, total cost).

    None when the transfer would arrive after 23:59, which no clock time can
    express.
    """
    if start == end:
        return [], start_minutes, Decimal("0")
    depart = to_hhmm(start_minutes)
    try:
        option = goto(db, start, end, depart, mode)
    except InputError:
        return None
    legs = []
    total = Decimal("0")
    for leg in option.legs:
        entry = {
            "mode": leg.mode,
            "start": leg.start,
            "end": leg.end,
            "start_time": leg.start_time,
            "end_time": leg.end_time,
            "distance": leg.distance,
            "price": leg.price,
        }
        if leg.mode == "taxi":
            cars = cars_for(people)
            entry["cars"] = cars
            entry["cost"] = leg.price * cars
        else:
            entry["tickets"] = people
            entry["cost"] = leg.price * people
        total += entry["cost"]
        legs.append(entry)
    return legs, start_minutes + option.time_minutes, total


def pick_mode(db: CityDatabase, start: str, end: str, ctx: QueryContext) -> str:
    """Required mode if the query names one, walk under 1 km, metro otherwise."""
    if ctx.required_innercity_mode:
        return ctx.required_innercity_mode
    if start == end:
        return "walk"
    return "walk" if db.distance(start, end) < Decimal("1") else "metro"


def schedule_visit(
    state: SearchState,
    row: dict,
    act_type: str,
    db: CityDatabase,
    ctx: QueryContext,
) -> SearchState | None:
    """Attraction or meal extension; None when the POI cannot be visited now."""
    name = row["name"]
    mode = pick_mode(db, state.position, name, ctx)
    transfer = transport_legs(db, state.position, name, state.clock, mode, ctx.people)
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
        start = max(arrival, win_lo)   # wait for the service window to open
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


def schedule_hotel(
    state: SearchState,
    row: dict,
    db: CityDatabase,
    ctx: QueryContext,
) -> SearchState | None:
    """Check in for the night and roll the clock to next morning."""
    name = row["name"]
    mode = pick_mode(db, state.position, name, ctx)
    transfer = transport_legs(db, state.position, name, state.clock, mode, ctx.people)
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
    return replace(
        state,
        days=state.days + ((),),
        day=state.day + 1,
        clock=DAY_START,
        position=name,
        meals_today=frozenset(),
    )


def schedule_outbound(
    state: SearchState, route: IntercityRoute, ctx: QueryContext
) -> SearchState | None:
    """First activity of the trip: the cross-city transport to the target."""
    activity = route.activity(ctx.people)
    return state.with_activity(
        activity, activity["cost"], clock=route.end, position=route.to_station
    )


def schedule_return(
    state: SearchState,
    route: IntercityRoute,
    db: CityDatabase,
    ctx: QueryContext,
) -> SearchState | None:
    """Last activity: ride home; rejected when the departure cannot be caught."""
    mode = pick_mode(db, state.position, route.from_station, ctx)
    transfer = transport_legs(
        db, state.position, route.from_station, state.clock, mode, ctx.people
    )
    if transfer is None:
        return None
    legs, arrival, leg_cost = transfer
    if arrival > route.begin:
        return None
    activity = route.activity(ctx.people)
    if legs:
        activity["transports"] = legs
    return state.with_activity(
        activity, activity["cost"] + leg_cost,
        clock=route.end, position=route.to_station, finished=True,
    )
