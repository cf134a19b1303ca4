"""Search state and activity scheduling.

States are immutable snapshots; every extension returns a fresh state, so
backtracking is simply dropping a child. A state is only ever created through
`schedule_*` helpers, which refuse extensions that would break an
environmental rule - the partial plan is valid by construction.

Each helper decides an extension on the arrival minute alone (`arrival_minute`:
the clock plus the chosen mode's door-to-door minutes), which refuses most
extensions a search tries, and asks `goto` for the transfer legs only for one
it accepts; the plan stores them as they are plus the party's tickets or cars
and cost. An arrival past 23:59 needs no case of its own: no POI, hotel
check-in or route departure is later than 23:59, so the arrival test refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from ..errors import InputError
from ..evaluation.env_rules import MEAL_WINDOWS
from ..plan.model import DayPlan, Plan
from ..sandbox import CityDatabase, IntercityRoute, cars_for, goto
from ..timeutil import to_hhmm, to_minutes
from .context import QueryContext

DEFAULT_DURATION = 90                     # minutes per visit or meal
DAY_START = to_minutes("08:00")           # clock after a night at the hotel
DAY_END = to_minutes("23:59")             # latest clock a plan can express


@dataclass(frozen=True)
class SearchConfig:
    budget_seconds: float = 300.0

    def validate(self) -> None:
        # written so that NaN, which no deadline test would ever exceed, fails;
        # inf stays valid as an explicit "no deadline"
        if not self.budget_seconds > 0:
            raise InputError("search budget must be positive")


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
        days = list(self.days)     # one entry per day so far: len(days) == self.day
        days[self.day - 1] += (activity,)
        return self.evolve(days=tuple(days), total_cost=self.total_cost + cost, **changes)

    def evolve(self, **changes) -> "SearchState":
        """A copy with `changes` (field name -> value) over this state's fields.

        `dataclasses.replace` without its per-field work: a search makes one
        child per accepted extension, and a frozen dataclass's `__init__`
        costs more than the copy of its field dict.
        """
        child = object.__new__(SearchState)
        child.__dict__.update(self.__dict__, **changes)
        return child

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
) -> tuple[list[dict], Decimal]:
    """goto's legs with the party's tickets or cars and their cost: (legs, total cost).

    Callers refuse a transfer whose `arrival_minute` is past 23:59 first.
    """
    if start == end:
        return [], Decimal("0")
    legs = goto(db, start, end, to_hhmm(start_minutes), mode)
    total = Decimal("0")
    for leg in legs:
        if leg["mode"] == "taxi":
            leg["cars"] = cars_for(people)
            leg["cost"] = leg["price"] * leg["cars"]
        else:
            leg["tickets"] = people
            leg["cost"] = leg["price"] * people
        total += leg["cost"]
    return legs, total


def arrival_minute(db: CityDatabase, start: str, end: str, start_minutes: int, mode: str) -> int:
    """Minute a transfer leaving at `start_minutes` arrives; may pass 23:59.

    The end time of the last leg `goto` would build, without building it.
    """
    if start == end:
        return start_minutes
    return start_minutes + db.transfer_minutes(start, end, mode)


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
    arrival = arrival_minute(db, state.position, name, state.clock, mode)
    open_at, close_at = db.hours("attractions" if act_type == "attraction" else "restaurants", name)
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

    legs, leg_cost = transport_legs(db, state.position, name, state.clock, mode, ctx.people)
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
    arrival = arrival_minute(db, state.position, name, state.clock, mode)
    if arrival >= DAY_END:
        return None
    legs, leg_cost = transport_legs(db, state.position, name, state.clock, mode, ctx.people)
    rooms = ctx.required_rooms or math.ceil(ctx.people / row["numbed"])
    price = row["price"]
    cost = price * rooms
    activity = {
        "type": "accommodation",
        "position": name,
        "start_time": to_hhmm(arrival),
        "end_time": to_hhmm(DAY_END),
        "price": price,
        "rooms": rooms,
        "room_type": row["numbed"],
        "cost": cost,
    }
    if legs:
        activity["transports"] = legs
    state = state.with_activity(activity, cost + leg_cost, hotel_name=name)
    return state.evolve(
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
    if route.begin < state.clock:
        return None     # no transfer arrives before the clock
    mode = pick_mode(db, state.position, route.from_station, ctx)
    if arrival_minute(db, state.position, route.from_station, state.clock, mode) > route.begin:
        return None
    legs, leg_cost = transport_legs(
        db, state.position, route.from_station, state.clock, mode, ctx.people
    )
    activity = route.activity(ctx.people)
    if legs:
        activity["transports"] = legs
    return state.with_activity(
        activity, activity["cost"] + leg_cost,
        clock=route.end, position=route.to_station, finished=True,
    )
