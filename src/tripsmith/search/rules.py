"""Deterministic next-activity cascade.

Given a state, decide what kind of activity to try next. The order is fixed:
head home when the trip end is reached, serve unscheduled meals inside their
trigger windows, retreat to the hotel late at night or when nothing nearby is
open, and otherwise keep sightseeing.

The ride lists are `intercity_select`'s answers unfiltered: the loader admits
only routes that pass the cross-city rules (see `sandbox.database`).
"""

from __future__ import annotations

from ..sandbox import CityDatabase, intercity_select, nearby
from ..timeutil import to_minutes
from .context import QueryContext
from .state import DEFAULT_DURATION, SearchState

FINISH = "finish"
OUTBOUND = "intercity_outbound"
RETURN = "intercity_return"
ACCOMMODATION = "accommodation"
ATTRACTION = "attraction"

# a meal not yet served today is tried whenever the clock is inside its window
MEAL_TRIGGERS = {
    "breakfast": (to_minutes("06:30"), to_minutes("08:30")),
    "lunch": (to_minutes("10:30"), to_minutes("12:30")),
    "dinner": (to_minutes("17:00"), to_minutes("19:00")),
}
HOTEL_CUTOFF = to_minutes("22:00")
TRANSFER_ALLOWANCE = 30       # slack when deciding to head home
NEARBY_RADIUS_KM = 10.0
NEARBY_TOPK = 10


def return_routes(dataset, ctx: QueryContext):
    return intercity_select(dataset.cities, ctx.target, ctx.origin,
                            kind=ctx.required_intercity_kind)


def outbound_routes(dataset, ctx: QueryContext):
    return intercity_select(dataset.cities, ctx.origin, ctx.target,
                            kind=ctx.required_intercity_kind)


def _no_open_attraction(state: SearchState, db: CityDatabase) -> bool:
    point = db.coordinates(state.position)
    rows = nearby(db, "attractions", point, NEARBY_TOPK, NEARBY_RADIUS_KM)
    now = state.clock
    for row in rows:
        if row["name"] in state.visited_attractions:
            continue
        open_at, close_at = db.hours("attractions", row["name"])
        if open_at <= now <= close_at:
            return False
    return True


def latest_return(routes) -> int:
    """Departure minute of the last of the return `routes`; -1 when there is none,
    so that every clock must head home at once."""
    return max((route.begin for route in routes), default=-1)


def next_activity_type(state: SearchState, dataset, ctx: QueryContext,
                       latest: int | None = None) -> str:
    """One of: finish, intercity_outbound, intercity_return, breakfast, lunch,
    dinner, accommodation, attraction.

    `latest` is `latest_return(return_routes(dataset, ctx))`, which a search
    computes once; left out, it is computed here when the last day needs it.
    """
    if state.finished:
        return FINISH
    if state.activity_count == 0:
        return OUTBOUND

    db = dataset[ctx.target]
    last_day = state.day >= ctx.days

    if last_day:
        if latest is None:
            latest = latest_return(return_routes(dataset, ctx))
        # one more default activity would forfeit every return ride
        if state.clock + DEFAULT_DURATION + TRANSFER_ALLOWANCE > latest:
            return RETURN

    for meal, (lo, hi) in MEAL_TRIGGERS.items():
        if lo <= state.clock <= hi and meal not in state.meals_today:
            return meal

    if state.clock >= HOTEL_CUTOFF or _no_open_attraction(state, db):
        return RETURN if last_day else ACCOMMODATION

    return ATTRACTION
