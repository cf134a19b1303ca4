"""Deterministic next-activity cascade.

Given a state, decide what kind of activity to try next. The order is fixed:
head home when the trip end is reached, serve unscheduled meals inside their
trigger windows, retreat to the hotel late at night or when nothing nearby is
open, and otherwise keep sightseeing.
"""

from __future__ import annotations

from ..sandbox import CityDatabase, intercity_select, nearby
from ..timeutil import to_minutes
from .context import QueryContext
from .state import SearchConfig, SearchState

FINISH = "finish"
OUTBOUND = "intercity_outbound"
RETURN = "intercity_return"
ACCOMMODATION = "accommodation"
ATTRACTION = "attraction"

_MEAL_TRIGGERS = ("breakfast", "lunch", "dinner")


def return_routes(dataset, ctx: QueryContext):
    return intercity_select(
        dataset.cities, ctx.target, ctx.origin, kind=ctx.required_intercity_kind
    )


def outbound_routes(dataset, ctx: QueryContext):
    return intercity_select(
        dataset.cities, ctx.origin, ctx.target, kind=ctx.required_intercity_kind
    )


def _no_open_attraction(state: SearchState, db: CityDatabase, cfg: SearchConfig) -> bool:
    if not state.position:
        return False
    point = db.coordinates(state.position)
    rows = nearby(db, "attractions", point, cfg.nearby_topk, cfg.nearby_radius_km)
    now = state.clock
    for row in rows:
        if row["name"] in state.visited_attractions:
            continue
        if to_minutes(row["opentime"]) <= now <= to_minutes(row["endtime"]):
            return False
    return True


def _must_head_home(state: SearchState, dataset, cfg: SearchConfig, ctx: QueryContext) -> bool:
    """True when one more default activity would forfeit every return ride."""
    latest = None
    for route in return_routes(dataset, ctx):
        begin = to_minutes(route.begin)
        if latest is None or begin > latest:
            latest = begin
    if latest is None:
        return True
    return state.clock + cfg.default_duration + cfg.transfer_allowance > latest


def next_activity_type(
    state: SearchState,
    cfg: SearchConfig,
    dataset,
    ctx: QueryContext,
) -> str:
    """One of: finish, intercity_outbound, intercity_return, breakfast, lunch,
    dinner, accommodation, attraction."""
    if state.finished:
        return FINISH
    if state.activity_count == 0:
        return OUTBOUND

    db = dataset[ctx.target]
    last_day = state.day >= ctx.days

    if last_day and _must_head_home(state, dataset, cfg, ctx):
        return RETURN

    for meal in _MEAL_TRIGGERS:
        lo, hi = getattr(cfg, f"{meal}_window")
        if lo <= state.clock <= hi and meal not in state.meals_today:
            return meal

    if state.clock >= cfg.hotel_cutoff or _no_open_attraction(state, db, cfg):
        return RETURN if last_day else ACCOMMODATION

    return ATTRACTION
