"""Turn a feasible assignment back into a plan document.

The decoder reconstructs visit segments from the occupancy matrix and the
chosen intercity rides, producing a structurally valid plan that the regular
evaluator can score. Costs use the slice prices for one ticket per traveler.
"""

from __future__ import annotations

from ..evaluation.env_rules import MEAL_WINDOWS
from ..plan.model import DayPlan, Plan
from ..timeutil import to_hhmm
from .build import _Builder
from .params import MilpParams, MilpSlice


def _slot_time(params: MilpParams, t: int, end: bool = False) -> str:
    minutes = (t % params.slots_per_day) * params.slot_minutes
    if end:
        minutes = min(minutes + params.slot_minutes, 24 * 60 - 1)
    return to_hhmm(minutes)


def _first_set(names, assignment: dict[str, int]) -> int | None:
    """The index of the first of `names` that `assignment` sets, or None."""
    return next((r for r, name in enumerate(names) if assignment.get(name, 0)), None)


def decode_assignment(
    slice_: MilpSlice,
    assignment: dict[str, int],
    origin: str,
    target: str,
    people: int = 1,
) -> Plan:
    """The plan of a feasible `assignment` to the variables of `slice_`'s model,
    read on the slice's own dimensions.

    The variable names are read from the families that the model's builder
    declares for `slice_`, and the positions are taken in the builder's
    layout: hotels, attractions, restaurants, then stations.
    """
    builder = _Builder(slice_, None)
    params = builder.p
    kinds: list[tuple[str, dict | None]] = (
        [("accommodation", row) for row in slice_.hotels]
        + [("attraction", row) for row in slice_.attractions]
        + [("meal", row) for row in slice_.restaurants]
        + [("station", None)] * len(slice_.stations))
    located = builder.u[:len(kinds)]
    occupied = [_first_set([names[t] for names in located], assignment)
                for t in range(params.time_step)]

    days = [DayPlan(day=d + 1, activities=[]) for d in range(params.days)]

    go = _first_set(builder.intergo, assignment)
    if go is not None:
        days[0].activities.append(slice_.go_routes[go].activity(people))

    t = 0
    while t < params.time_step:
        idx = occupied[t]
        if idx is None or kinds[idx][0] == "station":
            t += 1
            continue
        end = t
        while end + 1 < params.time_step and occupied[end + 1] == idx:
            end += 1
        kind, row = kinds[idx]
        day = min(t // params.slots_per_day, params.days - 1)
        if kind == "meal":
            # the latest meal whose service has opened by the slot's start
            begin = (t % params.slots_per_day) * params.slot_minutes
            kind = "breakfast"
            for meal, (opens, _) in MEAL_WINDOWS.items():
                if opens <= begin:
                    kind = meal
        activity = {
            "type": kind,
            "position": row["name"],
            "start_time": _slot_time(params, t),
            "end_time": _slot_time(params, end, end=True),
            "price": row["price"],
        }
        if kind == "accommodation":
            activity["rooms"] = 1
            activity["room_type"] = row.get("numbed", 1)
            activity["cost"] = row["price"]
        else:
            activity["tickets"] = people
            activity["cost"] = row["price"] * people
        days[day].activities.append(activity)
        t = end + 1

    back = _first_set(builder.interback, assignment)
    if back is not None:
        days[-1].activities.append(slice_.back_routes[back].activity(people))

    return Plan(people_number=people, start_city=origin, target_city=target,
                itinerary=days)
