"""Itinerary document model.

A plan is a JSON record: the trip header (`people_number`, `start_city`,
`target_city`) and an `itinerary` of day entries, each holding an ordered
`activities` list; an activity may carry a list of inner-city `transports`
legs. Activities and legs stay plain dicts. `FIELDS` is the one table of
their scalar fields: each key is text, an integer, or an amount kept to a
money or a distance quantum. `plan_from_obj` checks every present field
against it, so a null or wrongly typed field is a `SchemaError` and the plan
is not delivered; keys the table does not name pass through unchecked.
`plan_schema.json` states the same contract for readers outside the package.

Semantic rules (cost arithmetic, chronology, sandbox consistency) are the
validator's job, not the parser's - a plan that parses is "delivered" even
when it is wrong. `serialize_plan` turns a plan back into its JSON record,
with money at 2 fractional digits and distances at 3; the artifact writers
fix the key order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from ..errors import SchemaError
from ..geo import DIST_QUANTUM
from ..sandbox.fares import MONEY_QUANTUM

ACTIVITY_TYPES = (
    "attraction",
    "breakfast",
    "lunch",
    "dinner",
    "accommodation",
    "train",
    "airplane",
)
MEAL_TYPES = ("breakfast", "lunch", "dinner")
INTERCITY_TYPES = ("train", "airplane")

# activity and transport-leg field -> str (text), int, or the quantum an amount
# of money or distance is kept to
FIELDS: dict[str, type | Decimal] = {
    **dict.fromkeys(("type", "mode", "position", "start", "end", "TrainID", "FlightID",
                     "start_time", "end_time"), str),
    **dict.fromkeys(("tickets", "rooms", "room_type", "cars", "duration"), int),
    "price": MONEY_QUANTUM,
    "cost": MONEY_QUANTUM,
    "distance": DIST_QUANTUM,
}

_PLAN_KEYS = ("people_number", "start_city", "target_city", "itinerary")


@dataclass
class DayPlan:
    day: int
    activities: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


@dataclass
class Plan:
    people_number: int
    start_city: str
    target_city: str
    itinerary: list[DayPlan] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def all_activities(self) -> list[dict]:
        out = []
        for day in self.itinerary:
            out.extend(day.activities)
        return out

    @property
    def day_count(self) -> int:
        return len(self.itinerary)


def _typed(key: str, value, kind, path: str):
    """`value` of field `key` as `kind` types it (see `FIELDS`), or a SchemaError."""
    if kind is str:
        if not isinstance(value, str):
            raise SchemaError(f"{path}: field {key!r} must be a string, got {value!r}")
        return value
    if kind is int and type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, Decimal)):
        raise SchemaError(f"{path}: field {key!r} must be a number, got {value!r}")
    number = value if isinstance(value, Decimal) else Decimal(str(value))
    if not number.is_finite():
        raise SchemaError(f"{path}: field {key!r} must be finite, got {value!r}")
    if kind is int:
        if number != number.to_integral_value():
            raise SchemaError(f"{path}: field {key!r} must be an integer, got {value!r}")
        return int(number)
    try:
        return number.quantize(kind)
    except InvalidOperation:
        raise SchemaError(f"{path}: field {key!r} is out of range: {value!r}") from None


def _record(obj, path: str, what: str) -> dict:
    """A copy of activity or leg `obj` with every `FIELDS` field checked."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: {what} must be an object")
    return {key: _typed(key, value, FIELDS[key], path) if key in FIELDS else value
            for key, value in obj.items()}


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}: missing mandatory field {key!r}")
    return obj[key]


def parse_plan(document: str) -> Plan:
    """Parse and canonicalize a plan document from JSON text."""
    try:
        raw = json.loads(document, parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:     # an over-long int, too deep a nesting
        raise SchemaError(f"invalid JSON: {exc}") from None
    return plan_from_obj(raw)


def plan_from_obj(raw) -> Plan:
    """Build a Plan from an already-decoded JSON object."""
    if not isinstance(raw, dict):
        raise SchemaError("plan document must be a JSON object")

    people, start_city, target_city = (
        _typed(key, _require(raw, key, "$"), kind, "$")
        for key, kind in (("people_number", int), ("start_city", str), ("target_city", str))
    )
    if people < 1:
        raise SchemaError(f"$: field 'people_number' must be at least 1, got {people}")
    itinerary = _require(raw, "itinerary", "$")
    if not isinstance(itinerary, list):
        raise SchemaError("$.itinerary: must be a list of day entries")

    days = []
    for i, day_obj in enumerate(itinerary):
        path = f"$.itinerary[{i}]"
        if not isinstance(day_obj, dict):
            raise SchemaError(f"{path}: day entry must be an object")
        acts = _require(day_obj, "activities", path)
        if not isinstance(acts, list):
            raise SchemaError(f"{path}.activities: must be a list")
        parsed_acts = []
        for j, act in enumerate(acts):
            apath = f"{path}.activities[{j}]"
            act = _record(act, apath, "activity")
            kind = _require(act, "type", apath)
            if kind not in ACTIVITY_TYPES:
                raise SchemaError(
                    f"{apath}: unknown activity type {kind!r}; expected one of {ACTIVITY_TYPES}"
                )
            legs = act.get("transports", [])
            if not isinstance(legs, list):
                raise SchemaError(f"{apath}.transports: must be a list")
            if legs:
                act["transports"] = [_record(leg, f"{apath}.transports[{k}]", "transport leg")
                                     for k, leg in enumerate(legs)]
            else:
                act.pop("transports", None)
            parsed_acts.append(act)
        day_extras = {k: v for k, v in day_obj.items() if k not in ("day", "activities")}
        day = _typed("day", day_obj.get("day", i + 1), int, path)
        days.append(DayPlan(day=day, activities=parsed_acts, extras=day_extras))

    extras = {k: v for k, v in raw.items() if k not in _PLAN_KEYS}
    return Plan(
        people_number=people,
        start_city=start_city,
        target_city=target_city,
        itinerary=days,
        extras=extras,
    )


def _json(value, quantum=None):
    """`value` as JSON data: an amount on its quantum, record fields by `FIELDS`."""
    if isinstance(value, dict):
        return {key: _json(item, FIELDS.get(key)) for key, item in value.items()}
    if isinstance(value, list):
        return [_json(item) for item in value]
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        return value
    if isinstance(quantum, Decimal):
        value = Decimal(value).quantize(quantum)
    if isinstance(value, Decimal):
        # what its plain text reads back as: "12" an int, "12.50" a float
        return int(value) if value.as_tuple().exponent >= 0 else float(value)
    return value


def serialize_plan(plan: Plan) -> dict:
    """The plan as its JSON record; money and distances kept to their quantum."""
    return {
        "people_number": plan.people_number,
        "start_city": plan.start_city,
        "target_city": plan.target_city,
        "itinerary": [
            {"day": day.day, "activities": [_json(act) for act in day.activities],
             **{key: _json(value) for key, value in day.extras.items()}}
            for day in plan.itinerary
        ],
        **{key: _json(value) for key, value in plan.extras.items()},
    }
