"""Itinerary document model.

A plan is a JSON document: trip header plus an ordered list of day entries,
each holding an ordered activity list. Activities stay as plain dicts so the
concept library can read optional fields with defaults; the parser only
enforces structure and types. Semantic rules (cost arithmetic, chronology,
sandbox consistency) are the validator's job, not the parser's - a plan that
parses is "delivered" even when it is wrong.

Money is canonicalized to 2 fractional digits, distances to 3; serialization
is canonical and byte-stable, so parse(serialize(p)) == p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from ..errors import PlanParseError, SchemaError

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

MONEY_QUANTUM = Decimal("0.01")
DIST_QUANTUM = Decimal("0.001")

_MONEY_KEYS = {"price", "cost"}
_DIST_KEYS = {"distance"}
_INT_KEYS = {"tickets", "rooms", "room_type", "cars", "duration"}

# canonical key orders for serialization
_PLAN_KEYS = ("people_number", "start_city", "target_city", "itinerary")
_ACTIVITY_KEYS = (
    "type", "position", "start", "end", "TrainID", "FlightID",
    "start_time", "end_time", "price", "tickets", "rooms", "room_type",
    "cars", "cost", "transports",
)
_LEG_KEYS = (
    "mode", "start", "end", "start_time", "end_time",
    "distance", "price", "tickets", "cars", "cost",
)


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


def _canon_number(key: str, value, path: str):
    if isinstance(value, bool):
        raise SchemaError(f"{path}: field {key!r} must be a number, got a boolean")
    try:
        dec = value if isinstance(value, Decimal) else Decimal(str(value))
    except InvalidOperation:
        raise SchemaError(f"{path}: field {key!r} is not numeric: {value!r}") from None
    if key in _INT_KEYS:
        if dec != dec.to_integral_value():
            raise SchemaError(f"{path}: field {key!r} must be an integer, got {value!r}")
        return int(dec)
    if key in _MONEY_KEYS:
        return dec.quantize(MONEY_QUANTUM)
    if key in _DIST_KEYS:
        return dec.quantize(DIST_QUANTUM)
    return dec


def _canon_scalars(obj: dict, path: str) -> dict:
    out = {}
    for key, value in obj.items():
        if key in _MONEY_KEYS | _DIST_KEYS | _INT_KEYS:
            out[key] = _canon_number(key, value, path)
        else:
            out[key] = value
    return out


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}: missing mandatory field {key!r}")
    return obj[key]


def parse_plan(document: str) -> Plan:
    """Parse and canonicalize a plan document from JSON text."""
    try:
        raw = json.loads(document, parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise PlanParseError(f"invalid JSON: {exc.msg}", path=f"line {exc.lineno}") from None
    return plan_from_obj(raw)


def plan_from_obj(raw) -> Plan:
    """Build a Plan from an already-decoded JSON object."""
    if not isinstance(raw, dict):
        raise PlanParseError("plan document must be a JSON object")

    people = _require(raw, "people_number", "$")
    if isinstance(people, bool) or not isinstance(people, (int, Decimal)) or int(people) < 1:
        raise SchemaError("$: people_number must be an integer >= 1")
    start_city = _require(raw, "start_city", "$")
    target_city = _require(raw, "target_city", "$")
    if not isinstance(start_city, str) or not isinstance(target_city, str):
        raise SchemaError("$: start_city/target_city must be strings")
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
        day_index = day_obj.get("day", i + 1)
        if isinstance(day_index, Decimal):
            day_index = int(day_index)
        parsed_acts = []
        for j, act in enumerate(acts):
            apath = f"{path}.activities[{j}]"
            if not isinstance(act, dict):
                raise SchemaError(f"{apath}: activity must be an object")
            kind = _require(act, "type", apath)
            if kind not in ACTIVITY_TYPES:
                raise SchemaError(
                    f"{apath}: unknown activity type {kind!r}; expected one of {ACTIVITY_TYPES}"
                )
            act = _canon_scalars(act, apath)
            transports = act.get("transports", [])
            if not isinstance(transports, list):
                raise SchemaError(f"{apath}.transports: must be a list")
            act["transports"] = [
                _canon_scalars(leg, f"{apath}.transports[{k}]")
                if isinstance(leg, dict)
                else _bad_leg(f"{apath}.transports[{k}]")
                for k, leg in enumerate(transports)
            ]
            if not act["transports"]:
                del act["transports"]
            parsed_acts.append(act)
        day_extras = {k: v for k, v in day_obj.items() if k not in ("day", "activities")}
        days.append(DayPlan(day=int(day_index), activities=parsed_acts, extras=day_extras))

    extras = {k: v for k, v in raw.items() if k not in _PLAN_KEYS}
    return Plan(
        people_number=int(people),
        start_city=start_city,
        target_city=target_city,
        itinerary=days,
        extras=extras,
    )


def _bad_leg(path: str):
    raise SchemaError(f"{path}: transport leg must be an object")


def _emit(value) -> str:
    if isinstance(value, Decimal):
        return format(value, "f")
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, list):
        return "[" + ", ".join(_emit(v) for v in value) + "]"
    if isinstance(value, dict):
        return _emit_obj(value, known=())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit_obj(obj: dict, known: tuple[str, ...]) -> str:
    keys = [k for k in known if k in obj]
    keys += sorted(k for k in obj if k not in known)
    parts = []
    for key in keys:
        value = obj[key]
        if key == "transports" and isinstance(value, list):
            body = "[" + ", ".join(_emit_obj(leg, _LEG_KEYS) for leg in value) + "]"
        else:
            if isinstance(value, (Decimal, int)) and not isinstance(value, bool):
                if key in _MONEY_KEYS:
                    value = Decimal(value).quantize(MONEY_QUANTUM)
                elif key in _DIST_KEYS:
                    value = Decimal(value).quantize(DIST_QUANTUM)
            body = _emit(value)
        parts.append(f"{json.dumps(key)}: {body}")
    return "{" + ", ".join(parts) + "}"


def serialize_plan(plan: Plan) -> str:
    """Canonical one-plan-per-call JSON text (stable key order, LF-free)."""
    days = []
    for day in plan.itinerary:
        acts = ", ".join(_emit_obj(act, _ACTIVITY_KEYS) for act in day.activities)
        tail = "".join(
            f', {json.dumps(k)}: {_emit(day.extras[k])}' for k in sorted(day.extras)
        )
        days.append(f'{{"day": {day.day}, "activities": [{acts}]{tail}}}')
    tail = "".join(
        f', {json.dumps(k)}: {_emit(plan.extras[k])}' for k in sorted(plan.extras)
    )
    return (
        "{"
        f'"people_number": {plan.people_number}, '
        f'"start_city": {json.dumps(plan.start_city, ensure_ascii=False)}, '
        f'"target_city": {json.dumps(plan.target_city, ensure_ascii=False)}, '
        f'"itinerary": [{", ".join(days)}]{tail}'
        "}"
    )
