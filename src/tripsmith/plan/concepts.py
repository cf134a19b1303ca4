"""The functions constraint programs may call: concepts and set builtins.

`FUNCTIONS` is the only list of callables; the checker reads names and arities
from it, and the compiler binds each checked call to its entry. A concept that
reads one key of a record, one column of a sandbox row or one field summed
over transport legs is built in `CONCEPT_REGISTRY` by a small factory from the
key it reads, so each such rule is written once. Concepts are total over the
plans `plan_from_obj` accepts, whose every present field has its `FIELDS`
type: absent optional fields fall back to 0, "", [] or -1 instead of raising,
so a wrong plan yields a failed comparison rather than a crashed validator;
a station the sandbox does not place (`Dataset.station_cities`) reads "".
The set builtins `list`, `uni`, `inter` and `diff` raise on a bad operand.

Numbers are Decimals throughout; times are "HH:MM" strings.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Callable

from ..errors import DslEvalError, NotFoundError
from ..sandbox import Dataset, transfer_mode
from ..timeutil import clock_span
from .model import Plan

ZERO = Decimal("0")
MINUS_ONE = Decimal("-1")


class ConceptContext:
    """The plan and the loaded sandbox: all a concept call may consult besides its arguments."""

    def __init__(self, plan: Plan, dataset: Dataset):
        self.plan = plan
        self.dataset = dataset

    def city(self, name: str):
        if name not in self.dataset:
            raise DslEvalError(f"city {name!r} is not loaded")
        return self.dataset[name]


def _num(value) -> Decimal:
    return value if isinstance(value, Decimal) else Decimal(str(value))


def _plan_of(value) -> Plan:
    if not isinstance(value, Plan):
        raise DslEvalError("expected the plan as argument")
    return value


def _record_of(value) -> dict:
    if not isinstance(value, dict):
        raise DslEvalError("expected an activity record as argument")
    return value


def _legs_of(value) -> list:
    if not isinstance(value, list):
        raise DslEvalError("expected a transport-leg list as argument")
    return value


def _minutes_between(start, end) -> Decimal:
    """Minutes from clock time `start` to `end`, or -1 unless both are clock times."""
    span = clock_span(start, end)
    return MINUS_ONE if span is None else Decimal(span[1] - span[0])


# -- plan-level accessors ----------------------------------------------------

def day_count(ctx, plan):
    return Decimal(len(_plan_of(plan).itinerary))


def people_count(ctx, plan):
    return Decimal(_plan_of(plan).people_number)


def start_city(ctx, plan):
    return _plan_of(plan).start_city


def target_city(ctx, plan):
    return _plan_of(plan).target_city


def allactivities(ctx, plan):
    return _plan_of(plan).all_activities()


def allactivities_count(ctx, plan):
    return Decimal(sum(len(day.activities) for day in _plan_of(plan).itinerary))


def dayactivities(ctx, plan, day):
    days = _plan_of(plan).itinerary
    if not isinstance(day, Decimal):
        raise DslEvalError(f"dayactivities expects a day number, got {type_name(day)}")
    if not day.is_finite() or day != day.to_integral_value():
        raise DslEvalError(f"dayactivities expects a whole day number, got {day}")
    index = int(day)
    if not 1 <= index <= len(days):
        return []
    return list(days[index - 1].activities)


# -- record accessors, each built from the key it reads -----------------------

def _number_field(key):
    def accessor(ctx, record):
        return _num(_record_of(record).get(key, 0))
    return accessor


def _text_field(key):
    def accessor(ctx, record):
        return _record_of(record).get(key, "")
    return accessor


def _station_city(key):
    """The city `Dataset.station_cities` gives the record's `key` station, or ""."""
    def accessor(ctx, record):
        station = _record_of(record).get(key)
        return ctx.dataset.station_cities.get(station, "") if isinstance(station, str) else ""
    return accessor


def activity_transports(ctx, activity):
    return list(_record_of(activity).get("transports", []))


def activity_time(ctx, activity):
    act = _record_of(activity)
    return _minutes_between(act.get("start_time", ""), act.get("end_time", ""))


# -- sandbox-backed lookups --------------------------------------------------

def _row(db, table, name):
    """The sandbox row called `name`, or None (also when `name` is not text)."""
    return db.find(table, name) if isinstance(name, str) else None


def poi_recommend_time(ctx, city, poi):
    row = _row(ctx.city(str(city)), "attractions", poi)
    return MINUS_ONE if row is None else _num(row["recommendmintime"]) * 60


def poi_distance(ctx, city, poi1, poi2):
    db = ctx.city(str(city))
    try:
        return db.distance(str(poi1), str(poi2))
    except NotFoundError as exc:
        raise DslEvalError(str(exc)) from None


def _poi_attribute(table, column):
    """`column` of the `table` row named by the activity's position, or ""."""
    def accessor(ctx, activity, city):
        row = _row(ctx.city(str(city)), table, _record_of(activity).get("position", ""))
        return "" if row is None else row[column]
    return accessor


# -- transport-leg accessors -------------------------------------------------

def _leg_total(key):
    """Sum of `key` over the legs, or over the legs of one mode when given."""
    def accessor(ctx, transports, mode=None):
        total = ZERO
        for leg in _legs_of(transports):
            if mode is None or leg.get("mode", leg.get("type", "")) == mode:
                total += _num(leg.get(key, 0))
        return total
    return accessor


def innercity_transport_time(ctx, transports):
    legs = _legs_of(transports)
    if not legs:
        return ZERO
    return _minutes_between(legs[0].get("start_time", ""), legs[-1].get("end_time", ""))


def innercity_transport_type(ctx, transports):
    return transfer_mode(_legs_of(transports))


def innercity_transport_start_time(ctx, transports):
    legs = _legs_of(transports)
    return legs[0].get("start_time", "") if legs else ""


def innercity_transport_end_time(ctx, transports):
    legs = _legs_of(transports)
    return legs[-1].get("end_time", "") if legs else ""


def metro_tickets(ctx, transports):
    legs = _legs_of(transports)
    if len(legs) >= 2:
        return _num(legs[1].get("tickets", 0))
    return ZERO


def taxi_cars(ctx, transports):
    legs = _legs_of(transports)
    if legs:
        return _num(legs[0].get("cars", 0))
    return ZERO


# name -> (implementation, min arity, max arity)
CONCEPT_REGISTRY: dict[str, tuple[Callable, int, int]] = {
    "day_count": (day_count, 1, 1),
    "people_count": (people_count, 1, 1),
    "start_city": (start_city, 1, 1),
    "target_city": (target_city, 1, 1),
    "allactivities": (allactivities, 1, 1),
    "allactivities_count": (allactivities_count, 1, 1),
    "dayactivities": (dayactivities, 2, 2),
    "activity_cost": (_number_field("cost"), 1, 1),
    "activity_position": (_text_field("position"), 1, 1),
    "activity_price": (_number_field("price"), 1, 1),
    "activity_type": (_text_field("type"), 1, 1),
    "activity_tickets": (_number_field("tickets"), 1, 1),
    "activity_transports": (activity_transports, 1, 1),
    "activity_start_time": (_text_field("start_time"), 1, 1),
    "activity_end_time": (_text_field("end_time"), 1, 1),
    "activity_time": (activity_time, 1, 1),
    "poi_recommend_time": (poi_recommend_time, 2, 2),
    "poi_distance": (poi_distance, 3, 3),
    "innercity_transport_cost": (_leg_total("cost"), 1, 2),
    "innercity_transport_price": (_leg_total("price"), 1, 1),
    "innercity_transport_distance": (_leg_total("distance"), 1, 2),
    "innercity_transport_time": (innercity_transport_time, 1, 1),
    "metro_tickets": (metro_tickets, 1, 1),
    "taxi_cars": (taxi_cars, 1, 1),
    "room_count": (_number_field("rooms"), 1, 1),
    "room_type": (_number_field("room_type"), 1, 1),
    "restaurant_type": (_poi_attribute("restaurants", "cuisinetype"), 2, 2),
    "attraction_type": (_poi_attribute("attractions", "type"), 2, 2),
    "accommodation_type": (_poi_attribute("hotels", "featurehoteltype"), 2, 2),
    "innercity_transport_type": (innercity_transport_type, 1, 1),
    "intercity_transport_type": (_text_field("type"), 1, 1),
    "innercity_transport_start_time": (innercity_transport_start_time, 1, 1),
    "innercity_transport_end_time": (innercity_transport_end_time, 1, 1),
    "intercity_transport_origin": (_station_city("start"), 1, 1),
    "intercity_transport_destination": (_station_city("end"), 1, 1),
}

# spelling used by several published constraint programs
CONCEPT_ALIASES = {"all_activities": "allactivities"}


# -- set builtins ------------------------------------------------------------

_SCALAR_TYPES = (Decimal, str, bool)


def type_name(value) -> str:
    """The DSL's name for the type of a runtime value, as messages print it."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, Decimal):
        return "number"
    if isinstance(value, str):
        return "text"
    if isinstance(value, list):
        return "list"
    if isinstance(value, frozenset):
        return "set"
    return "record"


def _set_operand(value) -> frozenset:
    if not isinstance(value, (list, frozenset)):
        raise DslEvalError(f"set operand must be a list or set, got {type_name(value)}")
    for item in value:
        if not isinstance(item, _SCALAR_TYPES):
            raise DslEvalError(f"set elements must be scalars, got {type_name(item)}")
    return frozenset(value)


def new_list(ctx):
    return []


def uni(ctx, left, right):
    return _set_operand(left) | _set_operand(right)


def inter(ctx, left, right):
    return _set_operand(left) & _set_operand(right)


def diff(ctx, left, right):
    return _set_operand(left) - _set_operand(right)


# every name a program may call -> (implementation, min arity, max arity)
FUNCTIONS: dict[str, tuple[Callable, int, int]] = {
    **CONCEPT_REGISTRY,
    **{alias: CONCEPT_REGISTRY[name] for alias, name in CONCEPT_ALIASES.items()},
    "list": (new_list, 0, 0),
    "uni": (uni, 2, 2),
    "inter": (inter, 2, 2),
    "diff": (diff, 2, 2),
}


def arity_message(name: str, count: int) -> str:
    """How a call of `FUNCTIONS[name]` with `count` arguments misses its arity.

    The checker's diagnostic reads this text, and it reaches `nl2dsl` repair
    prompts; a program whose calls miss their arity never runs.
    """
    _, lo, hi = FUNCTIONS[name]
    expected = str(lo) if lo == hi else f"{lo} to {hi}"
    return f"{name} expects {expected} argument(s), got {count}"
