"""Environmental validation: the 25 sandbox-consistency rules.

Every delivered plan is checked against the same 25 rules in 7 groups
(cross-city transport, inner-city transport, attractions, restaurants,
accommodation, time, space). Rules are independent: each one owns a single
concern and stays vacuously true when a *different* rule's concern is the
problem (e.g. a bogus train id fails the route rule, while the price rule,
which compares against the resolved route, simply has nothing to compare).
Violations are report entries, never exceptions; each rule keeps its first note.

Each rule is written once: `_span` (via `timeutil.clock_span`) is the clock
guard, under which a time rule holds vacuously unless both clocks parse;
`_priced` is the "count >= 1 and cost = price x count" test of rides, visits,
hotels, metro and taxi legs (a walk leg keeps a looser rule); and
`check_poi_group` checks each of the three POI groups in one pass.

Every rule consults the loaded `Dataset`: a ride's id resolves through
`Dataset.route` to its one route and its stations through
`Dataset.station_cities` to their one cities (the loader refuses a repeated
id or a station in two cities); a visit's opening hours are the load-time
minutes of its POI (`CityDatabase.hours`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

from ..errors import InputError
from ..plan.model import INTERCITY_TYPES, MEAL_TYPES, Plan
from ..sandbox import Dataset, cars_for, goto, transfer_mode
from ..timeutil import clock_span, to_hhmm, to_minutes

MEAL_WINDOWS = {
    "breakfast": (to_minutes("06:00"), to_minutes("09:00")),
    "lunch": (to_minutes("11:00"), to_minutes("14:00")),
    "dinner": (to_minutes("17:00"), to_minutes("20:00")),
}

RULE_IDS = (
    "env.cross_city.endpoints",
    "env.cross_city.valid_route",
    "env.cross_city.price_duration",
    "env.cross_city.ticket_cost",
    "env.inner_city.valid_route",
    "env.inner_city.info",
    "env.inner_city.cost",
    "env.attractions.exists",
    "env.attractions.open_hours",
    "env.attractions.price",
    "env.attractions.cost",
    "env.attractions.no_repeat",
    "env.restaurants.exists",
    "env.restaurants.open_hours",
    "env.restaurants.price",
    "env.restaurants.cost",
    "env.restaurants.no_repeat",
    "env.restaurants.meal_window",
    "env.accommodation.exists",
    "env.accommodation.price_room",
    "env.accommodation.cost",
    "env.accommodation.required",
    "env.time.duration",
    "env.time.chronology",
    "env.space.transport_required",
)

ENV_RULE_COUNT = len(RULE_IDS)


@dataclass
class EnvReport:
    """Outcome per rule; `overall` is the conjunction of all 25."""

    results: dict[str, bool]
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(self.results.values())

    def failed_rules(self) -> list[str]:
        return [rule for rule in RULE_IDS if not self.results[rule]]

    def as_dict(self) -> dict:
        return {
            "overall": self.overall,
            "rules": {rule: self.results[rule] for rule in RULE_IDS},
            "notes": {rule: self.notes[rule] for rule in sorted(self.notes)},
        }


def all_false_report() -> EnvReport:
    return EnvReport({rule: False for rule in RULE_IDS},
                     {"env": "plan was not delivered"})


def _span(record: dict) -> tuple[int, int] | None:
    """The record's start and end clock in minutes, or None unless both are clock times."""
    return clock_span(record.get("start_time", ""), record.get("end_time", ""))


def _priced(record: dict, count_key: str) -> bool:
    """At least one ticket, room or car, and cost = price x that count."""
    count = record.get(count_key, 0)
    return count >= 1 and record.get("cost") == record.get("price", Decimal(0)) * count


def _position(act: dict, station_key: str) -> str:
    """Where an activity is: its `station_key` station for a ride, else its POI."""
    return act.get(station_key if act.get("type") in INTERCITY_TYPES else "position", "")


class _Check:
    def __init__(self, plan: Plan, dataset: Dataset):
        self.plan = plan
        self.dataset = dataset
        self.results = {rule: True for rule in RULE_IDS}
        self.notes: dict[str, str] = {}
        self.acts = plan.all_activities()
        self.target_db = dataset[plan.target_city] if plan.target_city in dataset else None

    def fail(self, rule: str, note: str) -> None:
        self.results[rule] = False
        self.notes.setdefault(rule, note)

    def lookup(self, table: str, name: str):
        if self.target_db is None or not name:
            return None
        return self.target_db.find(table, name)

    # -- cross-city transportation ---------------------------------------

    def check_cross_city(self) -> None:
        if not self.acts:
            self.fail("env.cross_city.endpoints", "plan has no activities")
        else:
            first, last = self.acts[0], self.acts[-1]
            city = self.dataset.station_cities.get
            ok = (
                first.get("type") in INTERCITY_TYPES
                and last.get("type") in INTERCITY_TYPES
                and city(first.get("start")) == city(last.get("end")) == self.plan.start_city
                and city(first.get("end")) == city(last.get("start")) == self.plan.target_city
            )
            if not ok:
                self.fail("env.cross_city.endpoints",
                          "first and last events must be the outbound and return transports")

        for act in self.acts:
            if act.get("type") not in INTERCITY_TYPES:
                continue
            route_id = act.get("TrainID") or act.get("FlightID") or ""
            route = self.dataset.route(route_id)
            if (
                route is None
                or route.kind != act.get("type")
                or route.from_station != act.get("start", "")
                or route.to_station != act.get("end", "")
            ):
                self.fail("env.cross_city.valid_route",
                          f"no sandbox {act.get('type', '?')} matches id {route_id!r} "
                          "with these endpoints")
            elif (
                act.get("price") != route.cost
                or act.get("start_time") != to_hhmm(route.begin)
                or act.get("end_time") != to_hhmm(route.end)
            ):
                self.fail("env.cross_city.price_duration",
                          f"price/schedule of {route_id} does not match the sandbox")
            if not _priced(act, "tickets"):
                self.fail("env.cross_city.ticket_cost",
                          "intercity cost must equal price x tickets")

    # -- inner-city transportation ---------------------------------------

    def legs_shape_ok(self, legs: list) -> bool:
        modes = [leg.get("mode", "") for leg in legs]
        if not (len(legs) == 1 and modes[0] in ("walk", "taxi")
                or modes == ["walk", "metro", "walk"]):
            return False
        known = self.target_db.poi_coordinates if self.target_db else {}
        for leg in legs:
            if (leg.get("start", "") not in known or leg.get("end", "") not in known
                    or _span(leg) is None):
                return False
        return all(earlier.get("end") == later.get("start")
                   and earlier.get("end_time") == later.get("start_time")
                   for earlier, later in zip(legs, legs[1:]))

    def check_transfer(self, legs: list) -> None:
        if not self.legs_shape_ok(legs):
            self.fail("env.inner_city.valid_route",
                      "transport legs must be a sandbox walk/taxi leg or a "
                      "walk-metro-walk triple between known positions")
            return
        mode = transfer_mode(legs)
        try:
            sandbox_legs = goto(self.target_db, legs[0]["start"], legs[-1]["end"],
                                _span(legs[0])[0], mode)
        except InputError:
            self.fail("env.inner_city.info",
                      f"a {mode} leaving {legs[0]['start_time']} arrives after 23:59")
            return
        if not all(leg.get("distance", Decimal(0)) == ref["distance"]
                   and leg.get("price", Decimal(0)) == ref["price"]
                   and leg.get("start_time") == ref["start_time"]
                   and leg.get("end_time") == ref["end_time"]
                   for leg, ref in zip(legs, sandbox_legs)):
            self.fail("env.inner_city.info",
                      "leg price/distance/duration must match the sandbox")
        elif not all(leg.get("start") == ref["start"] and leg.get("end") == ref["end"]
                     for leg, ref in zip(legs, sandbox_legs)):
            self.fail("env.inner_city.info", "leg endpoints must match the sandbox transfer")

    def check_inner_city(self) -> None:
        people = self.plan.people_number
        for act in self.acts:
            legs = act.get("transports", [])
            if not legs:
                continue
            self.check_transfer(legs)
            for leg in legs:
                mode = leg.get("mode", "")
                if mode == "taxi":
                    if leg.get("cars", 0) != cars_for(people) or not _priced(leg, "cars"):
                        self.fail("env.inner_city.cost",
                                  "taxi needs ceil(people/4) cars and cost = price x cars")
                elif mode == "metro":
                    if not _priced(leg, "tickets"):
                        self.fail("env.inner_city.cost",
                                  "metro needs tickets and cost = price x tickets")
                elif (leg.get("cost", Decimal(0))
                      != leg.get("price", Decimal(0)) * leg.get("tickets", 0)):
                    self.fail("env.inner_city.cost", "walk cost must equal price x tickets")

    # -- POI activity groups ----------------------------------------------

    def check_poi_group(self, types: tuple, table: str, group: str) -> None:
        """The `env.<group>.*` rules over the activities of `types`, rows from `table`:
        visits by opening hours, meal window and repeats, hotels by room type."""
        hotel = group == "accommodation"
        price_rule = f"env.{group}.price_room" if hotel else f"env.{group}.price"
        count_key = "rooms" if hotel else "tickets"
        positions = []
        for act in self.acts:
            kind = act.get("type")
            if kind not in types:
                continue
            name = act.get("position", "")
            positions.append(name)
            span = _span(act)
            row = self.lookup(table, name)
            if row is None:
                self.fail(f"env.{group}.exists", f"{name!r} is not a sandbox {table[:-1]}")
            else:
                if act.get("price") != row["price"]:
                    self.fail(price_rule, f"price of {name!r} must match the sandbox")
                if hotel:
                    if act.get("room_type", 0) != row["numbed"]:
                        self.fail(price_rule, f"room type at {name!r} must match the sandbox")
                elif span is not None:
                    open_at, close_at = self.target_db.hours(table, name)
                    if not (open_at <= span[0] and span[1] <= close_at):
                        self.fail(f"env.{group}.open_hours",
                                  f"visit to {name!r} falls outside its opening hours")
            if kind in MEAL_WINDOWS and span is not None:
                lo, hi = MEAL_WINDOWS[kind]
                if not (lo <= span[0] and span[1] <= hi):
                    self.fail("env.restaurants.meal_window",
                              f"{kind} must be served between {to_hhmm(lo)} and {to_hhmm(hi)}")
            if not _priced(act, count_key):
                self.fail(f"env.{group}.cost", f"cost must equal price x {count_key}")
        if hotel:
            if self.plan.day_count > 1 and not positions:
                self.fail("env.accommodation.required", "multi-day trips must include a hotel")
        elif len(positions) != len(set(positions)):
            self.fail(f"env.{group}.no_repeat", f"the same {table[:-1]} appears more than once")

    # -- time and space ----------------------------------------------------

    def check_time(self) -> None:
        for day in self.plan.itinerary:
            before = None           # clock span of the day's previous activity
            for act in day.activities:
                span = _span(act)
                if span is None:
                    self.fail("env.time.duration", "every activity needs a start and end time")
                elif span[1] <= span[0]:
                    self.fail("env.time.duration", "end time must be after start time")
                if before is not None and span is not None:
                    legs = act.get("transports", [])
                    transfer = (clock_span(legs[0].get("start_time"), legs[-1].get("end_time"))
                                if legs else (span[0], span[0]))
                    if transfer is not None and (transfer[0] < before[1]
                                                 or span[0] < transfer[1]):
                        self.fail("env.time.chronology",
                                  "activities must follow their predecessors and any "
                                  "transport arrival")
                before = span

    def check_space(self) -> None:
        for before, after in zip(self.acts, self.acts[1:]):
            from_pos = _position(before, "end")
            to_pos = _position(after, "start")
            if not from_pos or not to_pos or from_pos == to_pos:
                continue
            legs = after.get("transports", [])
            if not legs:
                self.fail("env.space.transport_required",
                          f"position changes from {from_pos!r} to {to_pos!r} "
                          "without a transport")
            elif legs[0].get("start") != from_pos or legs[-1].get("end") != to_pos:
                self.fail("env.space.transport_required",
                          "transport legs must link the two positions")

    def run(self) -> EnvReport:
        self.check_cross_city()
        self.check_inner_city()
        self.check_poi_group(("attraction",), "attractions", "attractions")
        self.check_poi_group(MEAL_TYPES, "restaurants", "restaurants")
        self.check_poi_group(("accommodation",), "hotels", "accommodation")
        self.check_time()
        self.check_space()
        return EnvReport(self.results, self.notes)


def validate_env(plan: Plan, dataset: Dataset) -> EnvReport:
    """Evaluate all 25 rules; never raises on plan content."""
    return _Check(plan, dataset).run()
