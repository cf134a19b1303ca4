"""Environmental validation: the 25 sandbox-consistency rules.

Every delivered plan is checked against the same 25 rules in 7 groups
(cross-city transport, inner-city transport, attractions, restaurants,
accommodation, time, space). Rules are independent: each one owns a single
concern and stays vacuously true when a *different* rule's concern is the
problem (e.g. a bogus train id fails the route rule, while the price rule,
which compares against the resolved route, simply has nothing to compare).
Violations are report entries, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

from ..errors import InputError
from ..plan.model import INTERCITY_TYPES, MEAL_TYPES, Plan
from ..sandbox import Dataset, cars_for, goto, transfer_mode
from ..timeutil import is_hhmm, to_hhmm, to_minutes

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


class _Check:
    def __init__(self, plan: Plan, dataset: Dataset | None):
        self.plan = plan
        self.dataset = dataset
        self.results = {rule: True for rule in RULE_IDS}
        self.notes: dict[str, str] = {}
        self.flat = [(day.day, act) for day in plan.itinerary for act in day.activities]
        self.target_db = None
        if dataset is not None and plan.target_city in dataset:
            self.target_db = dataset[plan.target_city]

    def fail(self, rule: str, note: str) -> None:
        self.results[rule] = False
        self.notes.setdefault(rule, note)

    # -- helpers --------------------------------------------------------

    @staticmethod
    def start_position(act: dict) -> str:
        if act.get("type") in INTERCITY_TYPES:
            return act.get("start", "")
        return act.get("position", "")

    @staticmethod
    def end_position(act: dict) -> str:
        if act.get("type") in INTERCITY_TYPES:
            return act.get("end", "")
        return act.get("position", "")

    @staticmethod
    def times_ok(act: dict) -> bool:
        return is_hhmm(act.get("start_time", "")) and is_hhmm(act.get("end_time", ""))

    def find_route(self, route_id: str):
        if self.dataset is None or not route_id:
            return None
        for city in self.dataset.city_names:
            route = self.dataset[city].routes_by_id.get(route_id)
            if route is not None:
                return route
        return None

    def lookup(self, table: str, name: str):
        if self.target_db is None or not name:
            return None
        return self.target_db.find(table, name)

    # -- cross-city transportation ---------------------------------------

    def check_cross_city(self) -> None:
        intercity = [act for _, act in self.flat if act.get("type") in INTERCITY_TYPES]
        if not self.flat:
            self.fail("env.cross_city.endpoints", "plan has no activities")
        else:
            first, last = self.flat[0][1], self.flat[-1][1]
            ok = (
                first.get("type") in INTERCITY_TYPES
                and last.get("type") in INTERCITY_TYPES
                and self.plan.start_city in first.get("start", "")
                and self.plan.target_city in first.get("end", "")
                and self.plan.target_city in last.get("start", "")
                and self.plan.start_city in last.get("end", "")
            )
            if not ok:
                self.fail("env.cross_city.endpoints",
                          "first and last events must be the outbound and return transports")

        for act in intercity:
            route_id = act.get("TrainID") or act.get("FlightID") or ""
            route = self.find_route(route_id)
            if (
                route is None
                or route.kind != act.get("type")
                or route.from_station != act.get("start", "")
                or route.to_station != act.get("end", "")
            ):
                self.fail("env.cross_city.valid_route",
                          f"no sandbox {act.get('type', '?')} matches id {route_id!r} "
                          "with these endpoints")
                continue
            if (
                act.get("price") != route.cost
                or act.get("start_time") != to_hhmm(route.begin)
                or act.get("end_time") != to_hhmm(route.end)
            ):
                self.fail("env.cross_city.price_duration",
                          f"price/schedule of {route_id} does not match the sandbox")

        for act in intercity:
            tickets = act.get("tickets", 0)
            if tickets < 1 or act.get("cost") != act.get("price", Decimal(0)) * tickets:
                self.fail("env.cross_city.ticket_cost",
                          "intercity cost must equal price x tickets")

    # -- inner-city transportation ---------------------------------------

    def iter_transports(self):
        for _, act in self.flat:
            legs = act.get("transports", [])
            if legs:
                yield act, legs

    def legs_shape_ok(self, legs: list) -> bool:
        modes = [leg.get("mode", "") for leg in legs]
        if len(legs) == 1:
            if modes[0] not in ("walk", "taxi"):
                return False
        elif len(legs) == 3:
            if modes != ["walk", "metro", "walk"]:
                return False
        else:
            return False
        known = self.target_db.poi_coordinates if self.target_db else {}
        for leg in legs:
            if leg.get("start", "") not in known or leg.get("end", "") not in known:
                return False
            if not (is_hhmm(leg.get("start_time", "")) and is_hhmm(leg.get("end_time", ""))):
                return False
        for earlier, later in zip(legs, legs[1:]):
            if earlier.get("end") != later.get("start"):
                return False
            if earlier.get("end_time") != later.get("start_time"):
                return False
        return True

    def check_inner_city(self) -> None:
        for act, legs in self.iter_transports():
            if not self.legs_shape_ok(legs):
                self.fail("env.inner_city.valid_route",
                          "transport legs must be a sandbox walk/taxi leg or a "
                          "walk-metro-walk triple between known positions")
                continue

            mode = transfer_mode(legs)
            try:
                sandbox_legs = goto(self.target_db, legs[0]["start"], legs[-1]["end"],
                                    legs[0]["start_time"], mode)
            except InputError:
                self.fail("env.inner_city.info",
                          f"a {mode} leaving {legs[0]['start_time']} arrives after 23:59")
                continue
            for leg, ref in zip(legs, sandbox_legs):
                same = (
                    leg.get("distance", Decimal(0)) == ref["distance"]
                    and leg.get("price", Decimal(0)) == ref["price"]
                    and leg.get("start_time") == ref["start_time"]
                    and leg.get("end_time") == ref["end_time"]
                )
                if not same:
                    self.fail("env.inner_city.info",
                              "leg price/distance/duration must match the sandbox")
                    break

        people = self.plan.people_number
        for act, legs in self.iter_transports():
            for leg in legs:
                mode = leg.get("mode", "")
                if mode == "taxi":
                    cars = leg.get("cars", 0)
                    if cars != cars_for(people) or leg.get("cost") != leg.get("price", Decimal(0)) * cars:
                        self.fail("env.inner_city.cost",
                                  "taxi needs ceil(people/4) cars and cost = price x cars")
                elif mode == "metro":
                    tickets = leg.get("tickets", 0)
                    if tickets < 1 or leg.get("cost") != leg.get("price", Decimal(0)) * tickets:
                        self.fail("env.inner_city.cost",
                                  "metro needs tickets and cost = price x tickets")
                else:
                    tickets = leg.get("tickets", 0)
                    if leg.get("cost", Decimal(0)) != leg.get("price", Decimal(0)) * tickets:
                        self.fail("env.inner_city.cost",
                                  "walk cost must equal price x tickets")

    # -- POI activity groups ----------------------------------------------

    def check_poi_group(self, activity_types, table, rules) -> None:
        acts = [act for _, act in self.flat if act.get("type") in activity_types]
        positions = []
        for act in acts:
            name = act.get("position", "")
            positions.append(name)
            row = self.lookup(table, name)
            if row is None:
                self.fail(rules["exists"], f"{name!r} is not a sandbox {table[:-1]}")
            else:
                if act.get("price") != row["price"]:
                    self.fail(rules["price"], f"price of {name!r} must match the sandbox")
                if "open_hours" in rules and self.times_ok(act):
                    start = to_minutes(act["start_time"])
                    end = to_minutes(act["end_time"])
                    if not (to_minutes(row["opentime"]) <= start
                            and end <= to_minutes(row["endtime"])):
                        self.fail(rules["open_hours"],
                                  f"visit to {name!r} falls outside its opening hours")
                if "price_room" in rules and act.get("room_type", 0) != row["numbed"]:
                    self.fail(rules["price_room"],
                              f"room type at {name!r} must match the sandbox")
            if "cost" in rules:
                tickets = act.get("tickets", 0)
                if tickets < 1 or act.get("cost") != act.get("price", Decimal(0)) * tickets:
                    self.fail(rules["cost"], "cost must equal price x tickets")
            if "room_cost" in rules:
                rooms = act.get("rooms", 0)
                if rooms < 1 or act.get("cost") != act.get("price", Decimal(0)) * rooms:
                    self.fail(rules["room_cost"], "cost must equal price x rooms")
        if "no_repeat" in rules and len(positions) != len(set(positions)):
            self.fail(rules["no_repeat"], f"the same {table[:-1]} appears more than once")

    def check_attractions(self) -> None:
        self.check_poi_group(
            ("attraction",), "attractions",
            {
                "exists": "env.attractions.exists",
                "open_hours": "env.attractions.open_hours",
                "price": "env.attractions.price",
                "cost": "env.attractions.cost",
                "no_repeat": "env.attractions.no_repeat",
            },
        )

    def check_restaurants(self) -> None:
        self.check_poi_group(
            MEAL_TYPES, "restaurants",
            {
                "exists": "env.restaurants.exists",
                "open_hours": "env.restaurants.open_hours",
                "price": "env.restaurants.price",
                "cost": "env.restaurants.cost",
                "no_repeat": "env.restaurants.no_repeat",
            },
        )
        for _, act in self.flat:
            kind = act.get("type")
            if kind in MEAL_WINDOWS and self.times_ok(act):
                lo, hi = MEAL_WINDOWS[kind]
                if not (lo <= to_minutes(act["start_time"])
                        and to_minutes(act["end_time"]) <= hi):
                    self.fail("env.restaurants.meal_window",
                              f"{kind} must be served between "
                              f"{to_hhmm(lo)} and {to_hhmm(hi)}")

    def check_accommodation(self) -> None:
        self.check_poi_group(
            ("accommodation",), "hotels",
            {
                "exists": "env.accommodation.exists",
                "price": "env.accommodation.price_room",
                "price_room": "env.accommodation.price_room",
                "room_cost": "env.accommodation.cost",
            },
        )
        if self.plan.day_count > 1:
            if not any(act.get("type") == "accommodation" for _, act in self.flat):
                self.fail("env.accommodation.required",
                          "multi-day trips must include a hotel")

    # -- time and space ----------------------------------------------------

    def check_time(self) -> None:
        for _, act in self.flat:
            if not self.times_ok(act):
                self.fail("env.time.duration",
                          "every activity needs a start and end time")
            elif to_minutes(act["end_time"]) <= to_minutes(act["start_time"]):
                self.fail("env.time.duration", "end time must be after start time")

        for day in self.plan.itinerary:
            for earlier, later in zip(day.activities, day.activities[1:]):
                if not (self.times_ok(earlier) and self.times_ok(later)):
                    continue
                legs = later.get("transports", [])
                depart = legs[0].get("start_time") if legs else later["start_time"]
                arrive = legs[-1].get("end_time") if legs else later["start_time"]
                if not (is_hhmm(depart or "") and is_hhmm(arrive or "")):
                    continue
                if (to_minutes(depart) < to_minutes(earlier["end_time"])
                        or to_minutes(later["start_time"]) < to_minutes(arrive)):
                    self.fail("env.time.chronology",
                              "activities must follow their predecessors and any "
                              "transport arrival")

    def check_space(self) -> None:
        for before, after in zip(self.flat, self.flat[1:]):
            from_pos = self.end_position(before[1])
            to_pos = self.start_position(after[1])
            if not from_pos or not to_pos or from_pos == to_pos:
                continue
            legs = after[1].get("transports", [])
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
        self.check_attractions()
        self.check_restaurants()
        self.check_accommodation()
        self.check_time()
        self.check_space()
        return EnvReport(self.results, self.notes)


def validate_env(plan: Plan, dataset: Dataset | None) -> EnvReport:
    """Evaluate all 25 rules; never raises on plan content."""
    return _Check(plan, dataset).run()
