import copy
import shutil
from decimal import Decimal
from pathlib import Path

import pytest

# one summary line per acceptance criterion, printed after the run
_CRITERION_RESULTS: dict[str, str] = {}

CRITERION_TITLES = {
    "01": "metric formulas exact on 200 random report sets (+ bound chain, <5s)",
    "02": "C-LPR worked example equals 1/3",
    "03": "golden constraint corpus matches direct oracles (zero tolerance)",
    "04": "each of the 25 environmental rules flips alone",
    "05": "planner completeness on 50 certified desk-scale queries (<10s each)",
    "06": "next-activity rules: lunch window, late-night hotel, closing truncation",
    "07": "MILP sizes: closed form == emission; downsample within +-20% (<10s)",
    "08": "micro_solve toy assignments re-satisfy every row; contradictions proven",
    "09": "certified queries carry independently re-validated witnesses",
    "10": "seeded generate->plan->eval pipeline is byte-identical across runs",
    "11": "fault-injected model calls never crash; one degradation per fault",
}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    number = name.split("_")[2]
    _CRITERION_RESULTS[number] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_CRITERION_RESULTS):
        title = CRITERION_TITLES.get(number, "")
        outcome = _CRITERION_RESULTS[number]
        terminalreporter.write_line(f"{outcome}: criterion {number} - {title}")

from tripsmith.plan.model import DayPlan, Plan
from tripsmith.sandbox import load_dataset
from tripsmith.search.context import QueryContext
from tripsmith.search.state import transport_legs
from tripsmith.timeutil import to_minutes

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def mini_dataset():
    return load_dataset(FIXTURES / "mini")


@pytest.fixture(scope="session")
def micro_dataset():
    return load_dataset(FIXTURES / "micro")


@pytest.fixture(scope="session")
def beta(mini_dataset):
    return mini_dataset["Beta"]


def micro_context(days=1, people=2, **kwargs) -> QueryContext:
    return QueryContext(origin="Alpha", target="Beta", days=days, people=people, **kwargs)


def micro_with_routes(tmp_path, *rows: str) -> Path:
    """A copy of the micro fixture whose Alpha -> Beta routes are `rows` (CSV lines)."""
    root = tmp_path / "micro"
    shutil.copytree(FIXTURES / "micro", root)
    header = "ID,Kind,From,To,BeginTime,EndTime,Duration,Cost\n"
    (root / "Alpha" / "intercity.csv").write_text(header + "".join(f"{row}\n" for row in rows))
    return root


# ---------------------------------------------------------------------------
# Canonical two-day plan over the mini fixture.
#
# Start times are hand-picked with generous slack so that a targeted
# corruption of one activity never drags a second rule down with it. All
# transport legs are computed through the sandbox itself, and the builder
# asserts each arrival actually precedes the planned start.
# ---------------------------------------------------------------------------

PEOPLE = 2

_DAY1 = (
    # (type, position, depart_from_prev_at, start, end, price)
    ("breakfast", "Hotpot Palace", "08:10", "08:20", "08:50", "80.00"),
    ("attraction", "Riverside Pavilion", "08:50", "09:10", "10:40", "40.00"),
    ("lunch", "Golden Noodle House", "10:40", "11:10", "12:10", "30.00"),
    ("attraction", "Old Town Wall", "12:10", "12:40", "14:10", "60.00"),
    ("attraction", "City Museum", "14:10", "14:40", "16:10", "50.00"),
    ("dinner", "Canton Garden", "16:10", "17:10", "18:10", "60.00"),
)
_DAY2 = (
    ("breakfast", "Spice Market Kitchen", "07:30", "08:00", "08:45", "45.00"),
    ("attraction", "Lakeview Tower", "08:45", "09:10", "10:40", "80.00"),
)


def legs_for(db, start, end, depart, people=PEOPLE, mode=None):
    """Plan-ready legs via the sandbox; mode defaults to walk/metro by distance."""
    if mode is None:
        from tripsmith.search.state import pick_mode

        mode = pick_mode(db, start, end, QueryContext("Alpha", "Beta", 1, people))
    legs, arrival, _ = transport_legs(db, start, end, to_minutes(depart), mode, people)
    return legs, arrival


def _visit(db, kind, position, prev_pos, depart, start, end, price):
    legs, arrival = legs_for(db, prev_pos, position, depart)
    assert arrival <= to_minutes(start), (position, arrival, start)
    price = Decimal(price)
    act = {
        "type": kind,
        "position": position,
        "start_time": start,
        "end_time": end,
        "price": price,
        "tickets": PEOPLE,
        "cost": price * PEOPLE,
    }
    if legs:
        act["transports"] = legs
    return act


def build_base_plan(dataset) -> Plan:
    db = dataset["Beta"]
    day1 = [{
        "type": "train", "start": "Alpha Station", "end": "Beta Station",
        "TrainID": "G101", "start_time": "06:30", "end_time": "08:10",
        "price": Decimal("120.00"), "tickets": PEOPLE, "cost": Decimal("240.00"),
    }]
    prev = "Beta Station"
    for kind, pos, depart, start, end, price in _DAY1:
        day1.append(_visit(db, kind, pos, prev, depart, start, end, price))
        prev = pos
    hotel_legs, arrival = legs_for(db, prev, "Harbor Hotel", "18:10")
    assert arrival <= to_minutes("21:00")
    day1.append({
        "type": "accommodation", "position": "Harbor Hotel",
        "start_time": "21:00", "end_time": "23:59",
        "price": Decimal("400.00"), "rooms": 1, "room_type": 2,
        "cost": Decimal("400.00"), "transports": hotel_legs,
    })

    day2 = []
    prev = "Harbor Hotel"
    for kind, pos, depart, start, end, price in _DAY2:
        day2.append(_visit(db, kind, pos, prev, depart, start, end, price))
        prev = pos
    ret_legs, arrival = legs_for(db, prev, "Beta Station", "10:40")
    assert arrival <= to_minutes("20:30")
    day2.append({
        "type": "train", "start": "Beta Station", "end": "Alpha Station",
        "TrainID": "G104", "start_time": "20:30", "end_time": "22:10",
        "price": Decimal("115.00"), "tickets": PEOPLE, "cost": Decimal("230.00"),
        "transports": ret_legs,
    })
    return Plan(
        people_number=PEOPLE, start_city="Alpha", target_city="Beta",
        itinerary=[DayPlan(day=1, activities=day1), DayPlan(day=2, activities=day2)],
    )


def _retarget(db, plan, day, idx, new_pos, new_price):
    """Move one visit to another known POI, rebuilding the legs around it."""
    acts = plan.itinerary[day].activities
    act = acts[idx]
    prev_pos = None
    for earlier in reversed(acts[:idx] or plan.itinerary[day - 1].activities):
        prev_pos = earlier.get("position") or earlier.get("end")
        break
    depart = act["transports"][0]["start_time"] if act.get("transports") else act["start_time"]
    legs, arrival = legs_for(db, prev_pos, new_pos, depart)
    assert arrival <= to_minutes(act["start_time"])
    act["position"] = new_pos
    act["price"] = Decimal(new_price)
    act["cost"] = Decimal(new_price) * plan.people_number
    if legs:
        act["transports"] = legs
    else:
        act.pop("transports", None)
    # the next activity's legs must leave from the new position
    follow_day, follow_idx = (day, idx + 1)
    if follow_idx >= len(acts):
        follow_day, follow_idx = day + 1, 0
    if follow_day < len(plan.itinerary) and plan.itinerary[follow_day].activities:
        nxt = plan.itinerary[follow_day].activities[follow_idx]
        target = nxt.get("position") or nxt.get("start")
        depart = (nxt["transports"][0]["start_time"] if nxt.get("transports")
                  else nxt["start_time"])
        legs, arrival = legs_for(db, new_pos, target, depart)
        limit = nxt["start_time"]
        assert arrival <= to_minutes(limit), (new_pos, target, arrival, limit)
        if legs:
            nxt["transports"] = legs
        else:
            nxt.pop("transports", None)


def corrupt_plan(dataset, rule: str) -> Plan:
    """A copy of the base plan violating exactly `rule`."""
    db = dataset["Beta"]
    plan = copy.deepcopy(build_base_plan(dataset))
    d1 = plan.itinerary[0].activities
    d2 = plan.itinerary[1].activities
    outbound, museum, dinner, hotel = d1[0], d1[5], d1[6], d1[7]
    breakfast1, pavilion, lunch = d1[1], d1[2], d1[3]
    wall = d1[4]
    breakfast2, tower, ret = d2[0], d2[1], d2[2]

    if rule == "env.cross_city.endpoints":
        d2.pop()            # no return ride
    elif rule == "env.cross_city.valid_route":
        outbound["TrainID"] = "G999"
    elif rule == "env.cross_city.price_duration":
        outbound["price"] = Decimal("119.00")
        outbound["cost"] = Decimal("238.00")
    elif rule == "env.cross_city.ticket_cost":
        outbound["cost"] = Decimal("230.00")
    elif rule == "env.inner_city.valid_route":
        wall["transports"][1]["start"] = "Beta Station"   # break the leg chain
    elif rule == "env.inner_city.info":
        wall["transports"][1]["distance"] = (
            wall["transports"][1]["distance"] + Decimal("0.500")
        )
    elif rule == "env.inner_city.cost":
        plan.people_number = 5            # taxi now needs ceil(5/4) = 2 cars
        legs, arrival = legs_for(db, "Old Town Wall", "City Museum", "14:10",
                                 people=5, mode="taxi")
        assert arrival <= to_minutes(museum["start_time"])
        legs[0]["cars"] = 1
        legs[0]["cost"] = legs[0]["price"]
        museum["transports"] = legs
    elif rule == "env.attractions.exists":
        _retarget(db, plan, 0, 5, "Spice Market Kitchen", "50.00")
    elif rule == "env.attractions.open_hours":
        tower["end_time"] = "17:45"       # Lakeview Tower closes 17:30
        legs, arrival = legs_for(db, "Lakeview Tower", "Beta Station", "17:45")
        assert arrival <= to_minutes(ret["start_time"])
        ret["transports"] = legs
    elif rule == "env.attractions.price":
        pavilion["price"] = Decimal("45.00")
        pavilion["cost"] = Decimal("90.00")
    elif rule == "env.attractions.cost":
        pavilion["cost"] = Decimal("100.00")
    elif rule == "env.attractions.no_repeat":
        _retarget(db, plan, 1, 1, "Riverside Pavilion", "40.00")
    elif rule == "env.restaurants.exists":
        _retarget(db, plan, 0, 3, "City Museum", "50.00")
    elif rule == "env.restaurants.open_hours":
        _retarget(db, plan, 0, 3, "Night Owl Bistro", "50.00")  # opens 12:00
    elif rule == "env.restaurants.price":
        breakfast1["price"] = Decimal("75.00")
        breakfast1["cost"] = Decimal("150.00")
    elif rule == "env.restaurants.cost":
        breakfast1["cost"] = Decimal("150.00")
    elif rule == "env.restaurants.no_repeat":
        _retarget(db, plan, 1, 0, "Hotpot Palace", "80.00")
    elif rule == "env.restaurants.meal_window":
        dinner["start_time"] = "20:10"
        dinner["end_time"] = "20:40"      # window closes 20:00
        legs, arrival = legs_for(db, "Canton Garden", "Harbor Hotel", "20:40")
        assert arrival <= to_minutes(hotel["start_time"])
        hotel["transports"] = legs
    elif rule == "env.accommodation.exists":
        _retarget(db, plan, 0, 7, "Old Town Wall", "400.00")
        hotel["rooms"] = 1
        hotel["cost"] = Decimal("400.00")
    elif rule == "env.accommodation.price_room":
        hotel["room_type"] = 1            # Harbor Hotel sleeps 2 per room
    elif rule == "env.accommodation.cost":
        hotel["cost"] = Decimal("300.00")
    elif rule == "env.accommodation.required":
        d1.pop()                          # two days, no hotel
        legs, arrival = legs_for(db, "Canton Garden", "Spice Market Kitchen", "07:30")
        assert arrival <= to_minutes(breakfast2["start_time"])
        breakfast2["transports"] = legs
    elif rule == "env.time.duration":
        tower["end_time"] = tower["start_time"]
    elif rule == "env.time.chronology":
        legs, arrival = legs_for(db, "Spice Market Kitchen", "Lakeview Tower", "08:30")
        assert arrival <= to_minutes(tower["start_time"])
        tower["transports"] = legs        # departs before breakfast ends 08:45
    elif rule == "env.space.transport_required":
        wall.pop("transports")
    else:
        raise AssertionError(f"no corruption for {rule}")
    return plan
