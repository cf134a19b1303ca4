import random
from decimal import Decimal, InvalidOperation

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsmith.errors import PlanParseError, SchemaError
from tripsmith.plan import (
    CONCEPT_REGISTRY,
    ConceptContext,
    concept,
    parse_plan,
    serialize_plan,
)
from tripsmith.plan.model import DayPlan, Plan
from tripsmith.errors import DslEvalError

from .oracles import haversine_reference

MINIMAL = """\
{"people_number": 2, "start_city": "Alpha", "target_city": "Beta",
 "itinerary": [{"day": 1, "activities": [
    {"type": "train", "start": "Alpha Station", "end": "Beta Station",
     "TrainID": "G101", "start_time": "06:30", "end_time": "08:10",
     "price": 120.00, "tickets": 2, "cost": 240.00},
    {"type": "train", "start": "Beta Station", "end": "Alpha Station",
     "TrainID": "G102", "start_time": "18:30", "end_time": "20:10",
     "price": 120.00, "tickets": 2, "cost": 240.00}
 ]}]}
"""


def ctx(plan, dataset=None):
    return ConceptContext(plan, dataset)


def test_registry_has_exactly_35_concepts():
    assert len(CONCEPT_REGISTRY) == 35


def test_parse_minimal_plan():
    plan = parse_plan(MINIMAL)
    assert plan.day_count == 1
    assert plan.people_number == 2
    assert plan.itinerary[0].activities[0]["price"] == Decimal("120.00")


def test_parse_missing_itinerary():
    with pytest.raises(SchemaError, match="itinerary"):
        parse_plan('{"people_number": 1, "start_city": "A", "target_city": "B"}')


def test_parse_malformed_document():
    with pytest.raises(PlanParseError):
        parse_plan("{not json")


def test_parse_unknown_activity_type():
    with pytest.raises(SchemaError, match="spaceship"):
        parse_plan('{"people_number": 1, "start_city": "A", "target_city": "B",'
                   ' "itinerary": [{"activities": [{"type": "spaceship"}]}]}')


def test_roundtrip_is_byte_stable():
    once = serialize_plan(parse_plan(MINIMAL))
    twice = serialize_plan(parse_plan(once))
    assert once == twice


def test_unknown_fields_preserved():
    plan = parse_plan('{"people_number": 1, "start_city": "A", "target_city": "B",'
                      ' "itinerary": [], "note": "keep me"}')
    assert plan.extras == {"note": "keep me"}
    assert '"note": "keep me"' in serialize_plan(plan)


# -- concept functions ---------------------------------------------------------

def test_activity_time_90_minutes():
    act = {"start_time": "10:00", "end_time": "11:30"}
    assert concept("activity_time", [act], ctx(None)) == Decimal(90)


def test_activity_time_missing_gives_minus_one():
    assert concept("activity_time", [{"start_time": "10:00"}], ctx(None)) == Decimal(-1)
    assert concept("activity_time", [{}], ctx(None)) == Decimal(-1)


def test_innercity_transport_time_span():
    legs = [
        {"start_time": "09:00", "end_time": "09:10"},
        {"start_time": "09:10", "end_time": "09:24"},
    ]
    assert concept("innercity_transport_time", [legs], ctx(None)) == Decimal(24)
    assert concept("innercity_transport_time", [[]], ctx(None)) == Decimal(0)


def test_intercity_origin_needs_loaded_cities(mini_dataset):
    plan = parse_plan(MINIMAL)
    act = plan.itinerary[0].activities[0]
    assert concept("intercity_transport_origin", [act], ctx(plan, mini_dataset)) == "Alpha"
    assert concept("intercity_transport_destination", [act], ctx(plan, mini_dataset)) == "Beta"
    assert concept("intercity_transport_origin", [{}], ctx(plan, mini_dataset)) == ""


def test_metro_tickets_reads_middle_leg():
    legs = [{"tickets": 2}, {"tickets": 3}, {"tickets": 2}]
    assert concept("metro_tickets", [legs], ctx(None)) == Decimal(3)
    assert concept("metro_tickets", [[{"tickets": 2}]], ctx(None)) == Decimal(0)


def test_taxi_cars_reads_first_leg():
    assert concept("taxi_cars", [[{"cars": 2}]], ctx(None)) == Decimal(2)
    assert concept("taxi_cars", [[]], ctx(None)) == Decimal(0)


def test_innercity_transport_type_shapes():
    triple = [{"mode": "walk"}, {"mode": "metro"}, {"mode": "walk"}]
    assert concept("innercity_transport_type", [triple], ctx(None)) == "metro"
    assert concept("innercity_transport_type", [[{"mode": "taxi"}]], ctx(None)) == "taxi"
    assert concept("innercity_transport_type", [[{}, {}]], ctx(None)) == ""


def test_innercity_transport_cost_mode_filter():
    legs = [{"mode": "walk", "cost": Decimal(0)},
            {"mode": "metro", "cost": Decimal(6)},
            {"mode": "walk", "cost": Decimal(0)}]
    assert concept("innercity_transport_cost", [legs], ctx(None)) == Decimal(6)
    assert concept("innercity_transport_cost", [legs, "metro"], ctx(None)) == Decimal(6)
    assert concept("innercity_transport_cost", [legs, "walk"], ctx(None)) == Decimal(0)


def test_poi_lookup_types_empty_when_absent(mini_dataset):
    plan = parse_plan(MINIMAL)
    context = ctx(plan, mini_dataset)
    meal = {"position": "Hotpot Palace"}
    assert concept("restaurant_type", [meal, "Beta"], context) == "Hotpot"
    assert concept("restaurant_type", [{"position": "Nope"}, "Beta"], context) == ""
    sight = {"position": "Lakeview Tower"}
    assert concept("attraction_type", [sight, "Beta"], context) == "viewpoint"
    assert concept("attraction_type", [{"position": ""}, "Beta"], context) == ""
    stay = {"position": "Harbor Hotel"}
    assert concept("accommodation_type", [stay, "Beta"], context) == "Pool"
    assert concept("accommodation_type", [meal, "Beta"], context) == ""
    assert concept("restaurant_type", [{"position": ["Hotpot Palace"]}, "Beta"], context) == ""


def test_poi_recommend_time(mini_dataset):
    plan = parse_plan(MINIMAL)
    minutes = concept("poi_recommend_time", ["Beta", "Lakeview Tower"],
                      ctx(plan, mini_dataset))
    assert minutes == Decimal(60)
    absent = concept("poi_recommend_time", ["Beta", "Nope"], ctx(plan, mini_dataset))
    assert absent == Decimal(-1)
    for not_a_name in (Decimal(3), [], {"position": "Lakeview Tower"}):
        got = concept("poi_recommend_time", ["Beta", not_a_name], ctx(plan, mini_dataset))
        assert got == Decimal(-1)


def test_poi_distance_matches_haversine(mini_dataset):
    plan = parse_plan(MINIMAL)
    context = ctx(plan, mini_dataset)
    got = concept("poi_distance", ["Beta", "Beta Station", "Old Town Wall"], context)
    beta = mini_dataset["Beta"]
    lat1, lon1 = beta.coordinates("Beta Station")
    lat2, lon2 = beta.coordinates("Old Town Wall")
    want = haversine_reference(float(lat1), float(lon1), float(lat2), float(lon2))
    assert abs(float(got) - want) < 1e-3


def test_poi_distance_identity_and_symmetry(mini_dataset):
    plan = parse_plan(MINIMAL)
    context = ctx(plan, mini_dataset)
    zero = concept("poi_distance", ["Beta", "City Museum", "City Museum"], context)
    assert zero == Decimal("0.000")
    ab = concept("poi_distance", ["Beta", "City Museum", "Lakeview Tower"], context)
    ba = concept("poi_distance", ["Beta", "Lakeview Tower", "City Museum"], context)
    assert ab == ba


def test_unknown_concept_and_arity():
    with pytest.raises(DslEvalError, match="unknown concept"):
        concept("activty_cost", [{}], ctx(None))
    with pytest.raises(DslEvalError, match=r"^activity_cost expects 1 argument\(s\), got 2$"):
        concept("activity_cost", [{}, {}], ctx(None))


# -- generated-plan properties ---------------------------------------------------

def random_plan(dataset, rng: random.Random) -> Plan:
    """A structurally valid but otherwise arbitrary plan over real POIs."""
    db = dataset["Beta"]
    kinds = ("attraction", "breakfast", "lunch", "dinner", "accommodation", "train")
    itinerary = []
    for d in range(rng.randint(1, 3)):
        acts = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(kinds)
            act = {"type": kind}
            if kind == "train":
                act["start"] = "Beta Station"
                act["end"] = "Alpha Station"
                act["TrainID"] = "G102"
            elif kind == "attraction":
                act["position"] = rng.choice(db.attractions)["name"]
            elif kind == "accommodation":
                act["position"] = rng.choice(db.hotels)["name"]
            else:
                act["position"] = rng.choice(db.restaurants)["name"]
            if rng.random() < 0.8:
                start = rng.randint(6 * 60, 20 * 60)
                act["start_time"] = f"{start // 60:02d}:{start % 60:02d}"
                end = start + rng.randint(10, 120)
                end = min(end, 23 * 60 + 59)
                act["end_time"] = f"{end // 60:02d}:{end % 60:02d}"
            if rng.random() < 0.8:
                act["cost"] = Decimal(rng.randint(0, 400))
                act["price"] = Decimal(rng.randint(0, 200))
            if rng.random() < 0.5:
                depart = rng.randint(6 * 60, 20 * 60)
                span = rng.randint(1, 40)
                act["transports"] = [{
                    "mode": rng.choice(("walk", "metro", "taxi")),
                    "start": rng.choice(db.attractions)["name"],
                    "end": act.get("position", "Beta Station"),
                    "start_time": f"{depart // 60:02d}:{depart % 60:02d}",
                    "end_time": f"{(depart + span) // 60:02d}:{(depart + span) % 60:02d}",
                    "cost": Decimal(rng.randint(0, 30)),
                }]
            acts.append(act)
        itinerary.append(DayPlan(day=d + 1, activities=acts))
    return Plan(people_number=rng.randint(1, 5), start_city="Alpha",
                target_city="Beta", itinerary=itinerary)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_activity_counts_agree(seed):
    from .conftest import FIXTURES
    from tripsmith.sandbox import load_dataset

    dataset = load_dataset(FIXTURES / "mini")
    plan = random_plan(dataset, random.Random(seed))
    context = ctx(plan, dataset)
    total = concept("allactivities_count", [plan], context)
    assert total == Decimal(len(concept("allactivities", [plan], context)))
    per_day = sum(
        len(concept("dayactivities", [plan, Decimal(d + 1)], context))
        for d in range(plan.day_count)
    )
    assert Decimal(per_day) == total


def test_serialize_random_plans_roundtrip(mini_dataset):
    rng = random.Random(7)
    for _ in range(20):
        plan = random_plan(mini_dataset, rng)
        text = serialize_plan(plan)
        again = serialize_plan(parse_plan(text))
        assert text == again


def test_packaged_schema_matches_parser_contract():
    import json
    from importlib import resources

    schema = json.loads(
        resources.files("tripsmith.plan").joinpath("plan_schema.json").read_text("utf-8")
    )
    assert set(schema["required"]) == {"people_number", "start_city",
                                       "target_city", "itinerary"}
    enum = schema["definitions"]["activity"]["properties"]["type"]["enum"]
    from tripsmith.plan import ACTIVITY_TYPES

    assert set(enum) == set(ACTIVITY_TYPES)


# One activity record with every key a record accessor reads, the same keys
# all None, and per accessor its value on the full record, on {} and on the
# None record. An exception class means the call raises it: a None number or
# station escapes as a Python error, not a DslEvalError.
FULL_RECORD = {
    "type": "train", "position": "Hotpot Palace", "start": "Alpha Station",
    "end": "Beta Station", "start_time": "06:30", "end_time": "08:10",
    "price": Decimal("120.00"), "tickets": 2, "rooms": 1, "room_type": 2,
    "cost": Decimal("240.00"), "transports": [{"mode": "walk"}],
}
NONE_RECORD = dict.fromkeys(FULL_RECORD)
RECORD_ACCESSORS = {
    "activity_cost": (Decimal("240.00"), Decimal(0), InvalidOperation),
    "activity_price": (Decimal("120.00"), Decimal(0), InvalidOperation),
    "activity_tickets": (Decimal(2), Decimal(0), InvalidOperation),
    "room_count": (Decimal(1), Decimal(0), InvalidOperation),
    "room_type": (Decimal(2), Decimal(0), InvalidOperation),
    "activity_position": ("Hotpot Palace", "", None),
    "activity_type": ("train", "", None),
    "intercity_transport_type": ("train", "", None),
    "activity_start_time": ("06:30", "", ""),
    "activity_end_time": ("08:10", "", ""),
    "activity_transports": ([{"mode": "walk"}], [], TypeError),
    "intercity_transport_origin": ("Alpha", "", TypeError),
    "intercity_transport_destination": ("Beta", "", TypeError),
}
POI_ACCESSORS = {
    "restaurant_type": "Hotpot",
    "attraction_type": "",
    "accommodation_type": "",
}


def _same(value, expected):
    return type(value) is type(expected) and value == expected


@pytest.mark.parametrize("name", sorted(RECORD_ACCESSORS))
def test_record_accessor_values(name, mini_dataset):
    context = ctx(parse_plan(MINIMAL), mini_dataset)
    for record, expected in zip((FULL_RECORD, {}, NONE_RECORD), RECORD_ACCESSORS[name]):
        if isinstance(expected, type):
            with pytest.raises(expected):
                concept(name, [record], context)
        else:
            assert _same(concept(name, [record], context), expected), record
    with pytest.raises(DslEvalError, match="expected an activity record as argument"):
        concept(name, ["Hotpot Palace"], context)


@pytest.mark.parametrize("name", sorted(POI_ACCESSORS))
def test_poi_accessor_values(name, mini_dataset):
    context = ctx(parse_plan(MINIMAL), mini_dataset)
    assert _same(concept(name, [FULL_RECORD, "Beta"], context), POI_ACCESSORS[name])
    assert _same(concept(name, [{}, "Beta"], context), "")
    assert _same(concept(name, [NONE_RECORD, "Beta"], context), "")
    with pytest.raises(DslEvalError, match="expected an activity record as argument"):
        concept(name, [["Hotpot Palace"], "Beta"], context)
    with pytest.raises(DslEvalError, match="city 'Gamma' is not loaded"):
        concept(name, [FULL_RECORD, "Gamma"], context)


LEGS = [
    {"mode": "walk", "cost": Decimal(0), "price": Decimal(0), "distance": Decimal("0.5")},
    {"type": "metro", "cost": Decimal(6), "price": Decimal(3), "distance": Decimal("4.2")},
]


@pytest.mark.parametrize("name, total, metro", [
    ("innercity_transport_cost", Decimal(6), Decimal(6)),
    ("innercity_transport_price", Decimal(3), None),
    ("innercity_transport_distance", Decimal("4.7"), Decimal("4.2")),
])
def test_leg_total_values(name, total, metro):
    context = ctx(None)
    assert _same(concept(name, [LEGS], context), total)
    assert _same(concept(name, [[{}]], context), Decimal(0))
    assert _same(concept(name, [[]], context), Decimal(0))
    with pytest.raises(InvalidOperation):
        concept(name, [[dict.fromkeys(LEGS[0])]], context)
    with pytest.raises(DslEvalError, match="expected a transport-leg list as argument"):
        concept(name, [LEGS[0]], context)
    if metro is None:
        with pytest.raises(DslEvalError, match="expects 1 argument"):
            concept(name, [LEGS, "metro"], context)
    else:
        assert _same(concept(name, [LEGS, "metro"], context), metro)
        assert _same(concept(name, [LEGS, "taxi"], context), Decimal(0))
