import json
import random
from decimal import Decimal, InvalidOperation
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsmith.dsl import check_syntax
from tripsmith.errors import SchemaError
from tripsmith.plan import (
    ACTIVITY_TYPES,
    CONCEPT_REGISTRY,
    FUNCTIONS,
    ConceptContext,
    parse_plan,
    plan_from_obj,
    serialize_plan,
)
from tripsmith.plan.model import FIELDS, DayPlan, Plan
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
    with pytest.raises(SchemaError, match="^line 1: invalid JSON: "):
        parse_plan("{not json")


@pytest.mark.parametrize("document", ['{"people_number": ' + "1" * 5000 + "}", "[" * 100_000],
                         ids=["int-past-the-digit-limit", "nested-past-the-recursion-limit"])
def test_parse_refuses_json_that_the_decoder_raises_on(document):
    with pytest.raises(SchemaError, match="^invalid JSON: "):
        parse_plan(document)


def test_parse_unknown_activity_type():
    with pytest.raises(SchemaError, match="spaceship"):
        parse_plan('{"people_number": 1, "start_city": "A", "target_city": "B",'
                   ' "itinerary": [{"activities": [{"type": "spaceship"}]}]}')


@pytest.mark.parametrize("people, itinerary, message", [
    (0, "[]", "$: field 'people_number' must be at least 1, got 0"),
    (1, "{}", "$.itinerary: must be a list of day entries"),
    (1, "[5]", "$.itinerary[0]: day entry must be an object"),
    (1, '[{"activities": {}}]', "$.itinerary[0].activities: must be a list"),
    (1, '[{"activities": [{"type": "attraction", "transports": {}}]}]',
     "$.itinerary[0].activities[0].transports: must be a list"),
], ids=["nobody", "itinerary-object", "day-number", "activities-object", "transports-object"])
def test_parse_refuses_a_misshapen_document(people, itinerary, message):
    with pytest.raises(SchemaError) as raised:
        parse_plan(f'{{"people_number": {people}, "start_city": "A", "target_city": "B",'
                   f' "itinerary": {itinerary}}}')
    assert str(raised.value) == message


def record_text(plan) -> str:
    return json.dumps(serialize_plan(plan), sort_keys=True)


def test_roundtrip_is_byte_stable():
    once = record_text(parse_plan(MINIMAL))
    twice = record_text(parse_plan(once))
    assert once == twice
    assert serialize_plan(parse_plan(MINIMAL))["itinerary"][0]["activities"][0]["price"] == 120.0


def test_unknown_fields_preserved():
    plan = parse_plan('{"people_number": 1, "start_city": "A", "target_city": "B",'
                      ' "itinerary": [], "note": "keep me"}')
    assert plan.extras == {"note": "keep me"}
    assert serialize_plan(plan)["note"] == "keep me"


# -- concept functions ---------------------------------------------------------

def test_activity_time_90_minutes():
    act = {"start_time": "10:00", "end_time": "11:30"}
    assert FUNCTIONS["activity_time"][0](ctx(None), act) == Decimal(90)


def test_activity_time_missing_gives_minus_one():
    assert FUNCTIONS["activity_time"][0](ctx(None), {"start_time": "10:00"}) == Decimal(-1)
    assert FUNCTIONS["activity_time"][0](ctx(None), {}) == Decimal(-1)


def test_innercity_transport_time_span():
    legs = [
        {"start_time": "09:00", "end_time": "09:10"},
        {"start_time": "09:10", "end_time": "09:24"},
    ]
    assert FUNCTIONS["innercity_transport_time"][0](ctx(None), legs) == Decimal(24)
    assert FUNCTIONS["innercity_transport_time"][0](ctx(None), []) == Decimal(0)


def test_intercity_origin_needs_loaded_cities(mini_dataset):
    plan = parse_plan(MINIMAL)
    act = plan.itinerary[0].activities[0]
    assert FUNCTIONS["intercity_transport_origin"][0](ctx(plan, mini_dataset), act) == "Alpha"
    assert FUNCTIONS["intercity_transport_destination"][0](ctx(plan, mini_dataset), act) == "Beta"
    assert FUNCTIONS["intercity_transport_origin"][0](ctx(plan, mini_dataset), {}) == ""


def test_metro_tickets_reads_middle_leg():
    legs = [{"tickets": 2}, {"tickets": 3}, {"tickets": 2}]
    assert FUNCTIONS["metro_tickets"][0](ctx(None), legs) == Decimal(3)
    assert FUNCTIONS["metro_tickets"][0](ctx(None), [{"tickets": 2}]) == Decimal(0)


def test_taxi_cars_reads_first_leg():
    assert FUNCTIONS["taxi_cars"][0](ctx(None), [{"cars": 2}]) == Decimal(2)
    assert FUNCTIONS["taxi_cars"][0](ctx(None), []) == Decimal(0)


def test_innercity_transport_type_shapes():
    triple = [{"mode": "walk"}, {"mode": "metro"}, {"mode": "walk"}]
    assert FUNCTIONS["innercity_transport_type"][0](ctx(None), triple) == "metro"
    assert FUNCTIONS["innercity_transport_type"][0](ctx(None), [{"mode": "taxi"}]) == "taxi"
    assert FUNCTIONS["innercity_transport_type"][0](ctx(None), [{}, {}]) == ""


def test_innercity_transport_cost_mode_filter():
    legs = [{"mode": "walk", "cost": Decimal(0)},
            {"mode": "metro", "cost": Decimal(6)},
            {"mode": "walk", "cost": Decimal(0)}]
    assert FUNCTIONS["innercity_transport_cost"][0](ctx(None), legs) == Decimal(6)
    assert FUNCTIONS["innercity_transport_cost"][0](ctx(None), legs, "metro") == Decimal(6)
    assert FUNCTIONS["innercity_transport_cost"][0](ctx(None), legs, "walk") == Decimal(0)


def test_poi_lookup_types_empty_when_absent(mini_dataset):
    plan = parse_plan(MINIMAL)
    context = ctx(plan, mini_dataset)
    meal = {"position": "Hotpot Palace"}
    assert FUNCTIONS["restaurant_type"][0](context, meal, "Beta") == "Hotpot"
    assert FUNCTIONS["restaurant_type"][0](context, {"position": "Nope"}, "Beta") == ""
    sight = {"position": "Lakeview Tower"}
    assert FUNCTIONS["attraction_type"][0](context, sight, "Beta") == "viewpoint"
    assert FUNCTIONS["attraction_type"][0](context, {"position": ""}, "Beta") == ""
    stay = {"position": "Harbor Hotel"}
    assert FUNCTIONS["accommodation_type"][0](context, stay, "Beta") == "Pool"
    assert FUNCTIONS["accommodation_type"][0](context, meal, "Beta") == ""
    assert FUNCTIONS["restaurant_type"][0](context, {"position": ["Hotpot Palace"]}, "Beta") == ""


def test_poi_recommend_time(mini_dataset):
    plan = parse_plan(MINIMAL)
    minutes = FUNCTIONS["poi_recommend_time"][0](ctx(plan, mini_dataset), "Beta", "Lakeview Tower")
    assert minutes == Decimal(60)
    absent = FUNCTIONS["poi_recommend_time"][0](ctx(plan, mini_dataset), "Beta", "Nope")
    assert absent == Decimal(-1)
    for not_a_name in (Decimal(3), [], {"position": "Lakeview Tower"}):
        got = FUNCTIONS["poi_recommend_time"][0](ctx(plan, mini_dataset), "Beta", not_a_name)
        assert got == Decimal(-1)


def test_poi_distance_matches_haversine(mini_dataset):
    plan = parse_plan(MINIMAL)
    context = ctx(plan, mini_dataset)
    got = FUNCTIONS["poi_distance"][0](context, "Beta", "Beta Station", "Old Town Wall")
    beta = mini_dataset["Beta"]
    lat1, lon1 = beta.coordinates("Beta Station")
    lat2, lon2 = beta.coordinates("Old Town Wall")
    want = haversine_reference(float(lat1), float(lon1), float(lat2), float(lon2))
    assert abs(float(got) - want) < 1e-3


def test_poi_distance_identity_and_symmetry(mini_dataset):
    plan = parse_plan(MINIMAL)
    context = ctx(plan, mini_dataset)
    zero = FUNCTIONS["poi_distance"][0](context, "Beta", "City Museum", "City Museum")
    assert zero == Decimal("0.000")
    ab = FUNCTIONS["poi_distance"][0](context, "Beta", "City Museum", "Lakeview Tower")
    ba = FUNCTIONS["poi_distance"][0](context, "Beta", "Lakeview Tower", "City Museum")
    assert ab == ba


def test_unknown_concept_and_arity():
    [unknown] = check_syntax("return activty_cost(plan)")
    assert unknown.message == "unknown concept function 'activty_cost'"
    [arity] = check_syntax("return activity_cost(plan, plan)")
    assert arity.message == "activity_cost expects 1 argument(s), got 2"


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
    total = FUNCTIONS["allactivities_count"][0](context, plan)
    assert total == Decimal(len(FUNCTIONS["allactivities"][0](context, plan)))
    per_day = sum(
        len(FUNCTIONS["dayactivities"][0](context, plan, Decimal(d + 1)))
        for d in range(plan.day_count)
    )
    assert Decimal(per_day) == total


def test_serialize_random_plans_roundtrip(mini_dataset):
    rng = random.Random(7)
    for _ in range(20):
        plan = random_plan(mini_dataset, rng)
        text = record_text(plan)
        assert record_text(parse_plan(text)) == text


# -- the packaged schema states the parser's contract ----------------------------

SCHEMA = json.loads(
    resources.files("tripsmith.plan").joinpath("plan_schema.json").read_text("utf-8")
)
JSON_TYPES = {str: "string", int: "integer"}    # any other FIELDS kind is a quantum


def test_packaged_schema_types_every_field_as_the_parser_does():
    definitions = SCHEMA["definitions"]
    types = {key: spec["type"] for key, spec in definitions["fields"]["properties"].items()}
    assert types == {key: JSON_TYPES.get(kind, "number") for key, kind in FIELDS.items()}
    for record in ("activity", "leg"):
        assert definitions[record]["allOf"] == [{"$ref": "#/definitions/fields"}]
    activity = definitions["activity"]["properties"]
    assert set(activity) == {"type", "transports"}
    assert activity["type"]["enum"] == list(ACTIVITY_TYPES)
    assert activity["transports"]["items"] == {"$ref": "#/definitions/leg"}


def _full_document() -> dict:
    """A plan with every property the schema names, at every level."""
    fields = {key: {str: "x", int: 1}.get(kind, 1) for key, kind in FIELDS.items()}
    activity = {**fields, "type": "train", "transports": [dict(fields)]}
    return {"people_number": 1, "start_city": "A", "target_city": "B",
            "itinerary": [{"day": 1, "activities": [activity]}]}


def _level(document: dict, level: str) -> dict:
    day = document["itinerary"][0]
    return {"plan": document, "day": day, "activity": day["activities"][0],
            "leg": day["activities"][0]["transports"][0]}[level]


SCHEMA_LEVELS = {   # level -> (its properties, its required list)
    "plan": (SCHEMA["properties"], SCHEMA["required"]),
    "day": (SCHEMA["properties"]["itinerary"]["items"]["properties"],
            SCHEMA["properties"]["itinerary"]["items"]["required"]),
    "activity": ({**SCHEMA["definitions"]["fields"]["properties"],
                  **SCHEMA["definitions"]["activity"]["properties"]},
                 SCHEMA["definitions"]["activity"]["required"]),
    "leg": (SCHEMA["definitions"]["fields"]["properties"],
            SCHEMA["definitions"]["leg"].get("required", [])),
}


@pytest.mark.parametrize("level", sorted(SCHEMA_LEVELS))
def test_packaged_schema_requires_what_the_parser_requires(level):
    properties, required = SCHEMA_LEVELS[level]
    assert set(_level(_full_document(), level)) == set(properties)
    for key in properties:
        document = _full_document()
        del _level(document, level)[key]
        if key in required:
            with pytest.raises(SchemaError, match=f"missing mandatory field {key!r}"):
                plan_from_obj(document)
        else:
            plan_from_obj(document)


@pytest.mark.parametrize("key", sorted(FIELDS))
@pytest.mark.parametrize("level", ["activity", "leg"])
def test_null_or_mistyped_field_is_a_schema_error(key, level):
    wrong = {str: 7}.get(FIELDS[key], "7")
    for value in (None, wrong, True, [], {}):
        document = _full_document()
        _level(document, level)[key] = value
        with pytest.raises(SchemaError, match=f"field {key!r} must be a "):
            plan_from_obj(document)


@pytest.mark.parametrize("key, value, detail", [
    ("price", float("nan"), "must be finite"),
    ("distance", float("inf"), "must be finite"),
    ("cost", 1e30, "is out of range"),
    ("tickets", 1.5, "must be an integer"),
])
def test_number_outside_its_kind_is_a_schema_error(key, value, detail):
    document = _full_document()
    _level(document, "activity")[key] = value
    with pytest.raises(SchemaError, match=f"field {key!r} {detail}"):
        plan_from_obj(document)


# any value `json.loads` can give, NaN and infinities included
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)
_DELETE = object()


def _places(obj, out: dict) -> dict:
    """Every value nested in a decoded JSON document, as (container, key), grouped
    by the key's text, so that a rare key is as likely to be edited as a common one."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        out.setdefault(str(key), []).append((obj, key))
        _places(value, out)
    return out


@given(seed=st.integers(0, 10_000), other=_JSON,
       edits=st.lists(st.tuples(st.integers(0, 10**6), _SCALARS | _JSON | st.just(_DELETE)),
                      max_size=3))
@settings(max_examples=200, deadline=None)
def test_a_bad_document_is_only_ever_a_schema_error(mini_dataset, seed, other, edits):
    # `eval` refuses a plan that raises SchemaError and catches nothing else; the
    # documents are a plan record as `eval` reads it, with up to three values anywhere
    # in it replaced or deleted, and any JSON value at all
    document = json.loads(record_text(random_plan(mini_dataset, random.Random(seed))))
    for where, value in edits:
        places = _places(document, {})
        if places:
            group = places[sorted(places)[where % len(places)]]
            container, key = group[where // len(places) % len(group)]
            if value is _DELETE:
                del container[key]
            else:
                container[key] = value
    for raw in (document, other):
        try:
            plan_from_obj(raw)
        except SchemaError:
            pass


# One activity record with every key a record accessor reads, the same keys
# all None, and per accessor its value on the full record, on {} and on the
# None record. An exception class means the call raises it: a None number
# escapes as a Python error, not a DslEvalError; a None station is a station
# the sandbox does not place, so it reads "". `plan_from_obj`
# refuses the None record, so no parsed plan reaches those cells.
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
    "activity_start_time": ("06:30", "", None),
    "activity_end_time": ("08:10", "", None),
    "activity_transports": ([{"mode": "walk"}], [], TypeError),
    "intercity_transport_origin": ("Alpha", "", ""),
    "intercity_transport_destination": ("Beta", "", ""),
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
                FUNCTIONS[name][0](context, record)
        else:
            assert _same(FUNCTIONS[name][0](context, record), expected), record
    with pytest.raises(DslEvalError, match="expected an activity record as argument"):
        FUNCTIONS[name][0](context, "Hotpot Palace")


@pytest.mark.parametrize("name", sorted(POI_ACCESSORS))
def test_poi_accessor_values(name, mini_dataset):
    context = ctx(parse_plan(MINIMAL), mini_dataset)
    assert _same(FUNCTIONS[name][0](context, FULL_RECORD, "Beta"), POI_ACCESSORS[name])
    assert _same(FUNCTIONS[name][0](context, {}, "Beta"), "")
    assert _same(FUNCTIONS[name][0](context, NONE_RECORD, "Beta"), "")
    with pytest.raises(DslEvalError, match="expected an activity record as argument"):
        FUNCTIONS[name][0](context, ["Hotpot Palace"], "Beta")
    with pytest.raises(DslEvalError, match="city 'Gamma' is not loaded"):
        FUNCTIONS[name][0](context, FULL_RECORD, "Gamma")


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
    assert _same(FUNCTIONS[name][0](context, LEGS), total)
    assert _same(FUNCTIONS[name][0](context, [{}]), Decimal(0))
    assert _same(FUNCTIONS[name][0](context, []), Decimal(0))
    with pytest.raises(InvalidOperation):
        FUNCTIONS[name][0](context, [dict.fromkeys(LEGS[0])])
    with pytest.raises(DslEvalError, match="expected a transport-leg list as argument"):
        FUNCTIONS[name][0](context, LEGS[0])
    if metro is None:
        assert FUNCTIONS[name][1:] == (1, 1)    # the checker refuses a mode argument
    else:
        assert _same(FUNCTIONS[name][0](context, LEGS, "metro"), metro)
        assert _same(FUNCTIONS[name][0](context, LEGS, "taxi"), Decimal(0))
