"""A seeded corpus of plans for differential checks of the 25-rule env check.

The corpus holds the conftest base plan, its 25 single-rule corruptions,
random plans, the first plans `enumerate_complete_plans` reaches on the micro
and mini fixtures, and seeded field mutations of all of these, each taken
through `serialize_plan` -> `plan_from_obj`. `corpus_digest` hashes every
`validate_env(plan, dataset).as_dict()`, so a refactor of the rules that keeps
every report the same keeps the digest.

    PYTHONPATH=src python -m tests.env_corpus

prints the digest, the report count and, per rule, how many reports fail it;
a deliberate rule change re-pins `DIGEST` from that output.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from unittest import mock

from tripsmith.errors import SchemaError
from tripsmith.evaluation import RULE_IDS, validate_env
from tripsmith.plan.model import ACTIVITY_TYPES, FIELDS, plan_from_obj, serialize_plan
from tripsmith.sandbox import load_dataset
from tripsmith.search import dfs
from tripsmith.search.context import QueryContext

from .conftest import FIXTURES, build_base_plan, corrupt_plan
from .test_plan_model import random_plan

DIGEST = "702c6b0d1e45faf7fed5fdc7168eb4a7defc85104d1b557f39b94a59f3996728"

RANDOM_PLANS = 40
ENUMERATED_PER_QUERY = 20
MUTANTS_PER_PLAN = 13
SEED = 20


def _pools(dataset) -> dict:
    """Values a mutation may give each text field, plus the money and count draws."""
    names = sorted({name for city in dataset.city_names
                    for name in dataset[city].poi_coordinates})
    route_ids = sorted(dataset.routes_by_id)
    clocks = [f"{h:02d}:{m:02d}" for h in range(5, 24) for m in (0, 10, 25, 30, 45)]
    clocks += ["24:00", "7:5", "ab", "", "23:59", "00:00"]
    return {
        "type": list(ACTIVITY_TYPES),
        "mode": ["walk", "metro", "taxi", "bus"],
        "position": names + ["Nowhere", ""],
        "start": names + ["Alpha Station", "Nowhere", ""],
        "end": names + ["Alpha Station", "Nowhere", ""],
        "TrainID": route_ids + ["X9", ""],
        "FlightID": route_ids + ["X9", ""],
        "start_time": clocks,
        "end_time": clocks,
    }


def _records(obj: dict) -> list[dict]:
    """Every activity and transport leg of a serialized plan."""
    out = []
    for day in obj["itinerary"]:
        for act in day["activities"]:
            out.append(act)
            out.extend(act.get("transports", []))
    return out


def _mutate(obj: dict, rng: random.Random, pools: dict) -> None:
    """One seeded edit of a serialized plan, in place: delete a key, give a field
    another value of its type, shuffle or drop activities, re-count tickets,
    rooms or cars with the cost following, or change the party."""
    days = obj["itinerary"]
    records = _records(obj)
    kind = rng.randrange(6)
    if kind == 0 and records:                       # delete a key
        record = rng.choice(records)
        if record:
            del record[rng.choice(sorted(record))]
    elif kind == 1 and records:                     # another value of the same type
        record = rng.choice(records)
        key = rng.choice(sorted(FIELDS))
        if key in record and rng.random() < 0.8 or key not in record and rng.random() < 0.3:
            if FIELDS[key] is str:
                record[key] = rng.choice(pools[key])
            elif FIELDS[key] is int:
                record[key] = rng.randint(0, 6)
            elif key in record and rng.random() < 0.5:
                record[key] = float(record[key]) + rng.choice((-10, -1, 0.5, 1, 10))
            else:
                record[key] = rng.randint(0, 500) / rng.choice((1, 2, 4))
    elif kind == 2 and days:                        # shuffle a day's activities
        rng.shuffle(rng.choice(days)["activities"])
    elif kind == 3 and days:                        # drop an activity
        acts = rng.choice(days)["activities"]
        if acts:
            acts.pop(rng.randrange(len(acts)))
    elif kind == 4 and records:                     # a new count, the cost following it
        record = rng.choice(records)
        key = rng.choice(("tickets", "rooms", "cars"))
        record[key] = rng.randint(0, 6)
        record["cost"] = round(record.get("price", 0) * record[key], 2)
    else:
        obj["people_number"] = rng.randint(1, 6)


def corpus() -> list[tuple[object, object]]:
    """(plan, dataset) pairs, in a fixed order."""
    micro = load_dataset(FIXTURES / "micro")
    mini = load_dataset(FIXTURES / "mini")
    seeds = [(build_base_plan(mini), mini)]
    seeds += [(corrupt_plan(mini, rule), mini) for rule in RULE_IDS]
    seeds += [(random_plan(mini, random.Random(i)), mini) for i in range(RANDOM_PLANS)]
    with mock.patch.object(dfs, "ENUMERATION_LIMIT", ENUMERATED_PER_QUERY):
        for dataset in (micro, mini):
            for days in (1, 2):
                for people in (1, 3, 5):
                    ctx = QueryContext("Alpha", "Beta", days, people)
                    seeds += [(plan, dataset)
                              for plan in dfs.enumerate_complete_plans(dataset, ctx)]

    out = list(seeds)
    rng = random.Random(SEED)
    pools = {id(micro): _pools(micro), id(mini): _pools(mini)}
    for plan, dataset in seeds:
        base = serialize_plan(plan)
        for _ in range(MUTANTS_PER_PLAN):
            obj = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                _mutate(obj, rng, pools[id(dataset)])
            try:
                out.append((plan_from_obj(obj), dataset))
            except SchemaError:
                pass
    return out


def reports() -> list[dict]:
    """Every corpus plan's env report."""
    return [validate_env(plan, dataset).as_dict() for plan, dataset in corpus()]


def corpus_digest(rows: list[dict]) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def main() -> None:
    rows = reports()
    print(f"digest {corpus_digest(rows)}")
    print(f"reports {len(rows)}")
    print("failed  rule")
    for rule in RULE_IDS:
        print(f"{sum(not row['rules'][rule] for row in rows):6d}  {rule}")


if __name__ == "__main__":
    main()
