"""Symbolic query skeletons.

A skeleton is the machine-readable query: trip header plus a list of typed
constraint specs whose values are drawn from the target city's actual
vocabulary, so every generated requirement is at least nameable in the
sandbox. Sampling is fully determined by (dataset, difficulty, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from ..errors import InputError
from ..sandbox import Dataset, intercity_select

EASY = "easy"
MEDIUM = "medium"

CONSTRAINT_KINDS = (
    "transport_type",
    "cuisine",
    "attraction_type",
    "hotel_feature",
    "specific_poi",
    "rooms",
    "budget",
)


@dataclass
class ConstraintSpec:
    kind: str
    value: object
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": _plain(self.value),
                "extra": {k: _plain(v) for k, v in sorted(self.extra.items())}}

    @classmethod
    def from_dict(cls, raw: dict) -> "ConstraintSpec":
        value = raw["value"]
        if raw["kind"] == "budget":
            try:
                value = Decimal(str(value))
            except InvalidOperation:
                raise ValueError(f"budget {value!r} is not a number") from None
        elif raw["kind"] == "rooms":
            value = int(value)
        extra = {k: int(v) if k == "room_type" else v
                 for k, v in raw.get("extra", {}).items()}
        return cls(kind=raw["kind"], value=value, extra=extra)


def _plain(value):
    if isinstance(value, Decimal):
        return str(value)
    return value


@dataclass
class QuerySkeleton:
    origin: str
    target: str
    days: int
    people: int
    specs: list[ConstraintSpec]

    def describe(self) -> str:
        bits = [
            f"Trip from {self.origin} to {self.target}",
            f"{self.days} day(s), {self.people} traveller(s)",
        ]
        for spec in self.specs:
            bits.append(f"{spec.kind}={spec.value}")
        return "; ".join(bits)

    def as_dict(self) -> dict:
        return {
            "origin": self.origin,
            "target": self.target,
            "days": self.days,
            "people": self.people,
            "specs": [spec.as_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "QuerySkeleton":
        return cls(
            origin=raw["origin"], target=raw["target"],
            days=int(raw["days"]), people=int(raw["people"]),
            specs=[ConstraintSpec.from_dict(s) for s in raw["specs"]],
        )


def _spec_value(kind: str, rng: random.Random, db, dataset, origin, target,
                days: int, people: int) -> ConstraintSpec | None:
    if kind == "transport_type":
        kinds = sorted({r.kind for r in intercity_select(dataset.cities, origin, target)}
                       & {r.kind for r in intercity_select(dataset.cities, target, origin)})
        choices = kinds + ["metro", "taxi"]
        if not choices:
            return None
        return ConstraintSpec(kind, rng.choice(choices))
    if kind == "cuisine":
        vocab = sorted({row["cuisinetype"] for row in db.restaurants})
        return ConstraintSpec(kind, rng.choice(vocab)) if vocab else None
    if kind == "attraction_type":
        vocab = sorted({row["type"] for row in db.attractions})
        return ConstraintSpec(kind, rng.choice(vocab)) if vocab else None
    if kind == "hotel_feature":
        if days < 2:
            return None            # hotels only appear on multi-day trips
        vocab = sorted({row["featurehoteltype"] for row in db.hotels})
        return ConstraintSpec(kind, rng.choice(vocab)) if vocab else None
    if kind == "specific_poi":
        vocab = [row["name"] for row in db.attractions]
        return ConstraintSpec(kind, rng.choice(vocab)) if vocab else None
    if kind == "rooms":
        if days < 2 or not db.hotels:
            return None
        row = rng.choice(db.hotels)
        rooms = math.ceil(people / row["numbed"])
        return ConstraintSpec(kind, rooms, extra={"room_type": row["numbed"]})
    if kind == "budget":
        per_head = rng.choice((900, 1200, 1500, 2000))
        return ConstraintSpec(kind, Decimal(per_head * people * days))
    raise InputError(f"unknown constraint kind {kind!r}")


def sample_skeleton(
    dataset: Dataset,
    difficulty: str,
    seed: int,
    origin: str | None = None,
    target: str | None = None,
) -> QuerySkeleton:
    """Draw one skeleton; identical (dataset, difficulty, seed) => identical result."""
    if difficulty not in (EASY, MEDIUM):
        raise InputError(f"difficulty must be {EASY!r} or {MEDIUM!r}, got {difficulty!r}")
    cities = dataset.city_names
    if len(cities) < 2:
        raise InputError("need at least 2 loaded cities to sample queries")
    rng = random.Random(seed)
    if origin is None or target is None:
        origin, target = rng.sample(cities, 2)
    days = rng.choice((1, 2))
    people = rng.randint(1, 4)
    want = 1 if difficulty == EASY else rng.randint(3, 5)

    db = dataset[target]
    specs: list[ConstraintSpec] = []
    kinds = [k for k in CONSTRAINT_KINDS]
    rng.shuffle(kinds)
    pool = list(kinds)
    while len(specs) < want:
        if not pool:
            raise InputError(
                f"cannot draw {want} constraints for {target}: vocabularies exhausted"
            )
        kind = pool.pop(0)
        spec = _spec_value(kind, rng, db, dataset, origin, target, days, people)
        if spec is not None:
            specs.append(spec)
    return QuerySkeleton(origin=origin, target=target, days=days, people=people, specs=specs)
