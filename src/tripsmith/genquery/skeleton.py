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
from functools import partial

from ..dsl.syntax import quote
from ..errors import InputError
from ..plan.model import INTERCITY_TYPES
from ..sandbox import MODES, Dataset, intercity_select

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
TRANSPORT_TYPES = INTERCITY_TYPES + MODES
# kinds whose text value the planner looks for in candidate rows
TERM_KINDS = ("cuisine", "attraction_type", "hotel_feature", "specific_poi")
# the most travellers, and the most rooms, of one query: a plan multiplies a
# price or fare (at most sandbox.fares.MONEY_LIMIT) by them, and must still
# keep the product to the cent
MAX_PARTY = 1000
# the most days of one query: a year. The exact model grows with the days (over
# 69 million rows for a year on a small slice), so a longer trip is refused
MAX_DAYS = 366


def _text(name: str, value) -> str:
    """A string without NUL, on which the ranker joins a row's terms."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    if "\0" in value:
        raise ValueError(f"{name} must not contain a NUL character, got {value!r}")
    return value


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _at_most(limit: int, name: str, value) -> int:
    """A count from 1 to `limit`."""
    if _count(name, value) > limit:
        raise ValueError(f"{name} must be at most {limit}, got {value!r}")
    return value


_party = partial(_at_most, MAX_PARTY)   # a number of travellers or rooms


def _budget(value) -> Decimal:
    """A finite amount, given as a JSON number or as its text."""
    try:
        amount = Decimal(str(value))
    except InvalidOperation:
        raise ValueError(f"budget {value!r} is not a number") from None
    if not amount.is_finite():
        raise ValueError(f"budget {value!r} is not finite")
    return amount


def _transport(value) -> str:
    if value not in TRANSPORT_TYPES:
        raise ValueError(f"transport_type must be one of {', '.join(TRANSPORT_TYPES)}, "
                         f"got {value!r}")
    return value


# kind -> reader of its value: every value reaches the planner typed
_VALUES = {
    "transport_type": _transport,
    **{kind: partial(_text, f"{kind} value") for kind in TERM_KINDS},
    "rooms": partial(_party, "rooms value"),
    "budget": _budget,
}


@dataclass
class ConstraintSpec:
    kind: str
    value: object
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        value = str(self.value) if isinstance(self.value, Decimal) else self.value
        return {"kind": self.kind, "value": value, "extra": dict(self.extra)}

    @classmethod
    def from_dict(cls, raw: dict) -> "ConstraintSpec":
        """A spec whose value is typed by its kind; ValueError or KeyError if not."""
        kind = raw["kind"]
        if kind not in CONSTRAINT_KINDS:
            raise ValueError(f"spec kind must be one of {', '.join(CONSTRAINT_KINDS)}, "
                             f"got {kind!r}")
        extra = raw.get("extra", {})
        if not isinstance(extra, dict):
            raise ValueError(f"{kind} extra must be an object, got {extra!r}")
        value = _VALUES[kind](raw["value"])
        if kind == "rooms":
            extra = {**extra, "room_type": _count("room_type", extra["room_type"])}
        return cls(kind=kind, value=value, extra=extra)


@dataclass
class QuerySkeleton:
    origin: str
    target: str
    days: int
    people: int
    specs: list[ConstraintSpec]

    def describe(self) -> str:
        return "; ".join([f"Trip from {self.origin} to {self.target}",
                          f"{self.days} day(s), {self.people} traveller(s)",
                          *(f"{spec.kind}={spec.value}" for spec in self.specs)])

    def as_dict(self) -> dict:
        return {**vars(self), "specs": [spec.as_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, raw: dict) -> "QuerySkeleton":
        """A skeleton with every field typed and two cities; ValueError or KeyError if not."""
        if not isinstance(raw, dict):
            raise ValueError(f"skeleton must be an object, got {raw!r}")
        origin, target = _text("origin", raw["origin"]), _text("target", raw["target"])
        if origin == target:
            raise ValueError(f"origin and target are both {origin!r}; a trip joins two cities")
        specs = raw["specs"]
        if not (isinstance(specs, list) and all(isinstance(spec, dict) for spec in specs)):
            raise ValueError(f"specs must be a list of objects, got {specs!r}")
        return cls(
            origin=origin, target=target,
            days=_at_most(MAX_DAYS, "days", raw["days"]),
            people=_party("people", raw["people"]),
            specs=[ConstraintSpec.from_dict(spec) for spec in specs],
        )


# kind -> the (table, column) of the target city whose distinct values it draws;
# like every text value, only those `quote` can spell
_VOCABULARIES = {
    "cuisine": ("restaurants", "cuisinetype"),
    "attraction_type": ("attractions", "type"),
    "hotel_feature": ("hotels", "featurehoteltype"),
}


def _spellable(values):
    """The `values` that `quote` can spell. A column `quote` can spell joined
    into one text holds none it cannot, so it usually takes one check."""
    return values if quote("".join(values)) else list(filter(quote, values))


def _spec_value(kind: str, rng: random.Random, db, dataset, origin, target,
                days: int, people: int) -> ConstraintSpec | None:
    if kind == "transport_type":
        kinds = sorted({r.kind for r in intercity_select(dataset.cities, origin, target)}
                       & {r.kind for r in intercity_select(dataset.cities, target, origin)})
        choices = kinds + ["metro", "taxi"]
        if not choices:
            return None
        return ConstraintSpec(kind, rng.choice(choices))
    if kind == "hotel_feature" and days < 2:
        return None                # hotels only appear on multi-day trips
    if kind in _VOCABULARIES:
        table, column = _VOCABULARIES[kind]
        vocab = sorted(_spellable({row[column] for row in db.table(table)}))
        return ConstraintSpec(kind, rng.choice(vocab)) if vocab else None
    if kind == "specific_poi":
        vocab = _spellable([row["name"] for row in db.attractions])
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
    """Draw one skeleton; identical (dataset, difficulty, seed) => identical result.

    A given `origin` or `target` is kept; a missing end is drawn from the
    other loaded cities.
    """
    if difficulty not in (EASY, MEDIUM):
        raise InputError(f"difficulty must be {EASY!r} or {MEDIUM!r}, got {difficulty!r}")
    cities = dataset.city_names
    if len(cities) < 2:
        raise InputError("need at least 2 loaded cities to sample queries")
    for end, city in (("origin", origin), ("target", target)):
        if city is not None and city not in dataset:
            raise InputError(f"{end} {city!r} is not a loaded city")
    if origin is not None and origin == target:
        raise InputError(f"origin and target are both {origin!r}; a trip joins two cities")
    rng = random.Random(seed)
    if origin is None and target is None:
        origin, target = rng.sample(cities, 2)
    elif origin is None:
        origin = rng.choice([city for city in cities if city != target])
    elif target is None:
        target = rng.choice([city for city in cities if city != origin])
    days = rng.choice((1, 2))
    people = rng.randint(1, 4)
    want = 1 if difficulty == EASY else rng.randint(3, 5)

    db = dataset[target]
    specs: list[ConstraintSpec] = []
    pool = list(CONSTRAINT_KINDS)
    rng.shuffle(pool)
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
