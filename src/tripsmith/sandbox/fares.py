"""Inner-city fare and speed model.

The sandbox keeps all tariffs in one config object so fixtures can pin them;
a `fares.cfg` file at the data root (simple `key = value` lines) overrides the
defaults below. `travel_minutes` turns a distance into minutes at a speed;
`CityDatabase.transfer_minutes` memoises a transfer's minutes per (start,
end, mode). `metro_fare` and `taxi_fare` price a ride of a distance.

Every amount is kept to the cent, and a Decimal keeps 28 digits, so the
loader bounds what enters: a tariff set whose fare for the longest trip on
Earth exceeds `MONEY_LIMIT` is refused, as is a money cell beyond it (see
database.py). A plan multiplies such an amount by at most `MAX_PARTY`
travellers or rooms (genquery/skeleton.py), far inside 28 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from ..errors import LoadError
from ..geo import EARTH_RADIUS_KM

MODES = ("walk", "metro", "taxi")
# every money amount, in the sandbox and in a plan, is kept to this quantum
MONEY_QUANTUM = Decimal("0.01")
# the largest amount, either way, of a money cell or of one ride's fare
MONEY_LIMIT = Decimal(10) ** 9
# the longest great-circle distance, half the Earth's circumference, rounded up
LONGEST_TRIP_KM = Decimal(math.ceil(math.pi * EARTH_RADIUS_KM))

# rule -> test; is_finite() comes first because comparing a Decimal NaN raises
_RULES = {
    "positive and finite": lambda value: value.is_finite() and value > 0,
    "non-negative and finite": lambda value: value.is_finite() and value >= 0,
    "non-negative": lambda value: value >= 0,
}
# key -> (parser, rule its value must meet)
_KEYS = {
    "walk_speed_kmh": (Decimal, "positive and finite"),
    "metro_speed_kmh": (Decimal, "positive and finite"),
    "metro_fare_per_band": (Decimal, "non-negative and finite"),
    "metro_band_km": (Decimal, "positive and finite"),
    "metro_access_minutes": (int, "non-negative"),
    "taxi_speed_kmh": (Decimal, "positive and finite"),
    "taxi_base_fare": (Decimal, "non-negative and finite"),
    "taxi_per_km": (Decimal, "non-negative and finite"),
}


@dataclass(frozen=True)
class FareConfig:
    walk_speed_kmh: Decimal = Decimal("5")
    metro_speed_kmh: Decimal = Decimal("30")
    metro_fare_per_band: Decimal = Decimal("3")
    metro_band_km: Decimal = Decimal("6")
    metro_access_minutes: int = 2
    taxi_speed_kmh: Decimal = Decimal("40")
    taxi_base_fare: Decimal = Decimal("10")
    taxi_per_km: Decimal = Decimal("2.5")


def load_fare_config(path: Path | str) -> FareConfig:
    """Read a key=value fare file; unknown keys, bad numbers and out-of-range values raise."""
    path = Path(path)
    if not path.exists():
        raise LoadError(f"fare config not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LoadError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise LoadError(f"{path}:{lineno}: unknown fare key {key!r}")
        parse, rule = _KEYS[key]
        try:
            values[key] = parse(val)
        except (InvalidOperation, ValueError):
            raise LoadError(f"{path}:{lineno}: bad number {val!r} for {key!r}") from None
        if not _RULES[rule](values[key]):
            raise LoadError(f"{path}:{lineno}: {key} must be {rule}, got {val!r}")
    fares = FareConfig(**values)
    for mode, fare in (("metro", metro_fare), ("taxi", taxi_fare)):
        try:
            within = fare(LONGEST_TRIP_KM, fares) <= MONEY_LIMIT
        except ArithmeticError:     # more digits than a Decimal keeps to the cent
            within = False
        if not within:
            raise LoadError(f"{path}: the {mode} fare of a {LONGEST_TRIP_KM} km ride "
                            f"must be at most {MONEY_LIMIT}")
    return fares


def metro_fare(distance: Decimal, fares: FareConfig) -> Decimal:
    """Flat per started distance band, per ticket."""
    if distance <= 0:
        return Decimal("0")
    bands = int(math.ceil(distance / fares.metro_band_km))
    return (fares.metro_fare_per_band * bands).quantize(MONEY_QUANTUM)


def taxi_fare(distance: Decimal, fares: FareConfig) -> Decimal:
    """Base plus per-km, per car."""
    if distance <= 0:
        return Decimal("0")
    return (fares.taxi_base_fare + fares.taxi_per_km * distance).quantize(MONEY_QUANTUM)


def travel_minutes(distance: Decimal, speed_kmh: Decimal) -> int:
    """Whole minutes to cover `distance` at `speed_kmh`, rounded up."""
    if distance <= 0:
        return 0
    return int(math.ceil(distance * 60 / speed_kmh))
