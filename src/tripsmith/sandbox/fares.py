"""Inner-city fare and speed model.

The sandbox keeps all tariffs in one config object so fixtures can pin them;
a `fares.cfg` file at the data root (simple `key = value` lines) overrides the
defaults below. `travel_minutes` turns a distance into minutes at a speed;
`CityDatabase.transfer_minutes` memoises a transfer's minutes per (start,
end, mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from ..errors import LoadError

MODES = ("walk", "metro", "taxi")
# every money amount, in the sandbox and in a plan, is kept to this quantum
MONEY_QUANTUM = Decimal("0.01")

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
    return FareConfig(**values)


def travel_minutes(distance: Decimal, speed_kmh: Decimal) -> int:
    """Whole minutes to cover `distance` at `speed_kmh`, rounded up."""
    if distance <= 0:
        return 0
    return int(math.ceil(distance * 60 / speed_kmh))
