"""Inner-city transport simulation.

`goto` produces exactly one deterministic option per mode:

* walk  - one leg at walking speed, free.
* metro - three legs (walk in, ride, walk out); the access walks take a fixed
          number of minutes each, the ride covers the whole distance; fare is
          flat per started distance band, per ticket.
* taxi  - one leg; fare is base + per-km, per car of TAXI_SEATS seats.

All times are whole minutes (durations rounded up), distances and prices are
Decimals, so repeated calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from ..errors import NotFoundError
from ..timeutil import to_hhmm, to_minutes
from .database import CityDatabase

MODES = ("walk", "metro", "taxi")
TAXI_SEATS = 4


@dataclass(frozen=True)
class TransportLeg:
    mode: str
    start: str
    end: str
    start_time: str
    end_time: str
    distance: Decimal     # km
    price: Decimal        # per ticket (metro/walk) or per car (taxi)


@dataclass(frozen=True)
class TransportOption:
    mode: str
    legs: tuple[TransportLeg, ...]
    distance: Decimal     # km, total
    time_minutes: int
    price: Decimal        # per unit, total over legs


def cars_for(people: int) -> int:
    """Cars a party needs: a taxi seats TAXI_SEATS travellers."""
    return math.ceil(people / TAXI_SEATS)


def travel_minutes(distance: Decimal, speed_kmh: Decimal) -> int:
    """Whole minutes to cover `distance` at `speed_kmh`, rounded up."""
    if distance <= 0:
        return 0
    return int(math.ceil(distance * 60 / speed_kmh))


def metro_fare(distance: Decimal, fares) -> Decimal:
    if distance <= 0:
        return Decimal("0")
    bands = int(math.ceil(distance / fares.metro_band_km))
    return (fares.metro_fare_per_band * bands).quantize(Decimal("0.01"))


def taxi_fare(distance: Decimal, fares) -> Decimal:
    if distance <= 0:
        return Decimal("0")
    return (fares.taxi_base_fare + fares.taxi_per_km * distance).quantize(Decimal("0.01"))


def goto(db: CityDatabase, start: str, end: str, start_time: str, mode: str) -> TransportOption:
    """One transport option from `start` to `end` leaving at `start_time`."""
    if mode not in MODES:
        raise NotFoundError(f"unknown transport mode {mode!r}; expected one of {MODES}")
    dist = db.distance(start, end)
    t0 = to_minutes(start_time)
    fares = db.fares

    if mode == "walk":
        minutes = travel_minutes(dist, fares.walk_speed_kmh)
        leg = TransportLeg("walk", start, end, to_hhmm(t0), to_hhmm(t0 + minutes),
                           dist, Decimal("0"))
        return TransportOption("walk", (leg,), dist, minutes, Decimal("0"))

    if mode == "taxi":
        minutes = travel_minutes(dist, fares.taxi_speed_kmh)
        price = taxi_fare(dist, fares)
        leg = TransportLeg("taxi", start, end, to_hhmm(t0), to_hhmm(t0 + minutes),
                           dist, price)
        return TransportOption("taxi", (leg,), dist, minutes, price)

    access = fares.metro_access_minutes
    ride = travel_minutes(dist, fares.metro_speed_kmh)
    fare = metro_fare(dist, fares)
    zero = Decimal("0.000")
    legs = (
        TransportLeg("walk", start, start, to_hhmm(t0), to_hhmm(t0 + access),
                     zero, Decimal("0")),
        TransportLeg("metro", start, end, to_hhmm(t0 + access), to_hhmm(t0 + access + ride),
                     dist, fare),
        TransportLeg("walk", end, end, to_hhmm(t0 + access + ride),
                     to_hhmm(t0 + access + ride + access), zero, Decimal("0")),
    )
    return TransportOption("metro", legs, dist, ride + 2 * access, fare)
