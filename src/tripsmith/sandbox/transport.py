"""Inner-city transport simulation.

`goto` returns the legs of one transfer in a given mode, as the plan stores
them:

* walk  - one leg at walking speed, free.
* metro - three legs (walk in, ride, walk out); the access walks take a fixed
          number of minutes each, the ride covers the whole distance; fare is
          flat per started distance band, per ticket.
* taxi  - one leg; fare is base + per-km, per car of TAXI_SEATS seats.

All times are whole minutes (durations rounded up), distances and prices are
Decimals, so repeated calls are bit-identical. The minutes of each (start,
end, mode) come from `CityDatabase.transfer_minutes`, memoised per database;
an unknown mode raises NotFoundError there.
"""

from __future__ import annotations

import math
from decimal import Decimal

from ..timeutil import to_hhmm
from .database import CityDatabase
from .fares import metro_fare, taxi_fare

TAXI_SEATS = 4


def cars_for(people: int) -> int:
    """Cars a party needs: a taxi seats TAXI_SEATS travellers."""
    return math.ceil(people / TAXI_SEATS)


def transfer_mode(legs: list) -> str:
    """Mode of a transfer's legs: the ride of a walk-metro-walk triple, else
    the single leg's mode; "" for any other number of legs."""
    if len(legs) == 3:
        return legs[1].get("mode", "")
    if len(legs) == 1:
        return legs[0].get("mode", "")
    return ""


def _leg(mode: str, start: str, end: str, t0: int, t1: int,
         distance: Decimal, price: Decimal) -> dict:
    return {"mode": mode, "start": start, "end": end, "start_time": to_hhmm(t0),
            "end_time": to_hhmm(t1), "distance": distance, "price": price}


def goto(db: CityDatabase, start: str, end: str, t0: int, mode: str) -> list[dict]:
    """The legs of one `mode` transfer from `start` to `end` leaving at minute `t0`.

    Each leg is a fresh plan-leg dict (mode, start, end, start_time,
    end_time as "HH:MM", distance in km, price per ticket or per car); the
    caller may add its party fields to it. Raises InputError when `t0` is not
    a minute of the day or the transfer would arrive after 23:59.
    """
    minutes = db.transfer_minutes(start, end, mode)
    dist = db.distance(start, end)
    fares = db.fares

    if mode == "walk":
        return [_leg("walk", start, end, t0, t0 + minutes, dist, Decimal("0"))]
    if mode == "taxi":
        return [_leg("taxi", start, end, t0, t0 + minutes, dist, taxi_fare(dist, fares))]

    access = fares.metro_access_minutes
    ride_end = t0 + minutes - access
    zero = Decimal("0.000")
    return [
        _leg("walk", start, start, t0, t0 + access, zero, Decimal("0")),
        _leg("metro", start, end, t0 + access, ride_end, dist, metro_fare(dist, fares)),
        _leg("walk", end, end, ride_end, ride_end + access, zero, Decimal("0")),
    ]
