"""Independent reference computations the tests compare against.

Everything here is deliberately written from first principles - brute-force
enumeration, direct formula evaluation, plain-Python re-implementations of the
published concept programs - and never calls the code paths it checks.
"""

from __future__ import annotations

import csv
import math
import re
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from fractions import Fraction


# -- geometry ---------------------------------------------------------------

def haversine_reference(lat1, lon1, lat2, lon2) -> float:
    """Textbook haversine, 6371 km sphere."""
    to_rad = math.pi / 180.0
    dlat = (lat2 - lat1) * to_rad
    dlon = (lon2 - lon1) * to_rad
    a = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1 * to_rad) * math.cos(lat2 * to_rad) * math.sin(dlon / 2.0) ** 2)
    return 6371.0 * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def nearby_reference(rows, point, topk, dist):
    """Brute-force nearest-POI query over raw table rows."""
    scored = []
    for row in rows:
        d = haversine_reference(float(point[0]), float(point[1]),
                                float(row["latitude"]), float(row["longitude"]))
        if d <= dist + 1e-9:
            scored.append((d, row["name"]))
    scored.sort()
    return [name for _, name in scored[:topk]]


# -- table loading ------------------------------------------------------------

CSV_DECIMAL_COLUMNS = {"price", "cost", "latitude", "longitude",
                       "recommendmintime", "recommendmaxtime"}
CSV_INT_COLUMNS = {"numbed", "duration"}
CSV_CLOCK_COLUMNS = {"opentime", "endtime", "begintime"}
_CLOCK_TEXT = re.compile(r"^([0-9]{1,2}):([0-9]{2})$")


class CsvReferenceError(Exception):
    """A cell the reference reader refuses; the message is the loader's."""


def _reference_cell(key, text, where):
    if key in CSV_DECIMAL_COLUMNS:
        try:
            number = Decimal(text)
        except InvalidOperation:
            number = None
        # a coordinate must also be a finite float
        if (number is None or not number.is_finite()
                or key in ("latitude", "longitude") and math.isinf(float(number))):
            raise CsvReferenceError(f"{where}: bad number {text!r} in column {key!r}")
        return number
    if key in CSV_INT_COLUMNS:
        try:
            return int(text)
        except ValueError:
            raise CsvReferenceError(f"{where}: bad integer {text!r} in column {key!r}") from None
    if key in CSV_CLOCK_COLUMNS:
        m = _CLOCK_TEXT.match(text)
        if not m or int(m.group(1)) > 23 or int(m.group(2)) > 59:
            raise CsvReferenceError(f"{where}: bad clock time {text!r} in column {key!r}")
    return text


def read_csv_reference(path):
    """A sandbox table read with `csv.DictReader`, converted cell by cell.

    Keys are the stripped lower-case headers; a cell missing from a short row
    reads "", a field beyond the header is dropped, and rows are numbered as
    DictReader yields them, from 2. A leading byte-order mark is not text.
    """
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for line, raw_row in enumerate(csv.DictReader(fh), 2):
            row = {}
            for raw_key, value in raw_row.items():
                if raw_key is not None:
                    key = raw_key.strip().lower()
                    row[key] = _reference_cell(key, (value or "").strip(), f"{path}:{line}")
            rows.append(row)
    return rows


# -- metric formulas ----------------------------------------------------------

ENV_RULES = 25


def metrics_reference(reports):
    """Direct transcription of the pass-rate formulas over raw tuples.

    `reports` is a list of (delivered, env_flags, logical_flags).
    """
    P = len(reports)
    denom_c = sum(len(logical) for _, _, logical in reports)
    dr = Fraction(sum(1 for d, _, _ in reports if d), P)
    epr_micro = Fraction(sum(sum(env) for _, env, _ in reports), P * ENV_RULES)
    epr_macro = Fraction(sum(1 for _, env, _ in reports if all(env)), P)
    lpr_micro = Fraction(sum(sum(logical) for _, _, logical in reports), denom_c)
    lpr_macro = Fraction(
        sum(1 for d, _, logical in reports if d and all(logical)), P
    )
    c_lpr = Fraction(
        sum(sum(logical) for _, env, logical in reports if all(env)), denom_c
    )
    fpr = Fraction(
        sum(1 for _, env, logical in reports if all(env) and all(logical)), P
    )
    return {
        "dr": dr, "epr_micro": epr_micro, "epr_macro": epr_macro,
        "lpr_micro": lpr_micro, "lpr_macro": lpr_macro,
        "c_lpr": c_lpr, "fpr": fpr,
    }


def ranks_reference(values, maximize):
    """Enumerate-and-sort rank assignment with shared mean ranks for ties."""
    order = sorted(
        range(len(values)),
        key=lambda i: (-values[i] if maximize else values[i], 0),
    )
    ranks = [None] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = Fraction(sum(range(i + 1, j + 2)), j - i + 1)
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


# -- direct computations for the published preference programs ----------------

def _div6(a: Decimal, b: Decimal) -> Decimal:
    return (a / b).quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN)


def _acts(plan):
    out = []
    for day in plan.itinerary:
        out.extend(day.activities)
    return out


def _minutes(text):
    h, m = text.split(":")
    return int(h) * 60 + int(m)


def _leg_span_minutes(transports):
    if not transports:
        return Decimal(0)
    return Decimal(_minutes(transports[-1]["end_time"])
                   - _minutes(transports[0]["start_time"]))


def _dec(value, default="0"):
    if value is None:
        return Decimal(default)
    return value if isinstance(value, Decimal) else Decimal(str(value))


def attraction_count_reference(plan):
    count = 0
    for act in _acts(plan):
        if act.get("type", "") == "attraction":
            count += 1
    return Decimal(count)


def average_transport_time_reference(plan):
    time_cost = Decimal(0)
    transport_count = 0
    for act in _acts(plan):
        transports = act.get("transports", [])
        transport_count += 1
        time_cost += _leg_span_minutes(transports)
    if transport_count > 0:
        return _div6(time_cost, Decimal(transport_count))
    return Decimal(-1)


def restaurant_transport_time_reference(plan):
    restaurant_count = 0
    time_cost = Decimal(0)
    for act in _acts(plan):
        if act.get("type", "") in ("breakfast", "lunch", "dinner"):
            restaurant_count += 1
            time_cost += _leg_span_minutes(act.get("transports", []))
    if restaurant_count == 0:
        return Decimal(-1)
    return _div6(time_cost, Decimal(restaurant_count))


def food_cost_ratio_reference(plan):
    food = Decimal(0)
    total = Decimal(0)
    for act in _acts(plan):
        total += _dec(act.get("cost", 0))
        for leg in act.get("transports", []):
            total += _dec(leg.get("cost", 0))
        if act.get("type", "") in ("breakfast", "lunch", "dinner"):
            food += _dec(act.get("cost", 0))
    if total > 0:
        return _div6(food, total)
    return Decimal(-1)


def accommodation_cost_reference(plan):
    total = Decimal(0)
    for act in _acts(plan):
        if act.get("type", "") == "accommodation":
            total += _dec(act.get("cost", 0))
    return total


def average_poi_distance_reference(plan, dataset, target_poi):
    """Mean walking distance from `target_poi` to every visited position."""
    from tripsmith.sandbox import goto   # sandbox is the ground truth here

    db = dataset[plan.target_city]
    pois = []
    for act in _acts(plan):
        if act.get("type", "") in ("breakfast", "lunch", "dinner",
                                   "accommodation", "attraction"):
            pois.append(act.get("position", ""))
    total = Decimal(0)
    count = 0
    for poi in pois:
        [walk] = goto(db, target_poi, poi, 0, "walk")
        total += walk["distance"]
        count += 1
    if count > 0:
        return _div6(total, Decimal(count))
    return Decimal(-1)


def budget_total_reference(plan):
    total = Decimal(0)
    for act in _acts(plan):
        total += _dec(act.get("cost", 0))
        for leg in act.get("transports", []):
            total += _dec(leg.get("cost", 0))
    return total
