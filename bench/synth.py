"""Seeded synthetic city set in the `tests/fixtures` CSV layout.

Standard library only. The same seed writes byte-identical files, so a run's
input digest identifies its inputs. Every city gets the same table sizes and
the same number of intercity departures per direction, whatever the seed:
the seed moves coordinates, names, hours and prices. That still changes how
hard queries are to certify (the search nodes a set of certified queries
needs spread by a fifth between seeds), so the benchmark runs every workload
on one city set and lets its run seed draw only the queries.

Timetables are dense on purpose (16 trains and 12 flights each way per city
pair). The planner tries only the `max_branching` earliest return
departures, so a dense timetable exposes that limit instead of hiding it.

Usage: python3 bench/synth.py OUT_DIR [--seed N]
"""

from __future__ import annotations

import argparse
import csv
import math
import random
from pathlib import Path

CITIES = (("Arlen", 30.6, 120.2), ("Brisa", 31.2, 121.4), ("Corvo", 32.0, 118.8))
ATTRACTIONS = 300
RESTAURANTS = 300
HOTELS = 40
TRAINS_PER_DIRECTION = 16
FLIGHTS_PER_DIRECTION = 12

ATTRACTION_TYPES = ("park", "museum", "historic site", "viewpoint", "temple",
                    "gallery", "garden", "market", "theatre", "zoo")
CUISINES = ("Dumplings", "Noodles", "Hotpot", "Teahouse", "Seafood", "Barbecue",
            "Vegetarian", "Dim Sum", "Sichuan", "Cantonese", "Bakery", "Street Food")
FOODS = ("pork dumplings", "beef noodles", "spicy pot", "jasmine tea", "grilled fish",
         "lamb skewers", "tofu set", "shrimp har gow", "mapo tofu", "roast goose",
         "egg tart", "scallion pancake")
HOTEL_FEATURES = ("Gym", "Pool", "Spa", "Business", "Family", "Boutique", "Garden", "Lake View")
NAME_WORDS = ("Jade", "Lotus", "River", "Golden", "Pine", "Cloud", "Willow", "Stone",
              "Harbor", "Maple", "Silver", "Bamboo", "Crane", "Orchid", "Cedar", "Lantern")

FARES_CFG = """\
# inner-city tariffs of the synthetic city set
walk_speed_kmh = 5
metro_speed_kmh = 30
metro_fare_per_band = 3
metro_band_km = 6
metro_access_minutes = 2
taxi_speed_kmh = 40
taxi_base_fare = 10
taxi_per_km = 2.5
"""

HEADERS = {
    "attractions": ("Name", "Type", "Latitude", "Longitude", "Opentime", "Endtime",
                    "Price", "Recommendmintime", "Recommendmaxtime"),
    "restaurants": ("Name", "Latitude", "Longitude", "Price", "Cuisinetype",
                    "Opentime", "Endtime", "Recommendedfood"),
    "hotels": ("Name", "Featurehoteltype", "Latitude", "Longitude", "Price", "Numbed"),
    "intercity": ("ID", "Kind", "From", "To", "BeginTime", "EndTime", "Duration", "Cost"),
    "poi": ("Name", "Latitude", "Longitude"),
}


def _hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _quota(rng: random.Random, values, count: int) -> list:
    """`count` values that use every entry of `values` equally often, shuffled."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _points(rng: random.Random, lat: float, lon: float, radius_km: float,
            count: int) -> list[tuple[str, str]]:
    """`count` points spread evenly over a disc (one per equal-area ring), shuffled."""
    out = []
    for i in range(count):
        r = radius_km * math.sqrt((i + rng.random()) / count)
        theta = rng.random() * 2 * math.pi
        dlat = r * math.cos(theta) / 111.0
        dlon = r * math.sin(theta) / (111.0 * math.cos(math.radians(lat)))
        out.append((f"{lat + dlat:.4f}", f"{lon + dlon:.4f}"))
    rng.shuffle(out)
    return out


def _hours(rng: random.Random, open_lo: int, open_hi: int, late_share: float,
           count: int) -> list[tuple[str, str]]:
    """Opening hours in half-hour steps; `late_share` of places close after 21:00."""
    late = round(count * late_share)
    opens = _quota(rng, range(open_lo, open_hi + 1, 30), count)
    closes = (_quota(rng, range(21 * 60, 23 * 60 + 31, 30), late)
              + _quota(rng, range(17 * 60, 20 * 60 + 31, 30), count - late))
    rng.shuffle(closes)
    return [(_hhmm(o), _hhmm(c)) for o, c in zip(opens, closes)]


def _names(rng: random.Random, count: int, suffixes: tuple[str, ...], taken: set) -> list[str]:
    out = []
    while len(out) < count:
        name = f"{rng.choice(NAME_WORDS)} {rng.choice(NAME_WORDS)} {rng.choice(suffixes)}"
        if name in taken:
            name = f"{name} {len(out) + 1}"
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _city_tables(rng: random.Random, city: str, lat: float, lon: float) -> dict[str, list]:
    # Every distribution is drawn by quota, so cities of different seeds have
    # the same mix of types, hours, prices and distances, in other places.
    taken: set[str] = set()
    n = ATTRACTIONS
    attractions = [
        (name, kind, *point, opens, closes, f"{price}.00", low, str(float(low) + 1.5))
        for name, kind, point, (opens, closes), price, low in zip(
            _names(rng, n, ("Park", "Hall", "Tower", "Court", "Gate"), taken),
            _quota(rng, ATTRACTION_TYPES, n), _points(rng, lat, lon, 6.0, n),
            _hours(rng, 6 * 60, 10 * 60, 0.3, n), _quota(rng, range(0, 151, 5), n),
            _quota(rng, ("0.5", "1", "1.5", "2"), n))
    ]
    n = RESTAURANTS
    restaurants = [
        (name, *point, f"{price}.00", CUISINES[pick], opens, closes, FOODS[pick])
        for name, pick, point, (opens, closes), price in zip(
            _names(rng, n, ("Kitchen", "House", "Bistro", "Canteen"), taken),
            _quota(rng, range(len(CUISINES)), n), _points(rng, lat, lon, 6.0, n),
            _hours(rng, 6 * 60, 11 * 60, 0.4, n), _quota(rng, range(20, 301, 5), n))
    ]
    n = HOTELS
    hotels = [
        (name, feature, *point, f"{price}.00", beds)
        for name, feature, point, price, beds in zip(
            _names(rng, n, ("Hotel", "Inn", "Lodge"), taken),
            _quota(rng, HOTEL_FEATURES, n), _points(rng, lat, lon, 5.0, n),
            _quota(rng, range(150, 1201, 10), n), _quota(rng, (1, 2, 2, 3), n))
    ]
    km_lat = 1 / 111.0
    km_lon = 1 / (111.0 * math.cos(math.radians(lat)))
    poi = [(f"{city} Station", f"{lat + 2 * km_lat:.4f}", f"{lon:.4f}"),      # 2 km north
           (f"{city} Airport", f"{lat:.4f}", f"{lon + 20 * km_lon:.4f}")]     # 20 km east
    return {"attractions": attractions, "restaurants": restaurants, "hotels": hotels,
            "poi": poi, "intercity": []}


def _timetable(rng: random.Random, frm: str, to: str, km: float, ids: list[int]) -> list:
    """Trains and flights from one city to another, in departure order."""
    rows = []
    train_minutes = int(40 + km / 3.0)
    fares = _quota(rng, range(80, 251, 10), TRAINS_PER_DIRECTION)
    for i in range(TRAINS_PER_DIRECTION):
        begin = 6 * 60 + i * 60 + rng.randrange(0, 30)
        duration = train_minutes + rng.randrange(0, 20)
        ids[0] += 1
        rows.append((f"G{ids[0]:04d}", "train", f"{frm} Station", f"{to} Station",
                     _hhmm(begin), _hhmm(begin + duration), duration, f"{fares[i]}.00"))
    fares = _quota(rng, range(300, 901, 50), FLIGHTS_PER_DIRECTION)
    for i in range(FLIGHTS_PER_DIRECTION):
        begin = 6 * 60 + 30 + i * 75 + rng.randrange(0, 30)
        duration = 60 + rng.randrange(0, 40)
        ids[0] += 1
        rows.append((f"F{ids[0]:04d}", "airplane", f"{frm} Airport", f"{to} Airport",
                     _hhmm(begin), _hhmm(begin + duration), duration, f"{fares[i]}.00"))
    rows.sort(key=lambda row: (row[4], row[0]))
    return rows


def _km(a: tuple, b: tuple) -> float:
    dlat = (a[1] - b[1]) * 111.0
    dlon = (a[2] - b[2]) * 111.0 * math.cos(math.radians((a[1] + b[1]) / 2))
    return math.hypot(dlat, dlon)


def generate(out_dir, seed: int) -> Path:
    """Write the city set for `seed` under `out_dir`; return the data root."""
    root = Path(out_dir)
    rng = random.Random(f"tripsmith-synth-{seed}")
    tables = {city: _city_tables(rng, city, lat, lon) for city, lat, lon in CITIES}
    ids = [1000]
    for frm in CITIES:
        for to in CITIES:
            if frm != to:
                tables[frm[0]]["intercity"] += _timetable(rng, frm[0], to[0], _km(frm, to), ids)
    for city, per_table in tables.items():
        city_dir = root / city
        city_dir.mkdir(parents=True, exist_ok=True)
        for table, rows in per_table.items():
            with (city_dir / f"{table}.csv").open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(HEADERS[table])
                writer.writerows(rows)
    (root / "fares.cfg").write_text(FARES_CFG, encoding="utf-8")
    return root


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(generate(args.out_dir, args.seed))


if __name__ == "__main__":
    main()
