"""The per-city indexes and memos answer exactly as the scans they replace.

Each reference below is the straightforward recompute-every-time logic: a
linear scan over a table, a fresh haversine per call, a filtered and sorted
route list, a regex parse per clock string.
"""

import csv
import itertools
import re
import sys
import threading
from decimal import Decimal

import pytest

from tripsmith.errors import InputError, NotFoundError
from tripsmith.geo import distance_km
from tripsmith.sandbox import (
    MODES,
    goto,
    intercity_select,
    is_open,
    load_city_data,
    nearby,
)
from tripsmith.sandbox.database import POI_TABLES
from tripsmith.timeutil import is_hhmm, to_hhmm, to_minutes

from .conftest import FIXTURES, micro_with_routes

FIXTURE_SETS = ("micro", "mini")
TOPKS = (1, 2, 3, 10)
RADII = (0.5, 1, 2, "5", 10.0)
CLOCKS = ("00:00", "06:30", "8:05", " 12:00 ", "17:59", "21:40", "23:00")


def _fresh(fixture):
    return {city: load_city_data(FIXTURES / fixture, city) for city in ("Alpha", "Beta")}


@pytest.fixture(params=FIXTURE_SETS)
def cities(request):
    return _fresh(request.param)


# -- references ----------------------------------------------------------

def nearby_scan(db, table, point, topk, dist):
    dist = Decimal(str(dist))
    lat, lon = Decimal(str(point[0])), Decimal(str(point[1]))
    scored = []
    for row in db.table(table):
        d = distance_km(float(lat), float(lon), float(row["latitude"]), float(row["longitude"]))
        if d <= dist:
            scored.append((d, row["name"], row))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [row for _, _, row in scored[:topk]]


def distance_recompute(db, start, end):
    lat1, lon1 = db.poi_coordinates[start]
    lat2, lon2 = db.poi_coordinates[end]
    return distance_km(float(lat1), float(lon1), float(lat2), float(lon2))


def intercity_scan(source, from_city, to_city, kind, earliest_leave):
    earliest = clock_reference(earliest_leave)
    found = [
        route for route in source.intercity_routes
        if route.from_city == from_city and route.to_city == to_city
        and (kind is None or route.kind == kind)
        and route.begin >= earliest
    ]
    found.sort(key=lambda r: (r.begin, r.id))
    return found


def record_scan(db, table, name):
    for row in db.table(table):
        if row["name"] == name:
            return row
    return None


_CLOCK = re.compile(r"^(\d{1,2}):(\d{2})$")


def clock_reference(text):
    """Minutes since midnight, or None for anything that is not a clock time."""
    m = _CLOCK.match(text.strip()) if isinstance(text, str) else None
    if not m or int(m.group(1)) > 23 or int(m.group(2)) > 59:
        return None
    return int(m.group(1)) * 60 + int(m.group(2))


def probe_points(db):
    """Every known position plus a grid around the city's bounding box."""
    points = list(db.poi_coordinates.values())
    lats = [float(lat) for lat, _ in points]
    lons = [float(lon) for _, lon in points]
    steps = 7
    for i, j in itertools.product(range(steps), repeat=2):
        lat = min(lats) - 0.01 + (max(lats) - min(lats) + 0.02) * i / (steps - 1)
        lon = min(lons) - 0.01 + (max(lons) - min(lons) + 0.02) * j / (steps - 1)
        points.append((round(lat, 6), round(lon, 6)))
    return points


# -- nearby ----------------------------------------------------------------

def test_nearby_matches_scan_everywhere(cities):
    for db in cities.values():
        for point, table, topk, dist in itertools.product(
                probe_points(db), POI_TABLES, TOPKS, RADII):
            want = nearby_scan(db, table, point, topk, dist)
            for _ in range(2):      # cold, then answered from the memo
                got = nearby(db, table, point, topk, dist)
                assert [id(row) for row in got] == [id(row) for row in want]


def test_nearby_result_mutation_does_not_leak(cities):
    db = cities["Beta"]
    point = db.coordinates(db.attractions[0]["name"])
    first = nearby(db, "attractions", point, 10, 10)
    assert first
    snapshot = list(first)
    first.clear()
    first.append({"name": "intruder"})
    assert nearby(db, "attractions", point, 10, 10) == snapshot


def test_nearby_arguments_still_checked_after_memo(cities):
    db = cities["Beta"]
    point = db.coordinates(sorted(db.poi_coordinates)[0])
    nearby(db, "attractions", point, 3, 2)
    with pytest.raises(NotFoundError):
        nearby(db, "attractions", point, 0, 2)
    with pytest.raises(NotFoundError):
        nearby(db, "attractions", point, 3, 0)
    with pytest.raises(NotFoundError):
        nearby(db, "museums", point, 3, 2)


# -- distances and goto ------------------------------------------------------

def test_distance_and_goto_match_recompute(cities):
    for db in cities.values():
        names = sorted(db.poi_coordinates)
        for start, end in itertools.product(names, repeat=2):
            want = distance_recompute(db, start, end)
            assert db.distance(start, end) == want
            assert db.distance(start, end) == want      # from the memo
            for mode, clock in itertools.product(MODES, ("06:00", "12:34", "20:00")):
                warm = goto(db, start, end, clock, mode)
                db._distance_memo.clear()
                cold = goto(db, start, end, clock, mode)
                assert warm == cold
                assert warm.legs[-1 if mode != "metro" else 1].distance == want


def test_distance_unknown_position_is_not_cached(cities):
    db = cities["Beta"]
    known = sorted(db.poi_coordinates)[0]
    for _ in range(2):
        with pytest.raises(NotFoundError):
            db.distance(known, "Nowhere")
        with pytest.raises(NotFoundError):
            goto(db, "Nowhere", known, "09:00", "walk")
    assert ("Nowhere", known) not in db._distance_memo


# -- routes and records --------------------------------------------------------

def test_intercity_select_matches_scan(cities):
    names = sorted(cities)
    for from_city, to_city in itertools.product(names, repeat=2):
        for kind in (None, "train", "airplane"):
            for clock in CLOCKS + ("23:59",):
                want = intercity_scan(cities[from_city], from_city, to_city, kind, clock)
                got = intercity_select(cities, from_city, to_city, kind, clock)
                assert got == want
                assert intercity_select(cities[from_city], from_city, to_city,
                                        kind, clock) == want


def test_routes_by_id_is_first_match(cities):
    for db in cities.values():
        for route in db.intercity_routes:
            first = next(r for r in db.intercity_routes if r.id == route.id)
            assert db.routes_by_id[route.id] is first


def test_routes_by_id_keeps_the_first_of_a_repeated_id(tmp_path):
    root = micro_with_routes(tmp_path,
                             "G11,train,Alpha Station,Beta Station,06:40,08:20,100,120.00",
                             "G11,train,Alpha Station,Beta Station,07:40,09:20,100,118.00")
    db = load_city_data(root, "Alpha")
    assert [r.cost for r in db.intercity_routes] == [Decimal("120.00"), Decimal("118.00")]
    assert db.routes_by_id["G11"] is db.intercity_routes[0]


@pytest.mark.parametrize("fixture", FIXTURE_SETS)
def test_route_clocks_equal_a_parse_of_the_csv_text(fixture):
    for city, db in _fresh(fixture).items():
        with (FIXTURES / fixture / city / "intercity.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = [(row["ID"], clock_reference(row["BeginTime"]), clock_reference(row["EndTime"]))
                for row in rows]
        assert rows and all(None not in clocks for clocks in want)
        assert [(r.id, r.begin, r.end) for r in db.intercity_routes] == want


def test_record_matches_scan(cities):
    for db in cities.values():
        for table in POI_TABLES:
            names = [row["name"] for row in db.table(table)] + ["Ghost", ""]
            for name in names:
                want = record_scan(db, table, name)
                if want is None:
                    with pytest.raises(NotFoundError, match="no "):
                        db.record(table, name)
                else:
                    assert db.record(table, name) is want
        with pytest.raises(NotFoundError, match="unknown table"):
            db.record("museums", "anything")


def test_is_open_matches_scan(cities):
    db = cities["Beta"]
    for table in ("attractions", "restaurants"):
        for row in db.table(table):
            for minutes in range(0, 24 * 60, 7):
                clock = to_hhmm(minutes)
                want = (clock_reference(row["opentime"]) <= minutes
                        <= clock_reference(row["endtime"]))
                assert is_open(db, table, row["name"], clock) is want


# -- clock parsing --------------------------------------------------------------

def _clock_spellings():
    for minutes in range(24 * 60):
        hh, mm = divmod(minutes, 60)
        yield f"{hh:02d}:{mm:02d}"
        yield f"{hh}:{mm:02d}"
        yield f" {hh:02d}:{mm:02d}\n"


MALFORMED = ("", " ", "24:00", "23:60", "7", "07:5", "007:00", "07:00:00", "ab:cd",
             "-1:00", "07-00", "99:99")


def test_to_minutes_matches_reference():
    for text in itertools.chain(_clock_spellings(), _clock_spellings()):
        assert to_minutes(text) == clock_reference(text)
        assert is_hhmm(text)


@pytest.mark.parametrize("text", MALFORMED)
def test_to_minutes_malformed_still_raises(text):
    for _ in range(2):      # a failed parse is never cached
        with pytest.raises(InputError):
            to_minutes(text)
        assert not is_hhmm(text)


@pytest.mark.parametrize("value", [None, 480, 8.0, b"08:00", ("08", "00"), ["08:00"]])
def test_to_minutes_non_str_raises(value):
    with pytest.raises(InputError):
        to_minutes(value)
    assert not is_hhmm(value)


# -- shared across threads ---------------------------------------------------------

def _workload(db, cities):
    """A fixed list of sandbox questions and their answers, as comparable values."""
    out = []
    names = sorted(db.poi_coordinates)
    for point in probe_points(db):
        for table in POI_TABLES:
            out.append([row["name"] for row in nearby(db, table, point, 3, 2)])
    for start, end in itertools.product(names, repeat=2):
        out.append(goto(db, start, end, "09:00", "metro"))
    for clock in CLOCKS:
        out.append([r.id for r in intercity_select(cities, "Beta", "Alpha", None, clock)])
        out.append(to_minutes(clock))
    for table in POI_TABLES:
        out.extend(db.record(table, row["name"])["name"] for row in db.table(table))
    return out


def test_threads_sharing_one_database_agree_with_serial():
    serial_cities = _fresh("mini")
    want = _workload(serial_cities["Beta"], serial_cities)

    shared = _fresh("mini")
    results = [None] * 4
    errors = []

    def worker(idx):
        try:
            results[idx] = [_workload(shared["Beta"], shared) for _ in range(3)]
        except Exception as exc:   # surfaced by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for runs in results:
        assert runs == [want] * 3
