"""The per-city indexes and memos answer exactly as the scans they replace.

Each reference below is the straightforward recompute-every-time logic: a
linear scan over a table, a fresh haversine per call, a filtered and sorted
route list, a regex parse per clock string.
"""

import csv
import gc
import itertools
import math
import random
import re
import sys
import threading
import weakref
from decimal import Decimal

import pytest

from tripsmith.errors import InputError, IntegrityError, LoadError, NotFoundError
from tripsmith.geo import distance_km
from tripsmith.sandbox import (
    MODES,
    Dataset,
    goto,
    intercity_select,
    load_city_data,
    nearby,
)
from tripsmith.sandbox.database import POI_TABLES, _read_csv
from tripsmith.timeutil import clock_span, to_minutes

from .conftest import FIXTURES, micro_with_routes
from .oracles import CsvReferenceError, read_csv_reference

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

def scan_scored(db, table, point):
    """(quantised distance, name, row) of every row of a table, nearest first."""
    lat, lon = Decimal(str(point[0])), Decimal(str(point[1]))
    scored = []
    for row in db.table(table):
        d = distance_km(float(lat), float(lon), float(row["latitude"]), float(row["longitude"]))
        scored.append((d, row["name"], row))
    scored.sort(key=lambda item: (item[0], item[1]))
    return scored


def distance_recompute(db, start, end):
    lat1, lon1 = db.poi_coordinates[start]
    lat2, lon2 = db.poi_coordinates[end]
    return distance_km(float(lat1), float(lon1), float(lat2), float(lon2))


def minutes_recompute(db, start, end, mode):
    """Door-to-door minutes: ceil(distance * 60 / speed), plus both metro access walks."""
    dist = distance_recompute(db, start, end)
    fares = db.fares
    speed = {"walk": fares.walk_speed_kmh, "metro": fares.metro_speed_kmh,
             "taxi": fares.taxi_speed_kmh}[mode]
    ride = int(math.ceil(dist * 60 / speed)) if dist > 0 else 0
    return ride + (2 * fares.metro_access_minutes if mode == "metro" else 0)


def intercity_scan(source, from_city, to_city, kind):
    found = [
        route for route in source.intercity_routes
        if route.from_city == from_city and route.to_city == to_city
        and (kind is None or route.kind == kind)
    ]
    found.sort(key=lambda r: (r.begin, r.id))
    return found


def record_scan(db, table, name):
    for row in db.table(table):
        if row["name"] == name:
            return row
    return None


_CLOCK = re.compile(r"^([0-9]{1,2}):([0-9]{2})$")


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

@pytest.mark.parametrize("fixture", ["micro", "mini", "synth"])
def test_nearby_matches_scan_everywhere(request, fixture):
    """Every probe point of micro and mini and every 20th of the synth set,
    with the fixed radii and radii on a row's exact quantised distance, on a
    fresh load, so that every first call is cold."""
    root = request.getfixturevalue("synth_root") if fixture == "synth" else FIXTURES / fixture
    stride = 20 if fixture == "synth" else 1
    for city in sorted(path.name for path in root.iterdir() if path.is_dir()):
        db = load_city_data(root, city)
        for point, table in itertools.product(probe_points(db)[::stride], POI_TABLES):
            scored = scan_scored(db, table, point)
            on_rows = {scored[i][0] for i in (0, 2, 9, 39) if i < len(scored)}
            for topk, radius in itertools.product(TOPKS, [*RADII, *sorted(on_rows)]):
                dist = Decimal(str(radius))
                if dist <= 0:
                    continue
                want = [row for d, _, row in scored if d <= dist][:topk]
                for _ in range(2):      # cold, then answered from the memo
                    got = nearby(db, table, point, topk, radius)
                    assert [id(row) for row in got] == [id(row) for row in want]


@pytest.mark.parametrize("fixture, draws", [("micro", 600), ("mini", 600), ("synth", 1200)])
def test_nearby_window_matches_scan_on_random_queries(request, fixture, draws):
    """Random points on and off the POIs, top-k 1-400 and radii 0.5-100 km, each
    on a fresh memo: the latitude window answers as the whole-table scan."""
    root = request.getfixturevalue("synth_root") if fixture == "synth" else FIXTURES / fixture
    rng = random.Random(31)
    cities = sorted(path.name for path in root.iterdir() if path.is_dir())
    dbs = [load_city_data(root, city) for city in cities]
    for _ in range(draws):
        db = rng.choice(dbs)
        table = rng.choice(POI_TABLES)
        lat, lon = rng.choice(list(db.poi_coordinates.values()))
        point = (lat, lon) if rng.random() < 0.5 else (
            round(float(lat) + rng.uniform(-0.2, 0.2), 6),
            round(float(lon) + rng.uniform(-0.2, 0.2), 6))
        topk = rng.randint(1, 400)
        radius = round(rng.uniform(0.5, 100), rng.choice((0, 1, 3)))
        want = [row for d, _, row in scan_scored(db, table, point) if d <= Decimal(str(radius))]
        db._nearby_memo.clear()
        got = nearby(db, table, point, topk, radius)
        assert [id(row) for row in got] == [id(row) for row in want[:topk]]


def test_nearby_off_the_sphere_scans_the_whole_table():
    """A latitude past the pole bounds nothing, so every row is measured."""
    db = _fresh("mini")["Beta"]
    for point in ((200.0, 121.4), (-271.2, 121.4)):
        for table in POI_TABLES:
            want = [row for d, _, row in scan_scored(db, table, point) if d <= 20000]
            assert nearby(db, table, point, 400, 20000) == want


def test_a_database_takes_its_latitude_index_with_it():
    db = _fresh("mini")["Beta"]
    nearby(db, "attractions", (31.2, 121.4), 3, 2)
    assert db.latitude_index("attractions") is db.latitude_index("attractions")
    gone = weakref.ref(db)
    del db
    gc.collect()
    assert gone() is None


@pytest.mark.parametrize("point, dist", [
    ((31.2, 121.4), "nan"),
    ((31.2, 121.4), "-NaN"),
    ((31.2, 121.4), "abc"),
    ((31.2, 121.4), None),
    (("x", 121.4), 2),
    ((31.2, "nan"), 2),
    (("inf", 121.4), 2),
    ((float("nan"), 121.4), 2),
    ((31.2, "1e400"), 2),
])
def test_nearby_refuses_what_is_not_a_radius_or_a_point(point, dist):
    db = _fresh("micro")["Beta"]
    with pytest.raises(NotFoundError):
        nearby(db, "attractions", point, 3, dist)
    assert not db._nearby_memo


@pytest.mark.parametrize("topk", [2.5, "3", None, True])
def test_nearby_refuses_a_topk_that_is_not_an_int(topk):
    db = _fresh("micro")["Beta"]
    with pytest.raises(NotFoundError, match="topk must be an int"):
        nearby(db, "attractions", (31.2, 121.4), topk, 2)
    assert not db._nearby_memo


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
            for mode, t0 in itertools.product(MODES, (6 * 60, 12 * 60 + 34, 20 * 60)):
                warm = goto(db, start, end, t0, mode)
                db._distance_memo.clear()
                cold = goto(db, start, end, t0, mode)
                assert warm == cold
                assert warm[-1 if mode != "metro" else 1]["distance"] == want


def test_distance_unknown_position_is_not_cached(cities):
    db = cities["Beta"]
    known = sorted(db.poi_coordinates)[0]
    for _ in range(2):
        with pytest.raises(NotFoundError):
            db.distance(known, "Nowhere")
        with pytest.raises(NotFoundError):
            goto(db, "Nowhere", known, 9 * 60, "walk")
    assert ("Nowhere", known) not in db._distance_memo


def test_transfer_memo_matches_recompute(cities):
    for db in cities.values():
        names = sorted(db.poi_coordinates)
        assert db._transfer_memo == {}
        for start, end, mode in itertools.product(names, names, MODES):
            want = minutes_recompute(db, start, end, mode)
            assert db.transfer_minutes(start, end, mode) == want
            assert db.transfer_minutes(start, end, mode) == want     # from the memo
            legs = goto(db, start, end, 6 * 60, mode)
            assert to_minutes(legs[-1]["end_time"]) - 6 * 60 == want
        # one entry per (start, end, mode) asked, the bound of positions squared x modes
        assert len(db._transfer_memo) == len(names) ** 2 * len(MODES)


def test_unknown_mode_raises_and_stores_nothing(cities):
    db = cities["Beta"]
    start, end = sorted(db.poi_coordinates)[:2]
    for _ in range(2):
        with pytest.raises(NotFoundError, match="unknown transport mode 'bike'"):
            db.transfer_minutes(start, end, "bike")
        with pytest.raises(NotFoundError):
            goto(db, start, end, 9 * 60, "bike")
        with pytest.raises(NotFoundError):
            db.transfer_minutes(start, "Nowhere", "walk")
    assert db._transfer_memo == {}


# -- routes and records --------------------------------------------------------

def test_intercity_select_matches_scan(cities):
    names = sorted(cities)
    for from_city, to_city in itertools.product(names, repeat=2):
        for kind in (None, "train", "airplane"):
            want = intercity_scan(cities[from_city], from_city, to_city, kind)
            assert intercity_select(cities, from_city, to_city, kind) == want


def test_routes_by_id_is_first_match(cities):
    dataset = Dataset(cities)
    for db in cities.values():
        for route in db.intercity_routes:
            first = next(r for r in db.intercity_routes if r.id == route.id)
            assert dataset.routes_by_id[route.id] is first is route
            assert dataset.route(route.id) is route
    assert dataset.route("") is dataset.route("X9") is None


def test_routes_by_id_refuses_a_repeated_id(tmp_path):
    root = micro_with_routes(tmp_path,
                             "G11,train,Alpha Station,Beta Station,06:40,08:20,100,120.00",
                             "G11,train,Alpha Station,Beta Station,07:40,09:20,100,118.00")
    cities = {city: load_city_data(root, city) for city in ("Alpha", "Beta")}
    assert [r.cost for r in cities["Alpha"].intercity_routes] == [
        Decimal("120.00"), Decimal("118.00")]
    with pytest.raises(IntegrityError, match="^Alpha/intercity: route id 'G11' "):
        Dataset(cities)


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
    """`hours` gives every timed row's opening and closing minute, as a parse of its text."""
    for db in cities.values():
        for table in ("attractions", "restaurants"):
            assert db.table(table)
            for row in db.table(table):
                want = (clock_reference(row["opentime"]), clock_reference(row["endtime"]))
                assert db.hours(table, row["name"]) == want


def test_hours_read_the_load_time_minutes_of_a_tables_own_rows(cities):
    db = cities["Beta"]
    for table in ("attractions", "restaurants"):
        for position, row in enumerate(db.table(table)):
            assert db.hours(table, row["name"]) == (db.open_minutes[table][position],
                                                    db.close_minutes[table][position])


# -- clock parsing --------------------------------------------------------------

def _clock_spellings():
    for minutes in range(24 * 60):
        hh, mm = divmod(minutes, 60)
        yield f"{hh:02d}:{mm:02d}"
        yield f"{hh}:{mm:02d}"
        yield f" {hh:02d}:{mm:02d}\n"


MALFORMED = ("", " ", "24:00", "23:60", "7", "07:5", "007:00", "07:00:00", "ab:cd",
             "-1:00", "07-00", "99:99", "٠٧:٣٠", "７:05")


def test_to_minutes_matches_reference():
    for text in itertools.chain(_clock_spellings(), _clock_spellings()):
        assert to_minutes(text) == clock_reference(text)
        assert clock_span(text, text) == (clock_reference(text),) * 2


@pytest.mark.parametrize("text", MALFORMED)
def test_to_minutes_malformed_still_raises(text):
    for _ in range(2):      # a failed parse is never cached
        with pytest.raises(InputError):
            to_minutes(text)
        assert clock_span(text, "00:00") is None


@pytest.mark.parametrize("value", [None, 480, 8.0, b"08:00", ("08", "00"), ["08:00"]])
def test_to_minutes_non_str_raises(value):
    with pytest.raises(InputError):
        to_minutes(value)
    assert clock_span(value, "00:00") is None


# -- shared across threads ---------------------------------------------------------

def _workload(db, cities):
    """A fixed list of sandbox questions and their answers, as comparable values."""
    out = []
    names = sorted(db.poi_coordinates)
    for point in probe_points(db):
        for table in POI_TABLES:
            out.append([row["name"] for row in nearby(db, table, point, 3, 2)])
    for start, end in itertools.product(names, repeat=2):
        out.append(goto(db, start, end, 9 * 60, "metro"))
    out.append([r.id for r in intercity_select(cities, "Beta", "Alpha")])
    out.extend(to_minutes(clock) for clock in CLOCKS)
    for table in POI_TABLES:
        out.extend(db.record(table, row["name"])["name"] for row in db.table(table))
    return out


def _agree_across_threads(workload):
    """Four threads, each asking `workload` of one shared fresh mini set three
    times, get the answers of one serial run on another fresh set."""
    serial_cities = _fresh("mini")
    want = workload(serial_cities["Beta"], serial_cities)

    shared = _fresh("mini")
    results = [None] * 4
    errors = []

    def worker(idx):
        try:
            results[idx] = [workload(shared["Beta"], shared) for _ in range(3)]
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


def test_threads_sharing_one_database_agree_with_serial():
    _agree_across_threads(_workload)


def _transfer_workload(db, cities):
    names = sorted(db.poi_coordinates)
    return [(db.transfer_minutes(start, end, mode), goto(db, start, end, 9 * 60, mode))
            for start, end, mode in itertools.product(names, names, MODES)]


def test_threads_sharing_one_transfer_memo_agree_with_serial():
    _agree_across_threads(_transfer_workload)


# -- loading -------------------------------------------------------------------

def _typed(rows):
    """Every cell with its key, type and exact spelling, in column order."""
    return [[(key, type(value), repr(value)) for key, value in row.items()] for row in rows]


def _write(tmp_path, text: str):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("fixture", ["micro", "mini", "synth"])
def test_load_matches_a_dictreader_reference(request, fixture):
    root = request.getfixturevalue("synth_root") if fixture == "synth" else FIXTURES / fixture
    paths = sorted(root.glob("*/*.csv"))
    assert len(paths) >= 10
    for path in paths:
        assert _typed(_read_csv(path, (), path.stem)) == _typed(read_csv_reference(path)), path
    for city in sorted({path.parent.name for path in paths}):
        db = load_city_data(root, city)
        for table in POI_TABLES:
            rows = db.table(table)
            assert _typed(rows) == _typed(read_csv_reference(root / city / f"{table}.csv"))
            lats, entries = db.latitude_index(table)
            assert [(lat, lon, position) for lat, (position, _, _, lon) in zip(lats, entries)] \
                == sorted((float(row["latitude"]), float(row["longitude"]), position)
                          for position, row in enumerate(rows))
            if table == "hotels":
                assert table not in db.open_minutes and table not in db.close_minutes
                continue
            assert db.open_minutes[table] == [clock_reference(row["opentime"]) for row in rows]
            assert db.close_minutes[table] == [clock_reference(row["endtime"]) for row in rows]


@pytest.mark.parametrize("text", [
    "Name,Price,Price\nA,1,2\n",                    # a repeated header reads its last field
    "Name,Price,price,NAME\nA,1,2,B\n",             # headers equal once canonical
    "Name,Type,Price\nA,x,1\nB,y,2\nC,z,3,4\n",     # an extra field is dropped
    "Name,Type\nA,x\nB\n",                          # a short row reads ""
    "Name,Price\n\nA,1\n\n\nB,2\n",                 # blank lines are skipped
    "Name , PRICE ,Numbed,Opentime\n  A , 1.50 , 2 , 8:05 \n",
    "Name,Price,Numbed\nA,\x1c1.5\u3000,\x1c2\x1f\n",      # blanks that int() alone refuses
    'Name,Type,Price\n"A\nB","x, y",3\n',           # a quoted newline stays in its cell
    "Name,Price\n",
    "\nName,Price\n",                               # a blank first line is an empty header
    "Name,Latitude\nA\n",                           # a short row's number reads ""
    "Name,Price\n\n\nA,1\nB, x \n",                 # rows are counted past blank lines
    "Name,Price,Numbed\nA,1,2,\nB,bad,worse\n",     # the first bad cell in column order
    "Name,Price,price\nA,bad,1\n",
    "Name,Price,Price\nA,bad,1\n",                  # the hidden field is never read
    "Name,Latitude,Longitude\nA,200,-1e308\n",      # off the sphere, yet finite floats
    "\ufeffName,Price\nA,1\n",                      # a byte-order mark is not in the header
], ids=["repeated", "canonical-twins", "extra", "short", "blank-lines", "spaces",
        "unicode-blanks", "quoted-newline", "header-only", "blank-header", "short-number",
        "count-past-blanks", "first-bad-cell", "twin-bad", "hidden-bad", "off-the-sphere",
        "byte-order-mark"])
def test_odd_tables_read_as_dictreader_reads_them(tmp_path, text):
    path = _write(tmp_path, text)
    try:
        want = _typed(read_csv_reference(path))
    except CsvReferenceError as refused:
        with pytest.raises(LoadError) as raised:
            _read_csv(path, (), "t")
        assert str(raised.value) == str(refused)
    else:
        assert _typed(_read_csv(path, (), "t")) == want


@pytest.mark.parametrize("text, message", [
    ("Name,Price\nA,1\nB,abc\n", "t.csv:3: bad number 'abc' in column 'price'"),
    ("Name,Numbed\nA,2.5\n", "t.csv:2: bad integer '2.5' in column 'numbed'"),
    ("Name,Opentime\nA,25:00\n", "t.csv:2: bad clock time '25:00' in column 'opentime'"),
    ("Name,Cost\nA, NaN \n", "t.csv:2: bad number 'NaN' in column 'cost'"),
    ("Name,Latitude\nA,-Infinity\n", "t.csv:2: bad number '-Infinity' in column 'latitude'"),
    ("Name,Latitude\nA,1e400\n", "t.csv:2: bad number '1e400' in column 'latitude'"),
    ("Name,Longitude\nA,-1E+309\n", "t.csv:2: bad number '-1E+309' in column 'longitude'"),
    ("Name,Price\n\nA,1\n\nB,sNaN\n", "t.csv:3: bad number 'sNaN' in column 'price'"),
    ("Name,Duration\nA\n", "t.csv:2: bad integer '' in column 'duration'"),
    ("Name,Begintime\nA,7:5,extra\n", "t.csv:2: bad clock time '7:5' in column 'begintime'"),
    ("Name,Opentime\nA,٠٨:٠٠\n", "t.csv:2: bad clock time '٠٨:٠٠' in column 'opentime'"),
], ids=["number", "integer", "clock", "nan", "infinity", "float-overflow",
        "float-overflow-negative", "after-blank-lines", "short-row", "extra-field",
        "non-ascii-clock"])
def test_load_errors_name_the_file_row_and_column(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(LoadError) as raised:
        _read_csv(path, (), "t")
    assert str(raised.value) == str(tmp_path / message)
