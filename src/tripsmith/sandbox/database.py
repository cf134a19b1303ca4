"""File-backed city database: the loaded tables of one city, `nearby` and
`intercity_select`.

Layout on disk, one directory per city::

    <root>/<city>/attractions.csv
    <root>/<city>/restaurants.csv
    <root>/<city>/hotels.csv
    <root>/<city>/intercity.csv
    <root>/<city>/poi.csv
    <root>/fares.cfg            (optional, shared tariffs)

Column headers are matched case-insensitively; the coordinate map covers all
POIs plus stations.

Converted at load, in one pass over each file: the reader picks one
converter per column from the header and fills each row by column position,
keeping `csv.DictReader`'s reading of repeated headers, short rows, extra
fields and blank lines. Prices, costs, coordinates and recommended times
become finite Decimals (a NaN or infinity is a bad number, and so are a
coordinate whose float overflows and a price or cost beyond `MONEY_LIMIT`
either way), bed counts and durations ints, and clock
columns are checked "HH:MM" text; every other cell is stripped text. A cell
that does not convert is a `LoadError` naming the file, the row's number (the
header is 1, blank lines do not count) and the column. A hotel with fewer
than 1 bed is an `IntegrityError`: a party's rooms divide by its beds.

Every loaded route can be ridden: a route leaves the city whose file lists
it, and a station is in a city whose name and a space start the station's.
The loader refuses, as an `IntegrityError`, an intercity row with an empty
id and one whose From station is not in the file's city or whose To station
is not in its to-city (the ToCity cell, else the To station's first word).
`Dataset` refuses an id that two routes share, in one city or in two, so each
id names one route of the data root. It also refuses a station that two
routes put in two cities (a `Bay` route to `Bay Area Station` with no ToCity
cell does, beside `Bay Area`'s own routes), and a route station that its
loaded city has no coordinates for (the From station in the from-city, the
To station in the to-city).

Indexed at load, as a by-product of the validation pass: every POI table by
name, as the row's position in its table (`record`, `find`, `hours` and the
env check look rows up there; the planner drops visited rows from
a copy of a table by these positions), and the routes of each (from city, to
city) pair sorted by (departure, id), which `intercity_select` only filters.

Every clock cell is parsed once, here. Route departure and arrival become
int minutes; the plan record and the environment check format them with
`to_hhmm`, so a non-padded "7:05" in the file reads "07:05" in a plan. A POI
row keeps its opening hours as the file's "HH:MM" text, which the
benchmark's own tests compare; their minutes, a POI's only hours, go in
`open_minutes` and `close_minutes`, lists parallel to the rows of each table
with hours, which `hours` reads by the POI's name. The overnight check, the
env check's and the planner's visit tests, its open-attraction test, its
closing-time prune and `milp.slice_from_dataset` read those ints.

A cold `nearby` walks the table's rows outward in latitude from the point,
takes the float haversine of each, and stops on a side once the latitude
difference alone puts every further row beyond the reach: a great-circle
distance is at least 6371 km times the latitude difference in radians. The
reach starts at the radius plus 0.002 km and, once k rows are within it,
shrinks to the k-th nearest distance seen plus 0.002 km; the k nearest rows
of the table are within every reach the walk uses, so it sees every row
within the final one. Only those rows are quantised and sorted by (distance,
name). Quantising moves a distance by at most 0.0005 km and never puts two
distances in the opposite order, so a row whose float distance is more than
0.002 km beyond the radius, or beyond the k-th nearest row, cannot enter the
top k: the answer equals the quantise-everything scan. A point or a row past
a pole bounds nothing, and then the walk measures every row.

Memoised on first use, per database: each POI table's float coordinates in
latitude order, for `nearby`; `nearby` answers, keyed on (table, point, topk,
dist); the quantised distance of each ordered pair of positions; the
door-to-door minutes of each (start, end, mode) transfer, which `goto` and the
planner's arrival test share; and in `order_memo` the ranker's orders of the
attraction and restaurant tables (`search.ranking.TableOrders`). Nothing is filled
eagerly: every pair and every neighbour list of a 3-city synthetic set with
300 POIs per table is ~630 k haversine calls, over a second of load time,
and a search asks for a small share of them. The planner asks `nearby`
only at known positions, with one fixed radius and top-k, so every other memo
is bounded by the city's names (positions for `nearby`, positions squared for
distances, positions squared times the 3 modes for transfers), not by how
long a process runs; `search.ranking` bounds the orders. An unknown position
or mode raises and stores nothing.

Databases are immutable after load. `plan` searches its queries one at a
time, so the memos one query fills serve the next.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from heapq import heappush, heapreplace
from pathlib import Path

from ..errors import InputError, IntegrityError, LoadError, NotFoundError
from ..geo import EARTH_RADIUS_KM, distance_km, quantize_km
from ..timeutil import to_hhmm, to_minutes
from .fares import MODES, MONEY_LIMIT, FareConfig, load_fare_config, travel_minutes

POI_TABLES = ("attractions", "restaurants", "hotels")

# required columns per table, in canonical lower-case form
_TABLE_COLUMNS = {
    "attractions": (
        "name", "type", "latitude", "longitude", "opentime", "endtime",
        "price", "recommendmintime", "recommendmaxtime",
    ),
    "restaurants": (
        "name", "latitude", "longitude", "price", "cuisinetype",
        "opentime", "endtime", "recommendedfood",
    ),
    "hotels": (
        "name", "featurehoteltype", "latitude", "longitude", "price", "numbed",
    ),
}
_INTERCITY_COLUMNS = ("id", "kind", "from", "to", "begintime", "endtime", "duration", "cost")
_POI_COLUMNS = ("name", "latitude", "longitude")

# over twice what quantising moves a distance, so that a row this much farther
# than another has a strictly larger quantised distance (see the docstring)
_DIST_SLACK = 0.002
# a great-circle distance is at least the latitude difference times this
_KM_PER_DEGREE = EARTH_RADIUS_KM * math.pi / 180
# far above the float error of either side of that bound
_WINDOW_SLACK = 1e-6


@dataclass(frozen=True)
class IntercityRoute:
    """One train or airplane connection between two cities."""

    id: str
    kind: str                # "train" | "airplane"
    from_station: str
    to_station: str
    from_city: str
    to_city: str
    begin: int               # minutes since midnight
    end: int                 # minutes since midnight
    duration: int            # minutes
    cost: Decimal            # per ticket

    def activity(self, people: int) -> dict:
        """The plan record of this ride, one ticket per traveller."""
        return {
            "type": self.kind,
            "start": self.from_station,
            "end": self.to_station,
            "FlightID" if self.kind == "airplane" else "TrainID": self.id,
            "start_time": to_hhmm(self.begin),
            "end_time": to_hhmm(self.end),
            "price": self.cost,
            "tickets": people,
            "cost": self.cost * people,
        }


@dataclass
class CityDatabase:
    """All sandbox records for one city, indexed for the query APIs."""

    city_name: str
    attractions: list[dict]
    restaurants: list[dict]
    hotels: list[dict]
    intercity_routes: list[IntercityRoute]
    poi_coordinates: dict[str, tuple[Decimal, Decimal]]
    fares: FareConfig = field(default_factory=FareConfig)
    # load-time indexes (see load_city_data); table -> name -> position in the table
    positions_by_name: dict[str, dict[str, int]] = field(default_factory=dict, repr=False)
    # table with visiting hours -> opening and closing minute of each row, parallel to the rows
    open_minutes: dict[str, list[int]] = field(default_factory=dict, repr=False)
    close_minutes: dict[str, list[int]] = field(default_factory=dict, repr=False)
    routes_by_pair: dict[tuple[str, str], list[IntercityRoute]] = field(
        default_factory=dict, repr=False)
    # first-use memos (see the module docstring)
    _nearby_memo: dict[tuple, tuple[dict, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _distance_memo: dict[tuple[str, str], Decimal] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _transfer_memo: dict[tuple[str, str, str], int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # table -> the rows in latitude order (see latitude_index)
    _latitude_index: dict[str, tuple[list[float], list[tuple]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # attractions | restaurants -> the ranker's orders of the table (search.ranking.TableOrders)
    order_memo: dict[str, dict] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)

    def table(self, name: str) -> list[dict]:
        if name not in POI_TABLES:
            raise NotFoundError(f"unknown table {name!r}; expected one of {POI_TABLES}")
        return getattr(self, name)

    def record(self, table: str, name: str) -> dict:
        try:
            return self.table(table)[self.positions_by_name[table][name]]
        except KeyError:
            raise NotFoundError(f"no {table[:-1]} named {name!r} in {self.city_name}") from None

    def find(self, table: str, name: str) -> dict | None:
        """The row called `name` in a POI table, or None."""
        position = self.positions_by_name[table].get(name)
        return None if position is None else getattr(self, table)[position]

    def hours(self, table: str, name: str) -> tuple[int, int]:
        """Opening and closing minute of the attraction or restaurant called
        `name`: the load-time ints of its row."""
        position = self.positions_by_name[table][name]
        return self.open_minutes[table][position], self.close_minutes[table][position]

    def latitude_index(self, table: str) -> tuple[list[float], list[tuple]]:
        """A POI table's row latitudes in ascending order and, in that order, each
        row's (position, latitude in radians, its cosine, longitude); built on
        first use."""
        index = self._latitude_index.get(table)
        if index is None:
            points = [(float(row["latitude"]), float(row["longitude"]))
                      for row in self.table(table)]
            order = sorted(range(len(points)), key=points.__getitem__)
            radians = [math.radians(points[position][0]) for position in order]
            index = self._latitude_index[table] = (
                [points[position][0] for position in order],
                [(position, rad, math.cos(rad), points[position][1])
                 for position, rad in zip(order, radians)])
        return index

    def coordinates(self, name: str) -> tuple[Decimal, Decimal]:
        try:
            return self.poi_coordinates[name]
        except KeyError:
            raise NotFoundError(f"unknown position {name!r} in {self.city_name}") from None

    def distance(self, start: str, end: str) -> Decimal:
        """Quantised great-circle km from one known position to another."""
        key = (start, end)
        dist = self._distance_memo.get(key)
        if dist is None:
            lat1, lon1 = self.coordinates(start)
            lat2, lon2 = self.coordinates(end)
            dist = distance_km(float(lat1), float(lon1), float(lat2), float(lon2))
            self._distance_memo[key] = dist
        return dist

    def transfer_minutes(self, start: str, end: str, mode: str) -> int:
        """Door-to-door minutes of one `mode` transfer from a known position to another."""
        key = (start, end, mode)
        minutes = self._transfer_memo.get(key)
        if minutes is None:
            if mode not in MODES:
                raise NotFoundError(f"unknown transport mode {mode!r}; expected one of {MODES}")
            dist = self.distance(start, end)
            fares = self.fares
            if mode == "walk":
                minutes = travel_minutes(dist, fares.walk_speed_kmh)
            elif mode == "taxi":
                minutes = travel_minutes(dist, fares.taxi_speed_kmh)
            else:
                minutes = (travel_minutes(dist, fares.metro_speed_kmh)
                           + 2 * fares.metro_access_minutes)
            self._transfer_memo[key] = minutes
        return minutes


def _number(raw: str) -> Decimal:
    value = Decimal(raw.strip())
    if not value.is_finite():
        raise InvalidOperation(raw)
    return value


def _money(raw: str) -> Decimal:
    value = _number(raw)
    if abs(value) > MONEY_LIMIT:
        raise InvalidOperation(raw)
    return value


def _coordinate(raw: str) -> Decimal:
    value = _number(raw)
    if not math.isfinite(float(value)):     # "1e400" is a finite Decimal
        raise InvalidOperation(raw)
    return value


def _integer(raw: str) -> int:
    return int(raw.strip())     # int() alone refuses blanks that str.strip() drops


def _clock(raw: str) -> int:
    return to_minutes(raw)      # strips; the row keeps the stripped text (see _read_csv)


# the converter of each typed column; every other column is text, stripped
_CONVERTERS = {
    **dict.fromkeys(("price", "cost"), _money),
    **dict.fromkeys(("recommendmintime", "recommendmaxtime"), _number),
    **dict.fromkeys(("latitude", "longitude"), _coordinate),
    **dict.fromkeys(("numbed", "duration"), _integer),
    **dict.fromkeys(("opentime", "endtime", "begintime"), _clock),
}
# what a load error calls a cell that a converter refuses
_BAD_CELL = {_number: "number", _money: "number", _coordinate: "number",
             _integer: "integer", _clock: "clock time"}
_CELL_ERRORS = (ValueError, ArithmeticError, InputError)


def _read_csv(path: Path, required: tuple[str, ...], table: str,
              clocks: dict[str, list[int]] | None = None) -> list[dict]:
    """The rows `csv.DictReader` reads, keyed by canonical column and converted.

    A clock cell is parsed once: the row keeps its stripped text and, when
    `clocks` is given, `clocks[column]` gets its minute, in row order."""
    if clocks is None:
        clocks = {}
    if not path.exists():
        raise LoadError(f"missing table {table!r}: expected file {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise LoadError(f"{path}: empty file for table {table!r}")
            last_position = {raw: position for position, raw in enumerate(header)}
            keys = [raw.strip().lower() for raw in last_position]
            plan = [(key, position, _CONVERTERS.get(key, str.strip))
                    for key, position in zip(keys, last_position.values())]
            missing = [col for col in required if col not in keys]
            if missing:
                raise LoadError(f"{path}: table {table!r} misses columns {missing}")
            timed = [(key, position, clocks.setdefault(key, []).append)
                     for key, position, convert in plan if convert is _clock]
            width = len(header)
            rows = []
            for idx, cells in enumerate(filter(None, reader), 2):
                if len(cells) < width:
                    cells += [""] * (width - len(cells))
                try:
                    values = [convert(cells[position]) for _, position, convert in plan]
                except _CELL_ERRORS:
                    for key, position, convert in plan:     # name the first bad cell
                        try:
                            convert(cells[position])
                        except _CELL_ERRORS:
                            raise LoadError(f"{path}:{idx}: bad {_BAD_CELL[convert]} "
                                            f"{cells[position].strip()!r} "
                                            f"in column {key!r}") from None
                    raise
                row = dict(zip(keys, values))
                for key, position, record in timed:
                    record(row[key])
                    row[key] = cells[position].strip()
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text: {exc}") from None
    return rows


def load_city_data(root_path: Path | str, city: str) -> CityDatabase:
    """Load one city from `<root>/<city>/`, validating structural invariants."""
    root = Path(root_path)
    city_dir = root / city
    if not city_dir.is_dir():
        raise LoadError(f"no data directory for city {city!r} under {root}")

    tables = {}
    positions_by_name: dict[str, dict[str, int]] = {}
    open_minutes: dict[str, list[int]] = {}
    close_minutes: dict[str, list[int]] = {}
    coords: dict[str, tuple[Decimal, Decimal]] = {}
    for table, required in _TABLE_COLUMNS.items():
        clocks: dict[str, list[int]] = {}
        rows = _read_csv(city_dir / f"{table}.csv", required, table, clocks)
        by_name = positions_by_name[table] = {}
        timed = "opentime" in clocks and "endtime" in clocks
        if timed:
            opens = open_minutes[table] = clocks["opentime"]
            closes = close_minutes[table] = clocks["endtime"]
        for position, row in enumerate(rows):
            name = row["name"]
            if name in by_name:
                raise IntegrityError(f"duplicate {table[:-1]} name {name!r} in {city}")
            by_name[name] = position
            if timed and opens[position] > closes[position]:
                raise IntegrityError(
                    f"{city}/{table}: {name!r} has overnight hours "
                    f"({row['opentime']}-{row['endtime']}), not supported"
                )
            if table == "hotels" and row["numbed"] < 1:
                raise IntegrityError(f"{city}/hotels: {name!r} has {row['numbed']} beds, "
                                     f"fewer than 1")
            point = (row["latitude"], row["longitude"])
            if name in coords and coords[name] != point:
                raise IntegrityError(f"{city}: {name!r} has conflicting coordinates")
            coords[name] = point
        tables[table] = rows

    for row in _read_csv(city_dir / "poi.csv", _POI_COLUMNS, "poi"):
        point = (row["latitude"], row["longitude"])
        if row["name"] in coords and coords[row["name"]] != point:
            raise IntegrityError(f"{city}: {row['name']!r} has conflicting coordinates")
        coords[row["name"]] = point

    routes = []
    routes_by_pair: dict[tuple[str, str], list[IntercityRoute]] = {}
    clocks = {}
    intercity = _read_csv(city_dir / "intercity.csv", _INTERCITY_COLUMNS, "intercity", clocks)
    for row, begin, end in zip(intercity, clocks["begintime"], clocks["endtime"]):
        if not row["id"]:
            raise IntegrityError(f"{city}/intercity: a route has an empty id")
        kind = row["kind"].strip().lower()
        if kind not in ("train", "airplane"):
            raise IntegrityError(f"{city}/intercity: unknown kind {row['kind']!r}")
        if (kind == "airplane") != row["id"].startswith("F"):
            raise IntegrityError(
                f"{city}/intercity: id {row['id']!r} prefix does not match kind {kind!r}"
            )
        if end <= begin:
            raise IntegrityError(f"{city}/intercity: {row['id']!r} must end after it begins")
        if row["cost"] <= 0:
            raise IntegrityError(f"{city}/intercity: {row['id']!r} has non-positive cost")
        to_city = row.get("tocity", "") or row["to"].split(" ")[0]
        if not (_belongs(row["from"], city) and _belongs(row["to"], to_city)):
            raise IntegrityError(f"{city}/intercity: the stations of {row['id']!r} do not "
                                 f"carry its cities {city!r} and {to_city!r}")
        route = IntercityRoute(
            id=row["id"], kind=kind, from_station=row["from"], to_station=row["to"],
            from_city=city, to_city=to_city, begin=begin, end=end,
            duration=row["duration"], cost=row["cost"])
        routes.append(route)
        routes_by_pair.setdefault((city, to_city), []).append(route)
    for pair_routes in routes_by_pair.values():
        pair_routes.sort(key=lambda route: (route.begin, route.id))

    fare_path = root / "fares.cfg"
    fares = load_fare_config(fare_path) if fare_path.exists() else FareConfig()

    return CityDatabase(
        city_name=city,
        attractions=tables["attractions"],
        restaurants=tables["restaurants"],
        hotels=tables["hotels"],
        intercity_routes=routes,
        poi_coordinates=coords,
        fares=fares,
        positions_by_name=positions_by_name,
        open_minutes=open_minutes,
        close_minutes=close_minutes,
        routes_by_pair=routes_by_pair,
    )


def _belongs(station: str, city: str) -> bool:
    """Whether `station` is a station of `city` ("Beta Airport" of "Beta", not of "Bet")."""
    return station.startswith(city + " ")


def nearby(db: CityDatabase, table: str, point: tuple, topk: int, dist) -> list[dict]:
    """Top-k records of a table within `dist` km of point, nearest first.

    A `topk` that is not an int >= 1, a radius that is not a number > 0, or a
    point that is not two finite numbers, raises `NotFoundError`."""
    if not isinstance(topk, int) or isinstance(topk, bool):
        raise NotFoundError(f"topk must be an int, got {topk!r}")
    if topk < 1:
        raise NotFoundError(f"topk must be >= 1, got {topk}")
    try:
        dist = Decimal(str(dist))
    except InvalidOperation:
        raise NotFoundError(f"dist must be a number, got {dist!r}") from None
    if dist.is_nan() or dist <= 0:
        raise NotFoundError(f"dist must be > 0, got {dist}")
    try:
        lat, lon = (Decimal(str(point[0])), Decimal(str(point[1])))
        flat, flon = float(lat), float(lon)
    except InvalidOperation:
        flat = flon = math.nan
    if not (math.isfinite(flat) and math.isfinite(flon)):
        raise NotFoundError(f"point must be two finite numbers, got {point!r}")
    key = (table, lat, lon, topk, dist)
    found = db._nearby_memo.get(key)
    if found is None:
        found = db._nearby_memo[key] = _nearest(
            db.table(table), db.latitude_index(table), flat, flon, topk, dist)
    return list(found)


def _nearest(rows: list[dict], index: tuple, lat: float, lon: float, topk: int,
             dist: Decimal) -> tuple[dict, ...]:
    """The top-k rows by (quantised distance, name) within `dist`, taking the
    haversine only of the rows inside the latitude window and quantising only
    those that can be in the answer (see the module docstring)."""
    lats, entries = index
    reach = float(dist) + _DIST_SLACK
    p1 = math.radians(lat)
    c1 = math.cos(p1)
    sin, asin, sqrt, radians = math.sin, math.asin, math.sqrt, math.radians
    near = []           # (km, position) of the rows within the reach when seen
    nearest = []        # max-heap of the topk smallest km seen, negated
    below = bisect_left(lats, lat) - 1
    above = below + 1
    # the bound holds for latitudes on the sphere; a point off it is scanned whole
    bounded = -90 <= lat <= 90 and (not lats or (-90 <= lats[0] and lats[-1] <= 90))
    window = math.inf
    while True:
        if bounded:
            window = (reach + _WINDOW_SLACK) / _KM_PER_DEGREE
        down = below >= 0 and lat - lats[below] <= window
        up = above < len(lats) and lats[above] - lat <= window
        if not (down or up):
            break
        if down and (not up or lat - lats[below] <= lats[above] - lat):
            position, p2, c2, lon2 = entries[below]
            below -= 1
        else:
            position, p2, c2, lon2 = entries[above]
            above += 1
        # geo.haversine_km(lat, lon, <the row's point>), term for term
        km = 2 * EARTH_RADIUS_KM * asin(sqrt(
            sin((p2 - p1) / 2) ** 2 + c1 * c2 * sin(radians(lon2 - lon) / 2) ** 2))
        if km > reach:
            continue
        near.append((km, position))
        if len(nearest) < topk:
            heappush(nearest, -km)
        elif km < -nearest[0]:
            heapreplace(nearest, -km)
        if len(nearest) == topk:
            reach = min(reach, _DIST_SLACK - nearest[0])
    scored = []
    for km, position in near:
        if km <= reach:
            d = quantize_km(km)
            if d <= dist:
                scored.append((d, rows[position]["name"], position))
    scored.sort()
    return tuple(rows[position] for _, _, position in scored[:topk])


def intercity_select(
    dbs: dict[str, CityDatabase],
    from_city: str,
    to_city: str,
    kind: str | None = None,
) -> list[IntercityRoute]:
    """Routes from one city to another, of `kind` when given, by (departure, id)."""
    try:
        source = dbs[from_city]
    except KeyError:
        raise NotFoundError(f"city {from_city!r} is not loaded") from None
    return [route for route in source.routes_by_pair.get((from_city, to_city), ())
            if kind is None or route.kind == kind]
