"""File-backed city database with the tool-style query surface.

Layout on disk, one directory per city::

    <root>/<city>/attractions.csv
    <root>/<city>/restaurants.csv
    <root>/<city>/hotels.csv
    <root>/<city>/intercity.csv
    <root>/<city>/poi.csv
    <root>/fares.cfg            (optional, shared tariffs)

Column headers are matched case-insensitively; the coordinate map covers all
POIs plus stations.

Indexed at load, as a by-product of the validation pass: every POI table by
name (`record`, `is_open` and the environment check look rows up there), the
intercity routes by id (the first route of a repeated id wins), and the routes
of each (from city, to city) pair sorted by (departure, id), which
`intercity_select` only filters.

Route departure and arrival become int minutes here, once; the plan record
and the environment check format them with `to_hhmm`, so a non-padded "7:05"
in the file reads "07:05" in a plan. POI opening hours stay the file's
"HH:MM" text, because the benchmark's own tests compare that text, and the
clock memo in `timeutil` keeps parsing it cheap.

Memoised on first use, per database: `nearby` answers, keyed on (table,
point, topk, dist), and the quantised distance of each ordered pair of
positions, which `goto` and the planner's mode choice share. Nothing is
filled eagerly: every pair and every neighbour list of a 3-city synthetic set
with 300 POIs per table is ~630 k haversine calls, over a second of load
time, and a search asks for a small share of them. The planner asks `nearby`
only at known positions, with one fixed radius and top-k, so both memos are
bounded by the city's names (positions, and pairs of positions), not by how
long a process runs.

Databases are immutable after load and safe to share between threads; a
memo write is one dict assignment of a value that only depends on the
immutable tables, so two threads racing on one key at worst compute the same
answer twice. Query sessions are single-owner.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

from ..errors import IntegrityError, LoadError, NotFoundError, StateError
from ..geo import distance_km
from ..timeutil import is_hhmm, to_hhmm, to_minutes
from .fares import FareConfig, load_fare_config

PAGE_SIZE = 10

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

_DECIMAL_COLUMNS = {"price", "cost", "latitude", "longitude", "recommendmintime", "recommendmaxtime"}
_INT_COLUMNS = {"numbed", "duration"}
_TIME_COLUMNS = {"opentime", "endtime", "begintime"}


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
class QuerySession:
    """Single-owner cursor over one select() result, paged by 10 rows."""

    rows: list[dict]
    cursor: int = 0

    @property
    def first_page(self) -> list[dict]:
        return self.rows[:PAGE_SIZE]

    @property
    def page_count(self) -> int:
        return math.ceil(len(self.rows) / PAGE_SIZE)


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
    # load-time indexes (see load_city_data)
    rows_by_name: dict[str, dict[str, dict]] = field(default_factory=dict, repr=False)
    routes_by_id: dict[str, IntercityRoute] = field(default_factory=dict, repr=False)
    routes_by_pair: dict[tuple[str, str], list[IntercityRoute]] = field(
        default_factory=dict, repr=False)
    # first-use memos (see the module docstring)
    _nearby_memo: dict[tuple, tuple[dict, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _distance_memo: dict[tuple[str, str], Decimal] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def table(self, name: str) -> list[dict]:
        if name not in POI_TABLES:
            raise NotFoundError(f"unknown table {name!r}; expected one of {POI_TABLES}")
        return getattr(self, name)

    def record(self, table: str, name: str) -> dict:
        try:
            return self.rows_by_name[table][name]
        except KeyError:
            self.table(table)   # raises on an unknown table
            raise NotFoundError(f"no {table[:-1]} named {name!r} in {self.city_name}") from None

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


def _convert(column: str, raw: str, where: str):
    raw = raw.strip()
    if column in _DECIMAL_COLUMNS:
        try:
            return Decimal(raw)
        except InvalidOperation:
            raise LoadError(f"{where}: bad number {raw!r} in column {column!r}") from None
    if column in _INT_COLUMNS:
        try:
            return int(raw)
        except ValueError:
            raise LoadError(f"{where}: bad integer {raw!r} in column {column!r}") from None
    if column in _TIME_COLUMNS:
        if not is_hhmm(raw):
            raise LoadError(f"{where}: bad clock time {raw!r} in column {column!r}")
        return raw
    return raw


def _read_csv(path: Path, required: tuple[str, ...], table: str) -> list[dict]:
    if not path.exists():
        raise LoadError(f"missing table {table!r}: expected file {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise LoadError(f"{path}: empty file for table {table!r}")
        canon = {name: name.strip().lower() for name in reader.fieldnames}
        have = set(canon.values())
        missing = [col for col in required if col not in have]
        if missing:
            raise LoadError(f"{path}: table {table!r} misses columns {missing}")
        rows = []
        for idx, raw_row in enumerate(reader, 2):
            row = {}
            for raw_key, value in raw_row.items():
                if raw_key is None:
                    continue
                key = canon[raw_key]
                row[key] = _convert(key, value or "", f"{path}:{idx}")
            rows.append(row)
    return rows


def load_city_data(root_path: Path | str, city: str) -> CityDatabase:
    """Load one city from `<root>/<city>/`, validating structural invariants."""
    root = Path(root_path)
    city_dir = root / city
    if not city_dir.is_dir():
        raise LoadError(f"no data directory for city {city!r} under {root}")

    tables = {}
    rows_by_name: dict[str, dict[str, dict]] = {}
    coords: dict[str, tuple[Decimal, Decimal]] = {}
    for table, required in _TABLE_COLUMNS.items():
        rows = _read_csv(city_dir / f"{table}.csv", required, table)
        by_name = rows_by_name[table] = {}
        for row in rows:
            name = row["name"]
            if name in by_name:
                raise IntegrityError(f"duplicate {table[:-1]} name {name!r} in {city}")
            by_name[name] = row
            if "opentime" in row and "endtime" in row:
                if to_minutes(row["opentime"]) > to_minutes(row["endtime"]):
                    raise IntegrityError(
                        f"{city}/{table}: {name!r} has overnight hours "
                        f"({row['opentime']}-{row['endtime']}), not supported"
                    )
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
    for row in _read_csv(city_dir / "intercity.csv", _INTERCITY_COLUMNS, "intercity"):
        kind = row["kind"].strip().lower()
        if kind not in ("train", "airplane"):
            raise IntegrityError(f"{city}/intercity: unknown kind {row['kind']!r}")
        if (kind == "airplane") != row["id"].startswith("F"):
            raise IntegrityError(
                f"{city}/intercity: id {row['id']!r} prefix does not match kind {kind!r}"
            )
        begin, end = to_minutes(row["begintime"]), to_minutes(row["endtime"])
        if end <= begin:
            raise IntegrityError(f"{city}/intercity: {row['id']!r} must end after it begins")
        if row["cost"] <= 0:
            raise IntegrityError(f"{city}/intercity: {row['id']!r} has non-positive cost")
        routes.append(
            IntercityRoute(
                id=row["id"],
                kind=kind,
                from_station=row["from"],
                to_station=row["to"],
                from_city=row.get("fromcity", "") or _city_of_station(row["from"], city),
                to_city=row.get("tocity", "") or _city_of_station(row["to"], city),
                begin=begin,
                end=end,
                duration=row["duration"],
                cost=row["cost"],
            )
        )

    routes_by_id: dict[str, IntercityRoute] = {}
    routes_by_pair: dict[tuple[str, str], list[IntercityRoute]] = {}
    for route in routes:
        routes_by_id.setdefault(route.id, route)
        routes_by_pair.setdefault((route.from_city, route.to_city), []).append(route)
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
        rows_by_name=rows_by_name,
        routes_by_id=routes_by_id,
        routes_by_pair=routes_by_pair,
    )


def _city_of_station(station: str, default_city: str) -> str:
    # Station names embed their city ("Alpha Station", "Beta Airport").
    return station.split(" ")[0] if " " in station else default_city


def select(db: CityDatabase, table: str, key: str, predicate) -> QuerySession:
    """Filter a POI table by predicate over one column, newest session."""
    rows = db.table(table)
    valid = set(_TABLE_COLUMNS[table])
    if key not in valid:
        raise NotFoundError(
            f"unknown key {key!r} for table {table!r}; valid keys: {sorted(valid)}"
        )
    matched = [row for row in rows if predicate(row[key])]
    return QuerySession(rows=matched)


def next_page(session: QuerySession | None) -> list[dict]:
    """Serve the page at the session cursor and advance; [] past the end."""
    if session is None:
        raise StateError("next_page called with no prior select result")
    start = session.cursor * PAGE_SIZE
    page = session.rows[start:start + PAGE_SIZE]
    if session.cursor < session.page_count:
        session.cursor += 1
    return page


def nearby(db: CityDatabase, table: str, point: tuple, topk: int, dist) -> list[dict]:
    """Top-k records of a table within `dist` km of point, nearest first."""
    if topk < 1:
        raise NotFoundError(f"topk must be >= 1, got {topk}")
    dist = Decimal(str(dist))
    if dist <= 0:
        raise NotFoundError(f"dist must be > 0, got {dist}")
    lat, lon = (Decimal(str(point[0])), Decimal(str(point[1])))
    key = (table, lat, lon, topk, dist)
    found = db._nearby_memo.get(key)
    if found is None:
        scored = []
        for row in db.table(table):
            d = distance_km(float(lat), float(lon),
                            float(row["latitude"]), float(row["longitude"]))
            if d <= dist:
                scored.append((d, row["name"], row))
        scored.sort(key=lambda item: (item[0], item[1]))
        found = db._nearby_memo[key] = tuple(row for _, _, row in scored[:topk])
    return list(found)


def is_open(db: CityDatabase, table: str, poi_id: str, time: str) -> bool:
    """Whether the named POI is open at HH:MM; bounds inclusive."""
    row = db.record(table, poi_id)
    if "opentime" not in row or "endtime" not in row:
        return True  # hotels carry no visiting hours
    t = to_minutes(time)
    return to_minutes(row["opentime"]) <= t <= to_minutes(row["endtime"])


def intercity_select(
    dbs: dict[str, CityDatabase] | CityDatabase,
    from_city: str,
    to_city: str,
    kind: str | None = None,
    earliest_leave: str = "00:00",
) -> list[IntercityRoute]:
    """Routes from one city to another departing at or after `earliest_leave`."""
    if isinstance(dbs, CityDatabase):
        source = dbs
    else:
        try:
            source = dbs[from_city]
        except KeyError:
            raise NotFoundError(f"city {from_city!r} is not loaded") from None
    earliest = to_minutes(earliest_leave)
    return [
        route
        for route in source.routes_by_pair.get((from_city, to_city), ())
        if route.begin >= earliest and (kind is None or route.kind == kind)
    ]
