import codecs
import csv
import shutil
from decimal import Decimal
from pathlib import Path

import pytest

from tripsmith.errors import IntegrityError, LoadError, NotFoundError
from tripsmith.sandbox import (
    goto,
    intercity_select,
    load_city_data,
    load_dataset,
    nearby,
    transfer_mode,
)
from tripsmith.timeutil import to_minutes

from .conftest import FIXTURES
from .oracles import haversine_reference, nearby_reference


def test_load_mini_city(beta):
    assert beta.city_name == "Beta"
    assert len(beta.attractions) == 4
    assert len(beta.hotels) == 2
    assert "Beta Station" in beta.poi_coordinates
    assert "Lakeview Tower" in beta.poi_coordinates


def test_load_missing_table(tmp_path):
    (tmp_path / "Empty").mkdir()
    with pytest.raises(LoadError, match="attractions"):
        load_city_data(tmp_path, "Empty")


def test_load_missing_city_directory(tmp_path):
    with pytest.raises(LoadError) as raised:
        load_city_data(tmp_path, "Nowhere")
    assert str(raised.value) == f"no data directory for city 'Nowhere' under {tmp_path}"


@pytest.mark.parametrize("relative", ["Beta/hotels.csv", "Beta/intercity.csv", "fares.cfg"])
def test_a_byte_order_mark_loads_the_same_city(tmp_path, relative):
    root = tmp_path / "micro"
    shutil.copytree(FIXTURES / "micro", root)
    path = root / relative
    path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert path.read_bytes().startswith(codecs.BOM_UTF8)
    marked, plain = load_city_data(root, "Beta"), load_city_data(FIXTURES / "micro", "Beta")
    assert (marked.hotels, marked.intercity_routes, marked.fares) == \
        (plain.hotels, plain.intercity_routes, plain.fares)


def _write_city(root: Path, attractions_rows):
    city = root / "Dup"
    city.mkdir()
    with (city / "attractions.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Name", "Type", "Latitude", "Longitude", "Opentime",
                         "Endtime", "Price", "Recommendmintime", "Recommendmaxtime"])
        writer.writerows(attractions_rows)
    for name, header in (
        ("restaurants", "Name,Latitude,Longitude,Price,Cuisinetype,Opentime,Endtime,Recommendedfood"),
        ("hotels", "Name,Featurehoteltype,Latitude,Longitude,Price,Numbed"),
        ("intercity", "ID,Kind,From,To,BeginTime,EndTime,Duration,Cost"),
        ("poi", "Name,Latitude,Longitude"),
    ):
        (city / f"{name}.csv").write_text(header + "\n")


def test_duplicate_poi_name_rejected(tmp_path):
    _write_city(tmp_path, [
        ["Twin", "park", "31.0", "121.0", "08:00", "18:00", "10", "1", "2"],
        ["Twin", "park", "31.1", "121.1", "08:00", "18:00", "10", "1", "2"],
    ])
    with pytest.raises(IntegrityError, match="duplicate"):
        load_city_data(tmp_path, "Dup")


def test_overnight_hours_rejected(tmp_path):
    _write_city(tmp_path, [
        ["Night Spot", "bar", "31.0", "121.0", "22:00", "02:00", "10", "1", "2"],
    ])
    with pytest.raises(IntegrityError, match="overnight"):
        load_city_data(tmp_path, "Dup")


def test_nearby_identity(beta):
    point = beta.coordinates("Old Town Wall")
    rows = nearby(beta, "attractions", point, topk=1, dist=1)
    assert [r["name"] for r in rows] == ["Old Town Wall"]


def test_nearby_empty(beta):
    rows = nearby(beta, "attractions", (0.0, 0.0), topk=5, dist=1)
    assert rows == []


def test_nearby_matches_brute_force(beta):
    point = (31.2000, 121.4000)
    got = [r["name"] for r in nearby(beta, "attractions", point, topk=3, dist=5)]
    want = nearby_reference(beta.attractions, point, topk=3, dist=5)
    assert got == want


def test_nearby_subset_and_sorted(beta):
    point = (31.2050, 121.4050)
    rows = nearby(beta, "restaurants", point, topk=10, dist=2)
    names = {r["name"] for r in beta.restaurants}
    dists = []
    for row in rows:
        assert row["name"] in names
        dists.append(haversine_reference(point[0], point[1],
                                         float(row["latitude"]), float(row["longitude"])))
        assert dists[-1] <= 2 + 1e-9
    assert dists == sorted(dists)


def _minutes(legs) -> int:
    return to_minutes(legs[-1]["end_time"]) - to_minutes(legs[0]["start_time"])


def _price(legs) -> Decimal:
    return sum((leg["price"] for leg in legs), Decimal(0))


def test_goto_identity(beta):
    legs = goto(beta, "Beta Station", "Beta Station", 9 * 60, "walk")
    assert len(legs) == 1
    assert legs[0]["distance"] == Decimal("0.000")
    assert _minutes(legs) == 0
    assert _price(legs) == 0


def test_goto_walk_time_matches_haversine(beta):
    lat1, lon1 = beta.coordinates("Beta Station")
    lat2, lon2 = beta.coordinates("Old Town Wall")
    km = haversine_reference(float(lat1), float(lon1), float(lat2), float(lon2))
    [leg] = goto(beta, "Beta Station", "Old Town Wall", 9 * 60, "walk")
    assert abs(float(leg["distance"]) - km) < 1e-3
    # 5 km/h, whole minutes rounded up
    import math
    assert _minutes([leg]) == math.ceil(float(leg["distance"]) * 12)


def test_goto_two_km_walk_is_24_minutes(tmp_path):
    # pin a pair exactly 2.0 km apart (1 km per 0.008993 degrees of latitude)
    city = tmp_path / "Flat"
    city.mkdir()
    (city / "attractions.csv").write_text(
        "Name,Type,Latitude,Longitude,Opentime,Endtime,Price,Recommendmintime,Recommendmaxtime\n"
        "A,park,30.000000,120.0,08:00,18:00,10,1,2\n"
        "B,park,30.017986,120.0,08:00,18:00,10,1,2\n"
    )
    (city / "restaurants.csv").write_text(
        "Name,Latitude,Longitude,Price,Cuisinetype,Opentime,Endtime,Recommendedfood\n")
    (city / "hotels.csv").write_text("Name,Featurehoteltype,Latitude,Longitude,Price,Numbed\n")
    (city / "intercity.csv").write_text("ID,Kind,From,To,BeginTime,EndTime,Duration,Cost\n")
    (city / "poi.csv").write_text("Name,Latitude,Longitude\n")
    db = load_city_data(tmp_path, "Flat")
    legs = goto(db, "A", "B", 9 * 60, "walk")
    assert legs[0]["distance"] == Decimal("2.000")
    assert _minutes(legs) == 24
    assert legs[0]["end_time"] == "09:24"


def test_goto_metro_has_three_legs(beta):
    legs = goto(beta, "Beta Station", "Old Town Wall", 9 * 60, "metro")
    assert transfer_mode(legs) == "metro"
    assert [leg["mode"] for leg in legs] == ["walk", "metro", "walk"]
    assert (legs[0]["start"], legs[-1]["end"]) == ("Beta Station", "Old Town Wall")
    for earlier, later in zip(legs, legs[1:]):
        assert earlier["end_time"] == later["start_time"]
        assert earlier["end"] == later["start"]
    assert _price(legs) == Decimal("3.00")   # one 6 km band


def test_goto_deterministic(beta):
    first = goto(beta, "Beta Station", "City Museum", 10 * 60 + 15, "taxi")
    second = goto(beta, "Beta Station", "City Museum", 10 * 60 + 15, "taxi")
    assert first == second
    assert first[0] is not second[0]     # fresh dicts: a caller may extend its own


def test_goto_unknown_position(beta):
    with pytest.raises(NotFoundError):
        goto(beta, "Beta Station", "Nowhere", 9 * 60, "walk")


def test_intercity_select_filters_and_sorts(mini_dataset):
    routes = intercity_select(mini_dataset.cities, "Alpha", "Beta", "train")
    assert [r.id for r in routes] == ["G101", "G103", "G105"]
    assert intercity_select(mini_dataset.cities, "Alpha", "Gamma") == []
    everything = intercity_select(mini_dataset.cities, "Alpha", "Beta")
    begins = [r.begin for r in everything]
    assert begins == sorted(begins)


def test_dataset_loads_both_cities():
    ds = load_dataset(FIXTURES / "mini")
    assert ds.city_names == ["Alpha", "Beta"]
    assert "Alpha" in ds and "Beta" in ds


def test_each_quantum_is_spelled_once_in_the_package():
    """Fares and plans round money to one quantum, and distances to another."""
    import tripsmith
    from tripsmith import geo
    from tripsmith.plan import model
    from tripsmith.sandbox import fares

    assert model.MONEY_QUANTUM is fares.MONEY_QUANTUM
    assert model.DIST_QUANTUM is geo.DIST_QUANTUM
    root = Path(tripsmith.__file__).parent
    for literal in ('Decimal("0.01")', 'Decimal("0.001")'):
        homes = [path.name for path in root.rglob("*.py") if literal in path.read_text()]
        assert len(homes) == 1, (literal, homes)
