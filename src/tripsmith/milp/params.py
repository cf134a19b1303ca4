"""Model dimensions and the POI slice the builder instantiates against."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

from ..errors import BuildError, InputError
from ..sandbox import MODES, Dataset, IntercityRoute, intercity_select
from ..timeutil import to_minutes

DAY_MINUTES = 24 * 60


@dataclass(frozen=True)
class MilpParams:
    """Counts that fix every variable and constraint dimension."""

    hotel_num: int
    attr_num: int
    rest_num: int
    station_num: int
    go_num: int
    back_num: int
    time_step: int            # total number of time slots over the whole trip
    days: int = 1
    trans_num: int = field(default=len(MODES), init=False)     # the sandbox's modes

    @property
    def loc_num(self) -> int:
        return self.hotel_num + self.attr_num + self.rest_num

    @property
    def total_num(self) -> int:
        return self.loc_num + self.station_num

    @property
    def slots_per_day(self) -> int:
        return self.time_step // self.days

    @property
    def slot_minutes(self) -> int:
        return DAY_MINUTES // self.slots_per_day

    def validate(self) -> None:
        counts = {
            "hotel_num": self.hotel_num, "attr_num": self.attr_num,
            "rest_num": self.rest_num, "station_num": self.station_num,
            "go_num": self.go_num, "back_num": self.back_num,
        }
        for name, value in counts.items():
            if value < 0:
                raise InputError(f"{name} must be >= 0, got {value}")
        if self.days < 1:
            raise InputError(f"days must be >= 1, got {self.days}")
        if self.time_step < 2:
            raise InputError(f"time_step must be >= 2, got {self.time_step}")
        if self.time_step % self.days != 0:
            raise InputError("time_step must divide evenly into days")
        if self.slots_per_day > DAY_MINUTES:
            raise InputError(f"slots_per_day must be <= {DAY_MINUTES} (one-minute slots), "
                             f"got {self.slots_per_day}")
        if DAY_MINUTES % self.slots_per_day:
            raise InputError(f"slots_per_day must divide {DAY_MINUTES} (whole-minute slots), "
                             f"got {self.slots_per_day}")
        if self.station_num < 1 and (self.go_num or self.back_num):
            raise InputError("routes need at least one station")


# reference downsample configuration used for the headline size checks
DOWNSAMPLE = MilpParams(
    hotel_num=2, attr_num=10, rest_num=5, station_num=5,
    go_num=100, back_num=100, time_step=24, days=1,
)


@dataclass
class MilpSlice:
    """Exactly params-many POIs, stations and routes, in index order."""

    hotels: list[dict]
    attractions: list[dict]
    restaurants: list[dict]
    stations: list[str]
    go_routes: list[IntercityRoute]
    back_routes: list[IntercityRoute]

    def check_against(self, params: MilpParams) -> None:
        pairs = (
            ("hotels", len(self.hotels), params.hotel_num),
            ("attractions", len(self.attractions), params.attr_num),
            ("restaurants", len(self.restaurants), params.rest_num),
            ("stations", len(self.stations), params.station_num),
            ("go routes", len(self.go_routes), params.go_num),
            ("back routes", len(self.back_routes), params.back_num),
        )
        for name, have, want in pairs:
            if have != want:
                raise BuildError(f"slice carries {have} {name}, params require {want}")

    def location_names(self) -> list[str]:
        return (
            [row["name"] for row in self.hotels]
            + [row["name"] for row in self.attractions]
            + [row["name"] for row in self.restaurants]
            + list(self.stations)
        )


def _route(route_id: str, kind: str, frm: str, to: str, begin: str, end: str,
           cost: str) -> IntercityRoute:
    begin_at, end_at = to_minutes(begin), to_minutes(end)
    return IntercityRoute(
        id=route_id, kind=kind, from_station=frm, to_station=to,
        from_city=frm.split(" ")[0], to_city=to.split(" ")[0],
        begin=begin_at, end=end_at, duration=end_at - begin_at, cost=Decimal(cost),
    )


def synthetic_slice(params: MilpParams, seed: int = 0) -> MilpSlice:
    """Deterministic synthetic slice for size and solver checks."""
    import random

    rng = random.Random(seed)
    hotels = [
        {"name": f"Hotel {i}", "price": Decimal(300 + 50 * i), "numbed": 2}
        for i in range(params.hotel_num)
    ]
    attractions = []
    for i in range(params.attr_num):
        open_h = rng.choice((7, 8, 9))
        close_h = rng.choice((17, 18, 21, 22))
        attractions.append({
            "name": f"Attraction {i}",
            "price": Decimal(30 + 5 * (i % 7)),
            "opentime": f"{open_h:02d}:00", "endtime": f"{close_h:02d}:00",
        })
    restaurants = [
        {
            "name": f"Restaurant {i}",
            "price": Decimal(25 + 5 * (i % 9)),
            "opentime": "06:00", "endtime": "22:00",
        }
        for i in range(params.rest_num)
    ]
    stations = [f"City Station {i}" for i in range(params.station_num)]
    go_routes, back_routes = [], []
    for i in range(params.go_num):
        hour = 6 + (i % 6)
        station = stations[i % len(stations)] if stations else "City Station 0"
        go_routes.append(_route(f"G{2 * i + 1}", "train", "Away Station", station,
                                f"{hour:02d}:00", f"{hour + 2:02d}:00", "120"))
    for i in range(params.back_num):
        hour = 18 + (i % 5)
        station = stations[i % len(stations)] if stations else "City Station 0"
        back_routes.append(_route(f"G{2 * i + 2}", "train", station, "Away Station",
                                  f"{hour:02d}:00", f"{min(hour + 2, 23):02d}:{'59' if hour >= 22 else '00'}", "120"))
    return MilpSlice(hotels, attractions, restaurants, stations, go_routes, back_routes)


def slice_from_dataset(
    dataset: Dataset, origin: str, target: str,
    hotel_cap: int, attr_cap: int, rest_cap: int,
) -> MilpSlice:
    """Down-sample a loaded city, keeping table order.

    The first `*_cap` rows of each POI table, every route between the two
    cities, and the target-side stations of those routes.
    """
    db = dataset[target]
    go = intercity_select(dataset.cities, origin, target)
    back = intercity_select(dataset.cities, target, origin)
    stations = list(dict.fromkeys([route.to_station for route in go]
                                  + [route.from_station for route in back]))
    return MilpSlice(
        hotels=db.hotels[:hotel_cap],
        attractions=db.attractions[:attr_cap],
        restaurants=db.restaurants[:rest_cap],
        stations=stations,
        go_routes=go,
        back_routes=back,
    )
