"""Model dimensions, and the slice: the one description of a model instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

from ..errors import InputError
from ..sandbox import MODES, Dataset, IntercityRoute, intercity_select

DAY_MINUTES = 24 * 60


@dataclass(frozen=True)
class MilpParams:
    """Counts that fix every variable and constraint dimension, checked when built."""

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

    def __post_init__(self) -> None:
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
    """One model instance: the POIs, stations and routes it instantiates, in
    index order, the load-time (opening, closing) minutes of each attraction
    and restaurant row, and the time grid. Its dimensions are read from it."""

    hotels: list[dict]
    attractions: list[dict]
    restaurants: list[dict]
    stations: list[str]
    go_routes: list[IntercityRoute]
    back_routes: list[IntercityRoute]
    attraction_hours: list[tuple[int, int]]
    restaurant_hours: list[tuple[int, int]]
    time_step: int            # total number of time slots over the whole trip
    days: int

    @property
    def params(self) -> MilpParams:
        """The slice's dimensions, checked as every `MilpParams` is."""
        return MilpParams(
            hotel_num=len(self.hotels), attr_num=len(self.attractions),
            rest_num=len(self.restaurants), station_num=len(self.stations),
            go_num=len(self.go_routes), back_num=len(self.back_routes),
            time_step=self.time_step, days=self.days,
        )


def _route(route_id: str, frm: str, to: str, begin: int) -> IntercityRoute:
    end = min(begin + 120, DAY_MINUTES - 1)
    return IntercityRoute(
        id=route_id, kind="train", from_station=frm, to_station=to,
        from_city=frm.split(" ")[0], to_city=to.split(" ")[0],
        begin=begin, end=end, duration=end - begin, cost=Decimal(120),
    )


def synthetic_slice(params: MilpParams, seed: int = 0) -> MilpSlice:
    """Deterministic synthetic slice of dimensions `params`, for size and solver checks."""
    import random

    rng = random.Random(seed)
    hotels = [
        {"name": f"Hotel {i}", "price": Decimal(300 + 50 * i), "numbed": 2}
        for i in range(params.hotel_num)
    ]
    attractions = [
        {"name": f"Attraction {i}", "price": Decimal(30 + 5 * (i % 7))}
        for i in range(params.attr_num)
    ]
    attraction_hours = [(60 * rng.choice((7, 8, 9)), 60 * rng.choice((17, 18, 21, 22)))
                        for _ in range(params.attr_num)]
    restaurants = [
        {"name": f"Restaurant {i}", "price": Decimal(25 + 5 * (i % 9))}
        for i in range(params.rest_num)
    ]
    stations = [f"City Station {i}" for i in range(params.station_num)]
    ring = stations or ["City Station 0"]
    go_routes = [_route(f"G{2 * i + 1}", "Away Station", ring[i % len(ring)], 60 * (6 + i % 6))
                 for i in range(params.go_num)]
    back_routes = [_route(f"G{2 * i + 2}", ring[i % len(ring)], "Away Station",
                          60 * (18 + i % 5))
                   for i in range(params.back_num)]
    return MilpSlice(hotels, attractions, restaurants, stations, go_routes, back_routes,
                     attraction_hours, [(360, 1320)] * params.rest_num,
                     params.time_step, params.days)


def slice_from_dataset(
    dataset: Dataset, origin: str, target: str,
    hotel_cap: int, attr_cap: int, rest_cap: int, time_step: int, days: int,
) -> MilpSlice:
    """Down-sample a loaded city onto `time_step` slots over `days` days, keeping table order.

    The first `*_cap` rows of each POI table, every route between the two
    cities, and the target-side stations of those routes.
    """
    db = dataset[target]
    opens, closes = db.open_minutes, db.close_minutes
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
        attraction_hours=list(zip(opens["attractions"], closes["attractions"]))[:attr_cap],
        restaurant_hours=list(zip(opens["restaurants"], closes["restaurants"]))[:rest_cap],
        time_step=time_step, days=days,
    )
