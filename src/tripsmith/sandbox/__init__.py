"""Travel sandbox: city databases, query APIs and the transport simulator."""

from pathlib import Path

from ..errors import IntegrityError, LoadError
from .database import CityDatabase, IntercityRoute, intercity_select, load_city_data, nearby
from .fares import MODES, FareConfig, load_fare_config
from .transport import cars_for, goto, transfer_mode


class Dataset:
    """All cities under one data root, loaded once and shared read-only; the
    one home of a station's city, which no two routes may disagree on."""

    def __init__(self, cities: dict[str, CityDatabase]):
        self.cities = cities
        # route id -> the one route of that id under the root
        self.routes_by_id: dict[str, IntercityRoute] = {}
        self.station_cities: dict[str, str] = {}
        for city in self.city_names:
            for route in cities[city].intercity_routes:
                if self.routes_by_id.setdefault(route.id, route) is not route:
                    raise IntegrityError(
                        f"{city}/intercity: route id {route.id!r} is not unique under the root")
                # each station is in one city, and a loaded city locates its stations
                for end_city, station in ((route.from_city, route.from_station),
                                          (route.to_city, route.to_station)):
                    placed = self.station_cities.setdefault(station, end_city)
                    if placed != end_city:
                        raise IntegrityError(f"{city}/intercity: route {route.id!r} puts "
                                             f"{station!r} in {end_city!r}; it is in {placed!r}")
                    if end_city in cities and station not in cities[end_city].poi_coordinates:
                        raise IntegrityError(f"{end_city}: station {station!r} of route "
                                             f"{route.id!r} has no coordinates")

    @property
    def city_names(self) -> list[str]:
        return sorted(self.cities)

    def __getitem__(self, city: str) -> CityDatabase:
        return self.cities[city]

    def __contains__(self, city: str) -> bool:
        return city in self.cities

    def route(self, route_id: str) -> IntercityRoute | None:
        """The route a ride's id names; None for an empty or unknown id."""
        return self.routes_by_id.get(route_id)


def load_dataset(root_path) -> Dataset:
    """Load every city directory found under the root."""
    root = Path(root_path)
    if not root.is_dir():
        raise LoadError(f"data root is not a directory: {root}")
    cities = {}
    for entry in sorted(root.iterdir()):
        if entry.is_dir():
            cities[entry.name] = load_city_data(root, entry.name)
    return Dataset(cities)


__all__ = [
    "MODES",
    "CityDatabase",
    "Dataset",
    "FareConfig",
    "IntercityRoute",
    "cars_for",
    "goto",
    "intercity_select",
    "load_city_data",
    "load_dataset",
    "load_fare_config",
    "nearby",
    "transfer_mode",
]
