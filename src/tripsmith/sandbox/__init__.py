"""Travel sandbox: city databases, query APIs and the transport simulator."""

from pathlib import Path

from .database import (
    PAGE_SIZE,
    CityDatabase,
    IntercityRoute,
    QuerySession,
    intercity_select,
    is_open,
    load_city_data,
    nearby,
    next_page,
    select,
)
from .fares import FareConfig, load_fare_config
from .transport import MODES, TransportLeg, TransportOption, cars_for, goto


class Dataset:
    """All cities under one data root, loaded once and shared read-only."""

    def __init__(self, cities: dict[str, CityDatabase]):
        self.cities = cities

    @property
    def city_names(self) -> list[str]:
        return sorted(self.cities)

    def __getitem__(self, city: str) -> CityDatabase:
        return self.cities[city]

    def __contains__(self, city: str) -> bool:
        return city in self.cities


def load_dataset(root_path) -> Dataset:
    """Load every city directory found under the root."""
    root = Path(root_path)
    cities = {}
    for entry in sorted(root.iterdir()):
        if entry.is_dir():
            cities[entry.name] = load_city_data(root, entry.name)
    return Dataset(cities)


__all__ = [
    "PAGE_SIZE",
    "MODES",
    "CityDatabase",
    "Dataset",
    "FareConfig",
    "IntercityRoute",
    "QuerySession",
    "TransportLeg",
    "TransportOption",
    "cars_for",
    "goto",
    "intercity_select",
    "is_open",
    "load_city_data",
    "load_dataset",
    "load_fare_config",
    "nearby",
    "next_page",
    "select",
]
