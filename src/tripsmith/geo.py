"""Great-circle geometry on a spherical Earth (radius 6371 km)."""

from __future__ import annotations

import math
from decimal import Decimal

EARTH_RADIUS_KM = 6371.0

# Distances are carried as Decimals with 3 fractional digits so that every
# downstream comparison (fares, sandbox consistency checks) is exact.
DIST_QUANTUM = Decimal("0.001")


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two (lat, lon) points in kilometres."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def quantize_km(km: float) -> Decimal:
    """A float distance on the 3-digit grid: moved by at most 0.0005, order kept."""
    return Decimal(repr(km)).quantize(DIST_QUANTUM)


def distance_km(lat1: float, lon1: float, lat2: float, lon2: float) -> Decimal:
    """Haversine distance quantized to the package-wide 3-digit grid."""
    return quantize_km(haversine_km(lat1, lon1, lat2, lon2))
