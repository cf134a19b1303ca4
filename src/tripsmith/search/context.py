"""Query context: the trip header plus whatever the constraints tell us.

The planner and the rankers never re-parse constraint programs during search;
everything they may exploit (required cuisine/type/feature terms, a budget
bound, a forced transport mode) is collected here once, from the query
skeleton (`genquery.certify.context_from_skeleton`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal


@dataclass
class QueryContext:
    origin: str
    target: str
    days: int
    people: int
    raw_text: str = ""
    required_intercity_kind: str | None = None    # train | airplane
    required_innercity_mode: str | None = None    # walk | metro | taxi
    required_cuisines: list[str] = field(default_factory=list)
    required_attraction_types: list[str] = field(default_factory=list)
    required_hotel_features: list[str] = field(default_factory=list)
    required_pois: list[str] = field(default_factory=list)
    required_rooms: int | None = None
    required_room_type: int | None = None
    budget_limit: Decimal | None = None

    def required_terms(self) -> list[str]:
        return (
            self.required_cuisines
            + self.required_attraction_types
            + self.required_hotel_features
            + self.required_pois
        )

