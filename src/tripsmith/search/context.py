"""Query context: the trip header plus whatever the constraints tell us.

The planner and the rankers never re-parse constraint programs during search;
everything they may exploit is collected here once, from the typed query
skeleton (`genquery.certify.context_from_skeleton`): the required terms (every
cuisine, attraction type, hotel feature and named POI the query asks for, in
spec order), a budget bound, a forced transport mode and a room request.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    required_terms: tuple[str, ...] = ()
    required_rooms: int | None = None
    required_room_type: int | None = None
    budget_limit: Decimal | None = None
