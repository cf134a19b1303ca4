"""Depth-first greedy itinerary search with pluggable candidate ranking."""

from .context import QueryContext
from .dfs import (
    EMPTY,
    ENV_ONLY_BEST,
    FULL_PASS,
    PARTIAL,
    SearchOutcome,
    dfs_search,
    enumerate_complete_plans,
)
from .ranking import HeuristicRanker, Ranker
from .rules import next_activity_type, outbound_routes, return_routes
from .state import (
    SearchConfig,
    SearchState,
    initial_state,
    schedule_hotel,
    schedule_outbound,
    schedule_return,
    schedule_visit,
    transport_legs,
)

__all__ = [
    "EMPTY",
    "ENV_ONLY_BEST",
    "FULL_PASS",
    "PARTIAL",
    "HeuristicRanker",
    "QueryContext",
    "Ranker",
    "SearchConfig",
    "SearchOutcome",
    "SearchState",
    "dfs_search",
    "enumerate_complete_plans",
    "initial_state",
    "next_activity_type",
    "outbound_routes",
    "return_routes",
    "schedule_hotel",
    "schedule_outbound",
    "schedule_return",
    "schedule_visit",
    "transport_legs",
]
