"""Model-guided candidate ranking with a deterministic safety net.

The ranked names are read from the reply's `...NameList:` line.
Whatever goes wrong - transport failure, malformed reply, hallucinated names -
the pipeline never stops: the heuristic ranker takes over and a degradation
event is recorded, one per failed call.
"""

from __future__ import annotations

import ast
import functools
import logging
from dataclasses import dataclass
from importlib import resources

from ..search.context import QueryContext
from ..search.ranking import HeuristicRanker
from ..search.state import SearchState
from .endpoint import Transport, TransportError

logger = logging.getLogger("tripsmith.llm")


@dataclass
class DegradationEvent:
    operation: str
    reason: str


@functools.cache
def load_prompt(name: str) -> str:
    """Text of the packaged prompt `name`, read once per process."""
    return resources.files("tripsmith.llm").joinpath(f"prompts/{name}.txt").read_text("utf-8")


def parse_name_list(reply: str) -> list[str] | None:
    """Extract the ranked names from a `...NameList: [...]` line."""
    for line in reply.splitlines():
        stripped = line.strip()
        if "NameList:" not in stripped:
            continue
        _, _, payload = stripped.partition("NameList:")
        payload = payload.strip()
        try:
            names = ast.literal_eval(payload)
        except (ValueError, SyntaxError):
            return None
        if isinstance(names, list) and all(isinstance(n, str) for n in names):
            return names
        return None
    return None


def merge_ranked_names(candidates: list[dict], names: list[str]) -> list[dict]:
    """Reorder candidate rows by the reply; unknown names are dropped, candidates
    the model forgot keep their original relative order at the tail."""
    by_name = {}
    for candidate in candidates:
        by_name.setdefault(candidate.get("name", ""), candidate)
    picked = []
    seen = set()
    for name in names:
        if name in by_name and name not in seen:
            picked.append(by_name[name])
            seen.add(name)
    for candidate in candidates:
        key = candidate.get("name", "")
        if key not in seen:
            picked.append(candidate)
            seen.add(key)
    return picked


def _rows_summary(candidates: list[dict]) -> str:
    lines = []
    for row in candidates:
        bits = [row.get("name", "")]
        for key in ("cuisinetype", "type", "featurehoteltype"):
            if key in row:
                bits.append(str(row[key]))
        bits.append(f"price {row.get('price', '')}")
        lines.append(" | ".join(bits))
    return "\n".join(lines)


class LlmRanker:
    """Ranker that asks the model for an order and falls back to heuristics."""

    def __init__(self, transport: Transport):
        self.transport = transport
        self.fallback = HeuristicRanker()
        self.degradation_events: list[DegradationEvent] = []

    def _degrade(self, operation: str, reason: str) -> None:
        event = DegradationEvent(operation, reason)
        self.degradation_events.append(event)
        logger.warning("llm degradation: %s: %s", operation, reason)

    def rank(self, candidates: list, state: SearchState, context: QueryContext) -> list:
        if not candidates or not isinstance(candidates[0], dict):
            return self.fallback.rank(candidates, state, context)
        if "cuisinetype" in candidates[0]:
            template, info_key, op = load_prompt("restaurants"), "restaurant_info", "rank_restaurants"
        elif "recommendmintime" in candidates[0]:
            template, info_key, op = load_prompt("attractions"), "attraction_info", "rank_attractions"
        else:
            return self.fallback.rank(candidates, state, context)

        prompt = template.format(**{
            "user_requirements": context.raw_text,
            info_key: _rows_summary(candidates),
            "past_cost": str(state.total_cost),
            "days": context.days,
        })
        try:
            reply = self.transport.complete(prompt)
        except TransportError as exc:
            self._degrade(op, str(exc))
            return self.fallback.rank(candidates, state, context)
        names = parse_name_list(reply)
        if names is None:
            self._degrade(op, "unparseable reply")
            return self.fallback.rank(candidates, state, context)
        return merge_ranked_names(candidates, names)
