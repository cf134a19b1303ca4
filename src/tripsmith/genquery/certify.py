"""Solvability certification.

A skeleton only becomes a benchmark query once the search produces a witness
plan, and the witness must re-pass the full evaluation pipeline - the check
is done by the evaluator, not by the planner's own bookkeeping. Rejection is
a value, not an error: the caller simply samples another skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from ..errors import InputError
from ..evaluation import evaluate_plan
from ..plan.model import Plan, plan_from_obj, serialize_plan
from ..sandbox import Dataset
from ..search import FULL_PASS, HeuristicRanker, QueryContext, SearchConfig, dfs_search
from .skeleton import QuerySkeleton
from .templates import skeleton_to_dsl


@dataclass
class CertifiedQuery:
    uid: str
    skeleton: QuerySkeleton
    dsl_sources: list[str]
    witness: Plan
    text: str = ""

    def as_dict(self) -> dict:
        import json

        return {
            "uid": self.uid,
            "skeleton": self.skeleton.as_dict(),
            "dsl": list(self.dsl_sources),
            "witness": json.loads(serialize_plan(self.witness)),
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CertifiedQuery":
        if not isinstance(raw, dict):
            raise InputError("benchmark record is not a JSON object")
        try:
            return cls(
                uid=raw["uid"],
                skeleton=QuerySkeleton.from_dict(raw["skeleton"]),
                dsl_sources=list(raw["dsl"]),
                witness=plan_from_obj(raw["witness"]),
                text=raw.get("text", ""),
            )
        except KeyError as exc:
            raise InputError(f"benchmark record {raw.get('uid', '?')!r} "
                             f"misses field {exc.args[0]!r}") from None


def context_from_skeleton(skeleton: QuerySkeleton) -> QueryContext:
    ctx = QueryContext(
        origin=skeleton.origin,
        target=skeleton.target,
        days=skeleton.days,
        people=skeleton.people,
        raw_text=skeleton.describe(),
    )
    for spec in skeleton.specs:
        if spec.kind == "budget":
            ctx.budget_limit = Decimal(str(spec.value))
        elif spec.kind == "cuisine":
            ctx.required_cuisines.append(str(spec.value))
        elif spec.kind == "attraction_type":
            ctx.required_attraction_types.append(str(spec.value))
        elif spec.kind == "hotel_feature":
            ctx.required_hotel_features.append(str(spec.value))
        elif spec.kind == "specific_poi":
            ctx.required_pois.append(str(spec.value))
        elif spec.kind == "transport_type":
            if spec.value in ("train", "airplane"):
                ctx.required_intercity_kind = str(spec.value)
            else:
                ctx.required_innercity_mode = str(spec.value)
        elif spec.kind == "rooms":
            ctx.required_rooms = int(spec.value)
            ctx.required_room_type = int(spec.extra["room_type"])
    return ctx


def render_query_text(skeleton: QuerySkeleton, transport=None) -> str:
    """Optional natural-language paraphrase of a skeleton.

    With a transport the model rewrites the symbolic description; any failure
    (or no transport at all) falls back to the deterministic description, so
    rendering can never block generation.
    """
    base = skeleton.describe()
    if transport is None:
        return base
    from ..llm.endpoint import TransportError

    prompt = (
        "Rewrite this travel request as one natural sentence a person would "
        f"say, keeping every requirement: {base}"
    )
    try:
        reply = transport.complete(prompt).strip()
    except TransportError:
        return base
    return reply or base


def certify(
    skeleton: QuerySkeleton,
    dataset: Dataset,
    cfg: SearchConfig | None = None,
    uid: str = "q0",
    ranker=None,
) -> CertifiedQuery | None:
    """CertifiedQuery with a double-checked witness, or None (rejection)."""
    cfg = cfg or SearchConfig(budget_seconds=10.0)
    sources = skeleton_to_dsl(skeleton)
    ctx = context_from_skeleton(skeleton)
    outcome = dfs_search(sources, dataset, ranker or HeuristicRanker(), cfg, ctx)
    if outcome.status != FULL_PASS or outcome.plan is None:
        return None
    report = evaluate_plan(outcome.plan, sources, dataset)
    if not (report.delivered and report.env.overall and all(report.logical)):
        return None
    return CertifiedQuery(
        uid=uid,
        skeleton=skeleton,
        dsl_sources=sources,
        witness=outcome.plan,
        text=skeleton.describe(),
    )
