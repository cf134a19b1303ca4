"""Solvability certification.

A skeleton only becomes a benchmark query once the search produces a witness
plan, and the witness must re-pass the full evaluation pipeline - the check
is done by the evaluator, not by the planner's own bookkeeping. Rejection is
a value, not an error: the caller simply samples another skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dsl import check_source
from ..errors import InputError, SchemaError
from ..evaluation import evaluate_plan
from ..plan.model import INTERCITY_TYPES, Plan, plan_from_obj, serialize_plan
from ..sandbox import Dataset
from ..search import FULL_PASS, HeuristicRanker, QueryContext, SearchConfig, dfs_search
from .skeleton import TERM_KINDS, QuerySkeleton
from .templates import skeleton_to_dsl


@dataclass
class CertifiedQuery:
    uid: str
    skeleton: QuerySkeleton
    dsl_sources: list[str]
    witness: Plan
    text: str = ""

    def as_dict(self) -> dict:
        return {
            "uid": self.uid,
            "skeleton": self.skeleton.as_dict(),
            "dsl": list(self.dsl_sources),
            "witness": serialize_plan(self.witness),
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CertifiedQuery":
        """A record whose fields are typed and programs check clean; InputError if not."""
        if not isinstance(raw, dict):
            raise InputError("benchmark record is not a JSON object")
        try:
            uid = raw["uid"]
            if not (isinstance(uid, str) and uid not in ("", ".", "..")
                    and not any(ch in uid for ch in "/\\\0")):
                raise ValueError("uid must be a non-empty string usable as a file name")
            skeleton = QuerySkeleton.from_dict(raw["skeleton"])
            dsl = raw["dsl"]
            if not (isinstance(dsl, list) and all(isinstance(source, str) for source in dsl)):
                raise ValueError("dsl must be a list of program texts")
            for number, source in enumerate(dsl, 1):
                program, diagnostics = check_source(source)
                if program is None:
                    first = next(d for d in diagnostics if d.severity == "error")
                    raise ValueError(f"constraint {number}: {first.render()}")
            return cls(uid=uid, skeleton=skeleton, dsl_sources=list(dsl),
                       witness=plan_from_obj(raw["witness"]), text=raw.get("text", ""))
        except KeyError as exc:
            raise InputError(f"benchmark record {raw.get('uid', '?')!r} "
                             f"misses field {exc.args[0]!r}") from None
        except (ValueError, TypeError, SchemaError) as exc:
            raise InputError(f"benchmark record {raw.get('uid', '?')!r}: {exc}") from None


def context_from_skeleton(skeleton: QuerySkeleton) -> QueryContext:
    """What the search may exploit of a skeleton whose specs are typed."""
    ctx = QueryContext(skeleton.origin, skeleton.target, skeleton.days, skeleton.people,
                       raw_text=skeleton.describe())
    terms = []
    for spec in skeleton.specs:
        if spec.kind in TERM_KINDS:
            terms.append(spec.value)
        elif spec.kind == "budget":
            ctx.budget_limit = spec.value
        elif spec.kind == "transport_type":
            if spec.value in INTERCITY_TYPES:
                ctx.required_intercity_kind = spec.value
            else:
                ctx.required_innercity_mode = spec.value
        elif spec.kind == "rooms":
            ctx.required_rooms = spec.value
            ctx.required_room_type = spec.extra["room_type"]
        else:
            raise InputError(f"constraint kind {spec.kind!r} has no search context")
    ctx.required_terms = tuple(terms)
    return ctx


def certify(
    skeleton: QuerySkeleton,
    dataset: Dataset,
    cfg: SearchConfig,
    uid: str = "q0",
    ranker=None,
) -> CertifiedQuery | None:
    """CertifiedQuery with a double-checked witness, or None (rejection)."""
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
