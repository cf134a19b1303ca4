"""Scoring pipeline: environmental rules, pass-rate metrics, preferences."""

from decimal import Decimal

from ..dsl import run_constraint
from ..plan.model import Plan
from ..sandbox import Dataset
from .env_rules import (
    ENV_RULE_COUNT,
    MEAL_WINDOWS,
    RULE_IDS,
    EnvReport,
    all_false_report,
    validate_env,
)
from .metrics import METRIC_KEYS, EvalReport, MetricSummary, score
from .preference import (
    MAXIMIZE,
    MINIMIZE,
    aggregate_rankings,
    preference_ranking,
    preference_value,
)


def evaluate_plan(
    plan: Plan | None,
    constraint_sources: list[str],
    dataset: Dataset,
    preference_sources: dict[str, str] | None = None,
    notes: str = "",
) -> EvalReport:
    """Full per-plan evaluation against the sandbox; `plan=None` means it was not delivered."""
    if plan is None:
        return EvalReport.undelivered(len(constraint_sources), notes=notes or "no plan")
    env = validate_env(plan, dataset)
    logical = [run_constraint(src, plan, dataset).passed for src in constraint_sources]
    preferences = {}
    for name, source in sorted((preference_sources or {}).items()):
        preferences[name] = preference_value(plan, source, dataset)
    return EvalReport(
        delivered=True,
        env=env,
        logical=logical,
        preference_values=preferences,
        notes=notes,
    )


__all__ = [
    "ENV_RULE_COUNT",
    "METRIC_KEYS",
    "MAXIMIZE",
    "MEAL_WINDOWS",
    "MINIMIZE",
    "RULE_IDS",
    "EnvReport",
    "EvalReport",
    "MetricSummary",
    "aggregate_rankings",
    "all_false_report",
    "evaluate_plan",
    "preference_ranking",
    "preference_value",
    "score",
    "validate_env",
]
