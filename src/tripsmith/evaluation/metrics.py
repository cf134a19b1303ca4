"""Pass-rate metrics over batches of evaluated plans.

All seven metrics are computed with exact rational arithmetic (fractions) so
that results are platform-independent and reproducible bit for bit:

    DR         = delivered plans / all plans
    EPR micro  = passed env rules / (plans x 25)
    EPR macro  = plans passing all env rules / plans
    LPR micro  = passed logical constraints / total logical constraints
    LPR macro  = plans passing all their logical constraints / plans
    C-LPR      = logical passes counted only for env-passing plans,
                 over total logical constraints
    FPR        = plans passing everything / plans

An undelivered plan contributes zeros everywhere but keeps its |C_p|
constraints in the micro/C-LPR denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from ..errors import InputError
from .env_rules import ENV_RULE_COUNT, EnvReport, all_false_report

METRIC_KEYS = ("dr", "epr_micro", "epr_macro", "lpr_micro", "lpr_macro", "c_lpr", "fpr")

_TABLE_HEADERS = ("DR", "EPR Mic.", "EPR Mac.", "LPR Mic.", "LPR Mac.", "C-LPR", "FPR")


@dataclass
class EvalReport:
    """Everything the metrics need to know about one plan."""

    delivered: bool
    env: EnvReport
    logical: list[bool]
    preference_values: dict[str, Decimal] = field(default_factory=dict)
    notes: str = ""

    @classmethod
    def undelivered(cls, constraint_count: int, notes: str = "") -> "EvalReport":
        return cls(
            delivered=False,
            env=all_false_report(),
            logical=[False] * constraint_count,
            notes=notes,
        )

    def as_dict(self) -> dict:
        return {
            "delivered": self.delivered,
            "env": self.env.as_dict(),
            "logical": list(self.logical),
            "preference_values": {
                key: str(self.preference_values[key])
                for key in sorted(self.preference_values)
            },
            "notes": self.notes,
        }


@dataclass(frozen=True)
class MetricSummary:
    dr: Fraction
    epr_micro: Fraction
    epr_macro: Fraction
    lpr_micro: Fraction
    lpr_macro: Fraction
    c_lpr: Fraction
    fpr: Fraction

    def as_dict(self) -> dict:
        out = {}
        for key in METRIC_KEYS:
            value: Fraction = getattr(self, key)
            out[key] = {
                "exact": f"{value.numerator}/{value.denominator}",
                "percent": round(float(value) * 100, 2),
            }
        return out

    def table(self) -> str:
        """Aligned two-line summary, percentages with one decimal."""
        cells = [f"{float(getattr(self, key)) * 100:.1f}" for key in METRIC_KEYS]
        widths = [max(len(h), len(c)) for h, c in zip(_TABLE_HEADERS, cells)]
        head = "  ".join(h.rjust(w) for h, w in zip(_TABLE_HEADERS, widths))
        row = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        return head + "\n" + row


def score(reports: list[EvalReport]) -> MetricSummary:
    """Aggregate one metric summary from per-plan reports."""
    if not reports:
        raise InputError("metrics are undefined for an empty report set")
    total = len(reports)
    constraint_total = sum(len(r.logical) for r in reports)
    if constraint_total == 0:
        raise InputError("metrics are undefined when no plan has logical constraints")

    delivered = sum(1 for r in reports if r.delivered)
    env_entry_passes = sum(sum(1 for ok in r.env.results.values() if ok) for r in reports)
    env_all = sum(1 for r in reports if r.env.overall)
    logical_passes = sum(sum(1 for ok in r.logical if ok) for r in reports)
    logical_all = sum(1 for r in reports if r.delivered and all(r.logical))
    conditional = sum(sum(1 for ok in r.logical if ok) for r in reports if r.env.overall)
    final = sum(1 for r in reports if r.env.overall and all(r.logical))

    return MetricSummary(
        dr=Fraction(delivered, total),
        epr_micro=Fraction(env_entry_passes, total * ENV_RULE_COUNT),
        epr_macro=Fraction(env_all, total),
        lpr_micro=Fraction(logical_passes, constraint_total),
        lpr_macro=Fraction(logical_all, total),
        c_lpr=Fraction(conditional, constraint_total),
        fpr=Fraction(final, total),
    )
