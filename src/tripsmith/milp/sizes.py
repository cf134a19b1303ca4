"""Closed-form variable and constraint counts.

These formulas are the executable size contract: for any parameters,
`count_sizes(params)` must equal the rows `write_lp` writes, category by
category (it refuses a model that differs). Query-specific rows (a budget
bound) sit outside the structural contract, and `write_lp` counts them as
"query".
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import MilpParams

VAR_CATEGORIES = (
    "u", "delta", "event", "hotel", "zhotel", "attr", "zattr",
    "rest", "zrest", "y", "needeat", "intergo", "interback",
)
ROW_CATEGORIES = (
    "occupancy", "hotel", "attraction", "restaurant",
    "meal", "urban", "transit", "intercity",
)
# The most variables a model may have. A build holds its variables' names but
# no row: peak RSS grows by about 0.16 KB per variable (a 549,684-variable
# model peaked at 108 MiB), so a model at the bound needs about 175 MiB.
MAX_VARIABLES = 1_000_000


@dataclass(frozen=True)
class SizeReport:
    variables: dict[str, int]
    constraints: dict[str, int]

    @property
    def variable_total(self) -> int:
        return sum(self.variables.values())

    @property
    def constraint_total(self) -> int:
        return sum(self.constraints.values())

    def as_dict(self) -> dict:
        return {
            "variables": {k: self.variables[k] for k in VAR_CATEGORIES},
            "variable_total": self.variable_total,
            "constraints": {k: self.constraints[k] for k in ROW_CATEGORIES},
            "constraint_total": self.constraint_total,
        }


def count_sizes(params: MilpParams) -> SizeReport:
    H, A, R = params.hotel_num, params.attr_num, params.rest_num
    L, K = params.total_num, params.trans_num
    G, B = params.go_num, params.back_num
    T, D = params.time_step, params.days
    N = L + K   # positions incl. in-transit pseudo-locations

    variables = {
        "u": N * T,
        "delta": N * (T - 1),
        "event": T,
        "hotel": H * D,
        "zhotel": H * T,
        "attr": A,
        "zattr": A * T,
        "rest": 3 * R * D,
        "zrest": R * T,
        "y": L * L * K * T,
        "needeat": 3 * D,
        "intergo": G,
        "interback": B,
    }
    constraints = {
        "occupancy": 4 * N * (T - 1) + (T - 1) + T,
        "hotel": 3 * H * T + H * D + (D if H else 0),
        "attraction": (4 * A * T + A + 1) if A else 0,
        "restaurant": (4 * R * T + 3 * R * D + 3 * D) if R else 0,
        "meal": 6 * D,
        "urban": 7 * L * L * K * T + 4 * L * T,
        "transit": 2 * L * K * T,
        "intercity": (G * T + G + 1 if G else 0) + (B * T + B + 1 if B else 0),
    }
    return SizeReport(variables=variables, constraints=constraints)
