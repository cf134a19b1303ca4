"""Minimal independent reader for the emitted LP dialect (test-only), and
the model that `micro_solve` takes, read back from a written file."""

from __future__ import annotations

import re
import tempfile
from decimal import Decimal
from pathlib import Path

from tripsmith.milp import MilpModel, write_lp
from tripsmith.milp.build import _Builder

_TERM = re.compile(r"([+-])\s*([\d.]+)\s+([A-Za-z_][A-Za-z0-9_]*)")


def parse_lp(text: str) -> dict:
    """Sections of one LP file: objective terms, rows, bounds, binaries, generals."""
    section = None
    objective: list = []
    rows: dict[str, tuple] = {}
    binaries: list[str] = []
    generals: list[str] = []
    bounds: list[str] = []

    def parse_terms(expr: str):
        expr = expr.strip()
        if not expr.startswith(("+", "-")):
            expr = "+ " + expr
        return [(Decimal(mag) * (1 if sign == "+" else -1), var)
                for sign, mag, var in _TERM.findall(expr)]

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.strip().lower()
        if lowered in ("minimize", "maximize"):
            section = "objective"
            continue
        if lowered == "subject to":
            section = "rows"
            continue
        if lowered in ("bounds", "binaries", "generals", "end"):
            section = lowered
            continue
        body = line.strip()
        if section == "objective":
            _, _, expr = body.partition(":")
            if expr.strip() != "0":
                objective.extend(parse_terms(expr))
        elif section == "rows":
            name, _, rest = body.partition(":")
            match = re.search(r"(<=|>=|=)\s*([-\d.]+)$", rest.strip())
            sense, rhs = match.group(1), Decimal(match.group(2))
            rows[name.strip()] = (tuple(sorted(parse_terms(rest[: match.start()]))),
                                  sense, rhs)
        elif section == "bounds":
            bounds.append(body)
        elif section == "binaries":
            binaries.extend(body.split())
        elif section == "generals":
            generals.extend(body.split())
    return {
        "objective": sorted(objective),
        "rows": rows,
        "bounds": bounds,
        "binaries": sorted(binaries),
        "generals": sorted(generals),
    }


# a row's category, by the first part of its name
_CATEGORIES = {"occ": "occupancy", "hot": "hotel", "att": "attraction", "res": "restaurant",
               "meal": "meal", "urb": "urban", "trn": "transit", "int": "intercity",
               "qry": "query"}


def _int_if_integral(value: Decimal):
    return int(value) if value == value.to_integral_value() else value


def read_model(db_slice, budget=None) -> MilpModel:
    """The model `write_lp` writes for `db_slice`, as a solver reads its file:
    rows in file order, each term's and right side's integral value as an int,
    and the variables as the builder declares them, in its order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lp"
        write_lp(db_slice, budget, path)
        parsed = parse_lp(path.read_text())
    rows = [(name, tuple((_int_if_integral(coef), var) for coef, var in terms), sense,
             _int_if_integral(rhs), _CATEGORIES[name.split("_")[0]])
            for name, (terms, sense, rhs) in parsed["rows"].items()]
    objective = tuple((_int_if_integral(coef), var) for coef, var in parsed["objective"])
    return MilpModel(_Builder(db_slice, budget).vars, rows, objective)
