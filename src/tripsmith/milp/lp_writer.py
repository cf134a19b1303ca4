"""CPLEX-LP-format emission.

The file layout is fully deterministic - objective, constraint rows in build
order, bounds for the integer counters, then Binaries/Generals sections - so
emitting the same model twice yields identical bytes.

`emit_lp` streams the lines into the open file instead of building the whole
text first, and `render_lp` joins the same lines into one string. Within one
file each int coefficient's leading and following prefix ("-1 ", " + 2 ")
is spelled once; any other coefficient (a Decimal price, a bool) is spelled
on every use, because `Decimal("1.0")` and `True` equal 1 and hash alike, so
a cache keyed by value would write them as "1".
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path

from ..errors import TripsmithError
from .build import MilpModel

_SENSE = {"<=": "<=", ">=": ">=", "=": "="}


def _coef(value) -> str:
    if isinstance(value, Decimal):
        text = format(value, "f")
    else:
        text = str(value)
    return text


def _prefixes(coef) -> tuple[str, str]:
    """The text before a variable with a nonzero `coef`: first in its row, and after it."""
    if coef < 0:
        text = _coef(-coef)
        return f"-{text} ", f" - {text} "
    text = _coef(coef)
    return f"{text} ", f" + {text} "


class _TermWriter:
    """Spells term lists; int prefixes are cached for the life of one file."""

    def __init__(self):
        self.lead: dict[int, str] = {}
        self.follow: dict[int, str] = {}

    def __call__(self, terms) -> str:
        lead, follow = self.lead, self.follow
        parts = []
        prefixes = lead
        for coef, var in terms:
            if type(coef) is int and coef:
                try:
                    parts.append(prefixes[coef] + var)
                except KeyError:
                    lead[coef], follow[coef] = _prefixes(coef)
                    parts.append(prefixes[coef] + var)
            elif coef == 0:
                continue
            else:
                lead_text, follow_text = _prefixes(coef)
                parts.append((follow_text if parts else lead_text) + var)
            prefixes = follow
        if not parts:
            return "0 " + (terms[0][1] if terms else "zero")
        return "".join(parts)


def _lines(model: MilpModel, name: str):
    """Every line of the LP text, each ending in a newline."""
    terms = _TermWriter()
    yield f"\\ Problem: {name}\n"
    yield "Minimize\n"
    yield f" obj: {terms(model.objective)}\n" if model.objective else " obj: 0\n"
    yield "Subject To\n"
    for row_name, row_terms, sense, rhs, _ in model.rows:
        yield f" {row_name}: {terms(row_terms)} {_SENSE[sense]} {_coef(rhs)}\n"
    integers = [info for info in model.variables.values() if info.kind == "integer"]
    if integers:
        yield "Bounds\n"
        for info in integers:
            yield f" {info.lo} <= {info.name} <= {info.hi}\n"
    binaries = [info.name for info in model.variables.values() if info.kind == "binary"]
    if binaries:
        yield "Binaries\n"
        yield from _name_lines(binaries)
    if integers:
        yield "Generals\n"
        yield from _name_lines([info.name for info in integers])
    yield "End\n"


def _name_lines(names: list[str]):
    for start in range(0, len(names), 8):
        yield " " + " ".join(names[start:start + 8]) + "\n"


def render_lp(model: MilpModel, name: str = "itinerary") -> str:
    return "".join(_lines(model, name))


def emit_lp(model: MilpModel, path: Path | str, name: str = "itinerary") -> Path:
    """Stream the model to `path`; byte-stable across runs."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_lines(model, name))
    except OSError as exc:
        raise TripsmithError(f"cannot write LP file {path}: {exc}") from None
    return path
