"""CPLEX-LP-format emission.

The file layout is fully deterministic - objective, constraint rows in build
order, bounds for the integer counters, then Binaries/Generals sections - so
emitting the same model twice yields identical bytes.

The writer is the builder's one row sink, and lines are written to the file
in joined chunks of about `CHUNK_CHARS` characters, so no row is held. A row
passed to `append` is spelled, checked and counted as it is made; the rows of
a shaped family come to `extend_shape` as the text of their `_Shape` (see
build.py), already checked by the builder. Their texts are joined in batches
of about `CHUNK_CHARS` characters before they are held, and counted per
instance.

In `append`, each int coefficient's prefixes ("-1 ", " + 2 ") and int
right-hand side's tail (" <= 0") are spelled once per file; any other value
is spelled on every use, because `Decimal("1.0")` and `True` equal 1 and hash
alike, so a cache keyed by value would write them as "1". Files are written
beside their path and moved onto it when complete, so a failure leaves no
truncated file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from decimal import Decimal
from itertools import chain, islice, starmap
from pathlib import Path

from ..errors import BuildError, InputError
from .build import _Builder
from .params import MilpSlice
from .sizes import count_sizes

CHUNK_CHARS = 1 << 18   # characters of row text held before a write


def _number(value) -> str:
    return format(value, "f") if isinstance(value, Decimal) else str(value)


def _prefixes(coef) -> tuple[str, str]:
    """The text before a variable with a nonzero `coef`: first in its row, and after it."""
    if coef < 0:
        text = _number(-coef)
        return f"-{text} ", f" - {text} "
    text = _number(coef)
    return f"{text} ", f" + {text} "


def _objective(terms) -> str:
    nonzero = [(coef, var) for coef, var in terms if coef]
    text = "".join(_prefixes(coef)[k > 0] + var for k, (coef, var) in enumerate(nonzero))
    return text or "0 " + terms[0][1]


class _LpWriter:
    """A row sink that writes the header on creation and the variable sections on `finish`."""

    def __init__(self, write, variables: dict, objective, name: str):
        self.write = write
        self.variables = variables
        self.counts: dict[str, int] = {}
        self.lead, self.follow = {}, {}     # int coefficient -> its prefix
        self.tails: dict[str, dict[int, str]] = {"<=": {}, ">=": {}, "=": {}}
        obj = _objective(objective) if objective else "0"
        self.lines = [f"\\ Problem: {name}\n", "Minimize\n", f" obj: {obj}\n", "Subject To\n"]
        self.held = 0       # characters of rows in `lines`

    def append(self, row: tuple) -> None:
        name, terms, sense, rhs, category = row
        self.counts[category] = self.counts.get(category, 0) + 1
        variables, follow = self.variables, self.follow
        prefixes = self.lead
        text = ""
        for coef, var in terms:
            if var not in variables:
                raise BuildError(f"row {name} references undeclared {var}")
            if type(coef) is int:
                try:
                    prefix = prefixes[coef]
                except KeyError:
                    if not coef:
                        continue
                    self.lead[coef], follow[coef] = _prefixes(coef)
                    prefix = prefixes[coef]
            elif coef:
                prefix = _prefixes(coef)[prefixes is follow]
            else:
                continue
            text += prefix + var
            prefixes = follow
        if type(rhs) is int:
            tails = self.tails[sense]
            tail = tails.get(rhs)
            if tail is None:
                tail = tails[rhs] = f" {sense} {rhs}\n"
        else:
            tail = f" {sense} {_number(rhs)}\n"
        self.hold(f" {name}: {text or '0 ' + (terms[0][1] if terms else 'zero')}{tail}")

    def extend_shape(self, shape, instances) -> None:
        """Write `shape.text` of each instance; the builder has checked their names.

        The texts are held in joined batches of about CHUNK_CHARS characters,
        as many instances as the first instance's text fits."""
        texts = starmap(shape.text, instances)
        first = next(texts, None)
        if first is None:
            return
        batch = max(1, CHUNK_CHARS // len(first))
        texts = chain([first], texts)
        n = 0
        while chunk := list(islice(texts, batch)):
            self.hold("".join(chunk))
            n += len(chunk)
        self.counts[shape.category] = self.counts.get(shape.category, 0) + n * shape.size

    def hold(self, text: str) -> None:
        """Keep `text` for the next write, which comes once CHUNK_CHARS are held."""
        self.lines.append(text)
        self.held += len(text)
        if self.held >= CHUNK_CHARS:
            self.write("".join(self.lines))
            self.lines.clear()
            self.held = 0

    def finish(self) -> None:
        lines, items = self.lines, self.variables.items()
        integers = [(name, info) for name, info in items if info.kind == "integer"]
        if integers:
            lines.append("Bounds\n")
            lines += [f" {info.lo} <= {name} <= {info.hi}\n" for name, info in integers]
        for title, kind in (("Binaries", "binary"), ("Generals", "integer")):
            names = [name for name, info in items if info.kind == kind]
            if names:
                lines.append(f"{title}\n")
                lines += [" " + " ".join(names[k:k + 8]) + "\n" for k in range(0, len(names), 8)]
        lines.append("End\n")
        self.write("".join(lines))


@contextmanager
def _replacing(path: Path):
    """A text file beside `path` that replaces `path` when the block completes."""
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(part, path)
    except OSError as exc:
        raise InputError(f"cannot write LP file {path}: {exc}") from None
    finally:
        part.unlink(missing_ok=True)


def write_lp(db_slice: MilpSlice, budget, path: Path | str,
             name: str = "itinerary") -> dict[str, int]:
    """Write `db_slice`'s model, with a budget row when `budget` is set, to
    `path` as it is built, holding no row list.

    Returns the rows per category: a budget row's is "query", the rest match count_sizes."""
    with _replacing(Path(path)) as fh:
        builder = _Builder(db_slice, budget)
        writer = _LpWriter(fh.write, builder.vars, builder.cost_terms(), name)
        builder.build(writer)
        writer.finish()
        built = {category: n for category, n in writer.counts.items() if category != "query"}
        sizes = count_sizes(builder.p).constraints
        if built != {category: n for category, n in sizes.items() if n}:
            raise BuildError(f"{name}: rows per category {built} differ from count_sizes")
    return writer.counts
