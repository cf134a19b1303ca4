"""CPLEX-LP-format emission.

The file layout is fully deterministic - objective, constraint rows in build
order, bounds for the integer counters, then Binaries/Generals sections - so
emitting the same model twice yields identical bytes.

The writer is the builder's one row sink, and every row reaches it as LP text:
`extend` takes a family's texts (see build.py), whose names the builder has
checked, holds them in joined batches of about `CHUNK_CHARS` characters, and
counts their rows. Lines are written to the file in chunks of about that
size, so no row is held. Files are written beside their path and moved onto
it when complete, so a failure leaves no truncated file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

from ..errors import BuildError, InputError
from .build import _Builder, _row_text
from .params import MilpSlice
from .sizes import count_sizes

CHUNK_CHARS = 1 << 18   # characters of row text held before a write


class _LpWriter:
    """A row sink that writes the header on creation and the variable sections on `finish`."""

    def __init__(self, write, variables: dict, objective, name: str):
        self.write = write
        self.variables = variables
        self.counts: dict[str, int] = {}
        obj = _row_text("obj", objective) if objective else " obj: 0\n"
        self.lines = [f"\\ Problem: {name}\n", "Minimize\n", obj, "Subject To\n"]
        self.held = 0       # characters of rows in `lines`

    def extend(self, category: str, size: int, texts) -> None:
        """Write each of `texts`, `size` rows of `category` apiece.

        The texts are held in joined batches of about CHUNK_CHARS characters,
        as many texts as the first one fits."""
        texts = iter(texts)
        first = next(texts, None)
        if first is None:
            return
        batch = max(1, CHUNK_CHARS // len(first))
        texts = chain([first], texts)
        n = 0
        while chunk := list(islice(texts, batch)):
            self.hold("".join(chunk))
            n += len(chunk)
        self.counts[category] = self.counts.get(category, 0) + n * size

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
