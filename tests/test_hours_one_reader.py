"""A POI's opening hours have one reader of their text.

The sandbox loader parses each `opentime` and `endtime` cell once and keeps the
minutes (`CityDatabase.open_minutes` / `close_minutes`); the planner, the env
check and the MILP read those ints. A module that named either column again
could parse a second, disagreeing copy of the hours, so no module of
`src/tripsmith` but the loader names them, in code or in prose.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tripsmith"
LOADER = PACKAGE / "sandbox" / "database.py"
COLUMN = re.compile(r"\b(opentime|endtime)\b", re.IGNORECASE)


def test_only_the_loader_names_the_hours_columns():
    named = sorted(f"{path.relative_to(PACKAGE)}:{number}"
                   for path in PACKAGE.rglob("*.py") if path != LOADER
                   for number, line in enumerate(path.read_text(encoding="utf-8")
                                                 .splitlines(), 1)
                   if COLUMN.search(line))
    assert not named, "the hours columns are named outside the loader: " + ", ".join(named)
