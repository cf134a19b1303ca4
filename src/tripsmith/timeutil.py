"""Clock-time helpers.

All schedule arithmetic runs on whole minutes since midnight; "HH:MM" strings
are only a wire format. Overnight spans are not representable on purpose.
"""

from __future__ import annotations

import functools
import re

from .errors import InputError

_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})$")


def to_minutes(text: str) -> int:
    """Parse "HH:MM" into minutes since midnight."""
    if not isinstance(text, str):
        raise InputError(f"invalid clock time: {text!r}")
    return _parse_clock(text)


# A day has 1,440 clock times; the bound also covers padded spellings. Only
# ints are cached (a failed parse raises and stores nothing), so no caller can
# alter a cached value.
@functools.lru_cache(maxsize=4096)
def _parse_clock(text: str) -> int:
    m = _TIME_RE.match(text.strip())
    if not m:
        raise InputError(f"invalid clock time: {text!r}")
    hours, minutes = int(m.group(1)), int(m.group(2))
    if hours > 23 or minutes > 59:
        raise InputError(f"clock time out of range: {text!r}")
    return hours * 60 + minutes


def to_hhmm(minutes: int) -> str:
    """Format minutes since midnight as zero-padded "HH:MM"."""
    if not 0 <= minutes <= 24 * 60 - 1:
        raise InputError(f"minutes out of range: {minutes}")
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def is_hhmm(text) -> bool:
    try:
        to_minutes(text)
    except InputError:
        return False
    return True
