"""Machine speed reference for the benchmark.

On the shared 2-vCPU machines this benchmark runs on, neighbours slow the
same pure-Python work down by up to 2x in sub-second bursts, in user time as
much as in wall time, and the share of time under such bursts changes from
minute to minute, so a run's throughput depends on when it ran. Fixed
pure-Python reference work, timed before every item, measures the machine's
speed beside the work; it mixes interpreter-bound steps with scattered reads
over a working set of several MB, because neighbours slow the two down by
different amounts. Scaling a run's times by NOMINAL_S / (the reference's
median time in that run) gives its times at a fixed reference speed; the raw
times are reported next to them. The scaling removes most, not all, of the
drift: neighbours do not slow every workload exactly as they slow the
reference.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The reference's time on an unloaded 2-vCPU x86-64 VM, rounded; it only sets
# the scale of the scaled figures.
NOMINAL_S = 0.0075
LOOP_STEPS = 20_000
LOOKUPS = 5_000
ROWS = 30_000

_rows: list[dict] = []
_order: list[int] = []


def _loop(steps: int) -> int:
    # dict updates, int arithmetic and small string allocations
    table: dict[int, int] = {}
    total = 0
    for i in range(steps):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


def _lookups(order: list[int]) -> int:
    # scattered reads over about 9 MB of small dicts (it adds that much to
    # every run's peak_rss_mb): memory-bound work next to the interpreter-
    # bound loop above, so that neighbours taking the shared caches count too
    total = 0
    for j in order:
        row = _rows[j]
        total += row["id"] + len(row["name"])
    return total


def reference_seconds() -> float:
    """Wall time of one run of the reference work."""
    if not _rows:
        _rows.extend({"id": i, "name": f"row {i}", "price": float(i)} for i in range(ROWS))
        _order.extend((i * 7919) % ROWS for i in range(LOOKUPS))
    t0 = perf_counter()
    _loop(LOOP_STEPS)
    _lookups(_order)
    return perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Scale from measured seconds to seconds at the reference speed."""
    return NOMINAL_S / statistics.median(samples)
