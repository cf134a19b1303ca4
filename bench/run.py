"""tripsmith benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload certify-synth --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Builds the synthetic city set (bench/synth.py) in a work directory under
bench/_work, sets the workload up untimed from `--seed`, then serves its
items for `--seconds` seconds in this one process. Every run uses the same
city set, CITY_SEED; `--seed` draws the skeletons and queries the workload
serves: the search nodes that 48 certified queries need have a quartile
spread of 0.22 over ten city seeds, and of 0.09 over ten query seeds on one
city set.

The gated throughput, `ref_items_per_s`, and `setup_s` are scaled to a
reference machine speed measured beside the work (bench/speed.py), because
the machine's own speed drifts by up to 2x between runs; `items_per_s` and
`setup_raw_s` are the same figures as measured.

Every item's outputs are digested and checked. The report prints every
end-to-end metric with its unit and sample count, then a run record, and the
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json. With
--trace 1 the run serves a fixed number of items (the workload's
`trace_items`, so per-layer counts are exact and comparable between runs of
one seed) untraced, then the same items again with every layer boundary
wrapped (bench/tracing.py). It checks that both passes produced identical
outputs and reports per-layer metrics and the tracing overhead. Spans are
written to bench/_out/.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the run could not start (bad arguments, no tripsmith sources).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
from tracing import ITEM_SPAN, LAYERS, SPAN_NAMES, Tracer, self_times

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
SETUP_REPEATS = 7
CITY_SEED = 0
DIGEST_ITEMS = 16
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Fresh interpreter, timer started after interpreter start-up: import the
# package (the CLI pulls in every subpackage) and load the data root. Then
# time the speed reference in the same process, right after, to scale by.
_SETUP_PROBE = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tripsmith.cli
from tripsmith.sandbox import load_dataset
load_dataset(sys.argv[2])
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import speed
print(repr(setup), repr(statistics.median(speed.reference_seconds() for _ in range(5))))
"""


def setup_seconds(root: Path) -> list[tuple[float, float]]:
    """(import + load_dataset time, speed reference time), one per fresh interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(root),
                               str(BENCH)],
                              capture_output=True, text=True, check=True, timeout=60)
        setup, ref = done.stdout.strip().splitlines()[-1].split()
        out.append((float(setup), float(ref)))
    return out


def tree_digest(root: Path) -> str:
    """Digest of every file under root, names included (the run's input digest)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit_id() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_items(workload, tracer=None, seconds=None, count=None, start=0, refs=None):
    """Serve items from `start` until `seconds` of wall time or `count` items.

    With `refs`, the speed reference work is timed before every item and its
    times are appended to `refs`.
    """
    items = []
    deadline = perf_counter() + (seconds or 0.0)
    index = start
    while (count is not None and len(items) < count) or \
            (count is None and perf_counter() < deadline):
        if refs is not None:
            refs.append(speed.reference_seconds())
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    result = workload.work(index)
                else:
                    tracer.current_item = index
                    tracer.enabled = True
                    try:
                        result = tracer.span(ITEM_SPAN, workload.work, (index,))
                    finally:
                        tracer.enabled = False
            seconds_taken = perf_counter() - t0
            items.append(workload.finish(index, seconds_taken, result))
        except Exception as exc:       # one bad item must not abort the run
            from workloads import Item

            traceback.print_exc(file=sys.stderr)
            items.append(Item(index, perf_counter() - t0, error=type(exc).__name__,
                              units=getattr(workload, "count", 1)))
        index += 1
    return items


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]):
    """(percentile, value, samples beyond): the highest listed percentile with
    at least ten samples beyond it, or None when there are too few samples."""
    for pct in TAIL_PERCENTILES:
        beyond = len(values) - max(1, math.ceil(pct / 100 * len(values)))
        if beyond >= 10:
            return pct, percentile(values, pct), beyond
    return None


def consistency_problems(items) -> list[str]:
    """Items with the same input key must have produced identical outputs."""
    first: dict[int, str] = {}
    bad = []
    for item in items:
        if item.failed:
            continue
        seen = first.setdefault(item.key, item.digest)
        if seen != item.digest:
            bad.append(f"input {item.key}: outputs differ between repeats")
    return bad


def output_digest(items) -> tuple[str, int]:
    """Digest of the outputs of the first DIGEST_ITEMS inputs, and how many it covers."""
    by_key = {}
    for item in items:
        if not item.failed and item.key < DIGEST_ITEMS:
            by_key.setdefault(item.key, item.digest)
    h = hashlib.sha256("".join(by_key[k] for k in sorted(by_key)).encode())
    return h.hexdigest(), len(by_key)


def typical_per_input(items) -> dict[int, "Item"]:
    """For each input key, a successful item carrying the median time of its repeats.

    Inputs repeat within a run, and a repeat's outputs are checked identical,
    so the median over repeats is the cost of the work at the machine's usual
    speed during the run, which bench/speed.py measures. The best time instead
    depends on whether the run happened to get a quiet moment on the machine,
    which varies far more from run to run.
    """
    times: dict[int, list[float]] = {}
    first = {}
    for item in items:
        if not item.failed:
            times.setdefault(item.key, []).append(item.seconds)
            first.setdefault(item.key, item)
    return {key: dataclasses.replace(first[key], seconds=statistics.median(seconds))
            for key, seconds in times.items()}


def end_to_end(name: str, items, setup: list[tuple[float, float]],
               refs: list[float]) -> dict[str, tuple]:
    """metric -> (value, unit, samples, note); only metrics with a meaning here.

    `ref_items_per_s` and `setup_s` are scaled to the reference machine speed
    (bench/speed.py), the first by the reference times taken between items,
    each set-up time by those taken in its own process; every other time is
    as measured.
    """
    typical = list(typical_per_input(items).values())
    attempted = sum(i.units for i in items)
    failed = sum(i.units for i in items if i.failed)
    busy = sum(i.seconds for i in typical)
    units = sum(i.units for i in typical)
    reps = len(items) / len(typical) if typical else 0.0
    scale = speed.factor(refs)
    items_per_s = units / busy if busy else 0.0
    m = {
        "setup_s": (statistics.median(t * speed.factor([ref]) for t, ref in setup), "s",
                    len(setup), "import + load_dataset, median, at reference speed"),
        "ref_items_per_s": (items_per_s / scale, "1/s", units,
                            "items_per_s at reference speed"),
        "items_per_s": (items_per_s, "1/s", units,
                        f"median time per input, {len(typical)} inputs x {reps:.1f} runs"),
        "setup_raw_s": (statistics.median(t for t, _ in setup), "s", len(setup),
                        "as measured"),
        "speed.ref_ms": (statistics.median(refs) * 1000, "ms", len(refs),
                         f"reference work, median; nominal {speed.NOMINAL_S * 1000:g} ms"),
        "item_ms_p50": (statistics.median(i.seconds / i.units * 1000 for i in typical)
                        if typical else 0.0, "ms", len(typical),
                        "median input, median time per unit"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1,
                        "this process, one workload"),
        "fail_ratio": (failed / attempted if attempted else 0.0, "ratio", attempted,
                       f"{failed} failed"),
    }
    if name == "certify-synth":
        acc = [i.seconds * 1000 for i in typical if i.outcome == "accepted"]
        rej = [i.seconds * 1000 for i in typical if i.outcome.startswith("rejected")]
        rej_all = [i.seconds * 1000 for i in items
                   if not i.failed and i.outcome.startswith("rejected")]
        capped = sum(1 for i in typical if i.outcome == "rejected_cap")
        m["expansions_per_s"] = (sum(i.expansions for i in typical) / busy if busy else 0.0,
                                 "1/s", sum(i.expansions for i in typical), "ranker calls")
        m["accept_ms_p50"] = (statistics.median(acc) if acc else 0.0, "ms", len(acc), "")
        m["reject_ms_p50"] = (statistics.median(rej) if rej else 0.0, "ms", len(rej),
                              f"{capped} at the node cap, {len(rej) - capped} exhaustive")
        t = tail(rej_all)
        m["reject_ms_tail"] = ((t[1], "ms", len(rej_all),
                                f"p{t[0]:g} of all runs, {t[2]} samples beyond")
                               if t else (0.0, "ms", len(rej_all), "too few rejections"))
        m["accept_ratio"] = (len(acc) / len(typical) if typical else 0.0, "ratio",
                             len(typical), f"{len(acc)}/{len(typical)}")
    if name == "pipeline-synth":
        plan_s = {}
        for i in items:
            if not i.failed:
                plan_s.setdefault(i.key, []).append(i.plan_s)
        plan_busy = sum(statistics.median(times) for times in plan_s.values())
        nodes = sum(i.expansions for i in typical)
        m["expansions_per_s"] = (nodes / plan_busy if plan_busy else 0.0, "1/s", nodes,
                                 "nodes_expanded / median plan wall time per input")
    return m


def per_layer(tracer, untraced, traced) -> dict[str, tuple]:
    """metric -> (value, unit, note) from the traced items.

    `.self_pct` is a share of all self time the spans recorded. Under
    `plan --jobs 2` two threads are busy at once, so it is a share of thread
    time, not of wall time.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    total_self = sum(s for _, s in selfs.values()) or 1.0
    names = {sid: name for sid, name, *_ in spans}
    leaves = sum(1 for _, name, _, _, parent in spans
                 if name == "evaluation.validate_env" and names.get(parent) == "search.dfs_search")
    out = {}

    def pct(seconds):
        return 100.0 * seconds / total_self

    for name in SPAN_NAMES:
        calls, self_s = selfs.get(name, (0, 0.0))
        if name not in tracer.installed:
            note = "absent: no such function to wrap"
        else:
            note = f"{self_s * 1000:.1f} ms self" if calls else "not called"
        out[f"{name}.calls"] = (calls, "count", note)
        out[f"{name}.self_pct"] = (pct(self_s), "%", note)
    schedule = [selfs.get(n, (0, 0.0)) for n in SPAN_NAMES if n.startswith("search.schedule_")]
    attempts = sum(c for c, _ in schedule)
    c = tracer.counters
    out["search.schedule.attempts"] = (attempts, "count", "the four schedule_* helpers")
    out["search.schedule.self_pct"] = (pct(sum(s for _, s in schedule)), "%", "")
    out["search.schedule_accept_ratio"] = (
        c.get("search.schedule.accepted", 0) / attempts if attempts else 0.0, "ratio",
        f"{c.get('search.schedule.accepted', 0)}/{attempts}")
    out["search.expansions"] = (selfs.get("search.rank", (0, 0))[0], "count", "ranker calls")
    out["search.leaves"] = (leaves, "count", "env checks inside dfs_search")
    env_calls = selfs.get("evaluation.validate_env", (0, 0))[0]
    out["evaluation.env_pass_ratio"] = (
        c.get("evaluation.env_pass", 0) / env_calls if env_calls else 0.0, "ratio",
        f"{c.get('evaluation.env_pass', 0)}/{env_calls}")
    for key in ("milp.rows", "milp.variables", "milp.lp_bytes"):
        out[key] = (c.get(key, 0), "count", "")
    for layer in LAYERS + ("bench",):
        layer_self = sum(s for n, (_, s) in selfs.items() if n.split(".", 1)[0] == layer)
        out[f"{layer}.self_pct"] = (pct(layer_self), "%",
                                    f"{layer_self * 1000:.1f} ms self")
    untraced_s = sum(i.seconds for i in untraced)
    traced_s = sum(i.seconds for i in traced)
    out["trace.overhead_ratio"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio",
                                   f"{traced_s:.3f} s traced / {untraced_s:.3f} s untraced, "
                                   f"{len(traced)} items")
    return out


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tripsmith benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tripsmith" / "__init__.py").is_file():
        print(f"error: no tripsmith sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import synth
    from workloads import WORKLOADS

    if args.workload == "all":
        # one process per workload, so each peak_rss_mb covers one workload
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected 'all' or one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    # let the work directory be removed when the run is terminated
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    repeat = []
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        root = synth.generate(work / "cities", CITY_SEED)
        setup = setup_seconds(root) if not args.trace else []
        workload = WORKLOADS[args.workload](root, work, args.seed)
        # the city set plus the skeletons or benchmark files the set-up wrote
        input_digest = tree_digest(work)
        if args.trace:
            # untraced and traced passes alternate item by item, so drift in
            # machine speed hits both alike
            untraced, traced = [], []
            tracer = Tracer()
            for index in range(workload.trace_items):
                untraced += run_items(workload, count=1, start=index)
                with tracer:
                    traced += run_items(workload, tracer=tracer, count=1, start=index)
            items = untraced + traced
            metrics = per_layer(tracer, untraced, traced)
            tracer.write(BENCH / "_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        else:
            refs = []
            items = run_items(workload, seconds=args.seconds, refs=refs)
            metrics = end_to_end(args.workload, items, setup, refs)
            if len({i.key for i in items}) == len(items):
                # no input repeated: serve the first one again to check determinism
                repeat = run_items(workload, count=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = untraced if args.trace else items
    problems = [p for i in items for p in i.problems]
    problems += consistency_problems(items + repeat)
    out_digest, out_items = output_digest(items)
    failures = Counter(i.error for i in items if i.failed)
    attempted = sum(i.units for i in timed)
    failed = sum(i.units for i in timed if i.failed)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"{'metric':<34} {'value':>14}  {'unit':<6} {'n':>7}  note")
    for key, (value, unit, *rest) in metrics.items():
        n, note = (rest if len(rest) == 2 else ("", rest[0]))
        print(f"{key:<34} {value:>14.6g}  {unit:<6} {n!s:>7}  {note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "city_seed": CITY_SEED, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_id(), "input_digest": input_digest,
        "output_digest": out_digest, "output_digest_items": out_items,
        "failures": dict(failures), "setup_failures": dict(workload.setup_failures),
        "checks_failed": len(problems),
        "samples": {k: v[2] for k, v in metrics.items() if len(v) == 4},
    }
    print("record " + json.dumps(record, sort_keys=True))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
