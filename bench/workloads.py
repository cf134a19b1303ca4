"""The three benchmark workloads.

Each workload builds its inputs from the run's seed in an untimed set-up,
then serves items one at a time: `work(index)` is the timed call into
tripsmith, `finish(index, seconds, result)` digests the outputs and checks
them, untimed. Every workload drives the library through public names looked
up at call time (`genquery.certify`, `cli.main`), so the tracer's wrappers
see every call.

    certify-synth   seeded skeletons through `certify` one at a time, the
                    core of `generate`: search and sandbox do almost all the
                    work, and rejections dominate.
    pipeline-synth  `plan --jobs 2` then `eval` over certified benchmark
                    files: short searches, so leaf checks, plan
                    (de)serialisation and dataset loading dominate.
    milp-synth      `milp` on a 1-day and on a 2-day certified query: model
                    build plus LP rendering and writing, no search.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tripsmith import cli, genquery
from tripsmith.errors import TripsmithError
from tripsmith.evaluation import METRIC_KEYS, evaluate_plan
from tripsmith.genquery import EASY, MEDIUM, CertifiedQuery
from tripsmith.manifest import RunManifest, file_header, write_jsonl
from tripsmith.sandbox import load_dataset
from tripsmith.search import FULL_PASS, HeuristicRanker, SearchConfig

# Node cap for certify-synth, in ranker calls. It replaces the wall-clock
# deadline, so a verdict depends only on the skeleton and the city set.
NODE_CAP = 100
# certify-synth cycles through 80 distinct skeletons, so each one is timed
# more than once in a run and its best time filters short bursts of machine
# noise. They are taken by (days, difficulty) in equal numbers: the four
# kinds cost 130-260 ms an item, and a free draw of 80 skeletons moves a
# run's time by a tenth from seed to seed.
CERTIFY_MIX = {(1, EASY): 20, (1, MEDIUM): 20, (2, EASY): 20, (2, MEDIUM): 20}
CERTIFY_SKELETONS = sum(CERTIFY_MIX.values())
# The deadline is only a safety net; an item that reaches it is a failure,
# because its verdict would then depend on machine speed.
BUDGET_SECONDS = 60.0
# Certified queries for pipeline-synth and milp-synth come from searches
# aborted at this many ranker calls (untimed set-up; keeps set-up short).
SETUP_NODE_CAP = 20
SETUP_ATTEMPTS = 4000
# pipeline-synth's 48 queries by (days, difficulty), in about the shares the
# skeleton stream certifies them
PIPELINE_MIX = {(1, EASY): 22, (1, MEDIUM): 8, (2, EASY): 12, (2, MEDIUM): 6}
PIPELINE_QUERIES = sum(PIPELINE_MIX.values())
# pipeline-synth splits its queries over this many benchmark files; each file
# is one input, planned and evaluated by one `plan` + `eval` command pair
PIPELINE_FILES = 4
SEED_STRIDE = 100_000


class NodeCapReached(Exception):
    """Raised by an aborting NodeCappedRanker at its cap."""


class NodeCappedRanker:
    """HeuristicRanker behind a deterministic node cap.

    Once `cap` expansions have been ranked, every later rank() returns [] so
    the search unwinds; with `abort=True` it raises NodeCapReached instead.
    """

    def __init__(self, cap: int, abort: bool = False):
        self.cap = cap
        self.abort = abort
        self.inner = HeuristicRanker()
        self.expansions = 0
        self.refused = 0

    def rank(self, candidates, state, context):
        if self.expansions >= self.cap:
            if self.abort:
                raise NodeCapReached
            self.refused += 1
            return []
        self.expansions += 1
        return self.inner.rank(candidates, state, context)


@dataclass
class Item:
    """One timed unit of work and what its checks found."""

    key: int                    # input identity: equal keys must give equal digests
    seconds: float
    units: int = 1              # skeletons decided, queries planned, models written
    outcome: str = "ok"         # certify-synth: accepted | rejected_cap | rejected_exhaustive
    error: str = ""             # exception class (or exit code) of a failed item
    expansions: int = 0
    digest: str = ""
    plan_s: float = 0.0         # pipeline-synth: the `plan` command's share of `seconds`
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.error)


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _skeleton(dataset, seed: int, index: int):
    """Skeleton `index` of the seed's stream: easy and medium interleaved, and the
    ordered city pairs taken in turn, so every seed has the same mix of both."""
    pairs = list(itertools.permutations(dataset.city_names, 2))
    origin, target = pairs[(index // 2) % len(pairs)]
    return genquery.sample_skeleton(dataset, _difficulty(index), seed * SEED_STRIDE + index,
                                    origin=origin, target=target)


def _difficulty(index: int) -> str:
    return EASY if index % 2 == 0 else MEDIUM


def certified_queries(dataset, seed: int, mix: dict, failures: Counter) -> list:
    """Certified queries from seeded skeletons, in skeleton order (set-up only).

    `mix` maps (days, difficulty) to how many queries of that kind to keep;
    a skeleton of a kind already filled is not certified. Every seed thus
    gets the same mix of trip lengths and difficulties, which sets most of a
    query's search length and evaluation cost.

    A skeleton whose certification raises cannot become a query; it is
    skipped and its exception class counted in `failures`, so a known
    defect (the late-clock `InputError`) shows in the run record instead of
    aborting the set-up.
    """
    cfg = SearchConfig(budget_seconds=BUDGET_SECONDS)
    wanted = dict(mix)
    queries = []
    for attempt in range(SETUP_ATTEMPTS):
        index = SEED_STRIDE // 2 + attempt
        skeleton = _skeleton(dataset, seed, index)
        kind = (skeleton.days, _difficulty(index))
        if not wanted.get(kind):
            continue
        try:
            query = genquery.certify(skeleton, dataset, cfg, uid=f"q{attempt:04d}",
                                     ranker=NodeCappedRanker(SETUP_NODE_CAP, abort=True))
        except NodeCapReached:
            continue
        except TripsmithError as exc:
            failures[type(exc).__name__] += 1
            continue
        if query is not None:
            queries.append(query)
            wanted[kind] -= 1
            if not any(wanted.values()):
                return queries
    raise RuntimeError(f"set-up ran out of skeletons after {SETUP_ATTEMPTS} attempts")


def write_benchmark(path: Path, queries: list[CertifiedQuery], seed: int) -> Path:
    """A benchmark file in the layout `tripsmith generate` writes."""
    manifest = RunManifest(command="generate", inputs={"db": "synth"},
                           config={"node_cap": SETUP_NODE_CAP}, seed=seed)
    header = file_header("benchmark", manifest, count=len(queries), difficulty="mixed")
    write_jsonl(path, header, [query.as_dict() for query in queries])
    return path


class CertifySynth:
    name = "certify-synth"
    trace_items = CERTIFY_SKELETONS

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.setup_failures = Counter()
        self.dataset = load_dataset(root)
        self.cfg = SearchConfig(budget_seconds=BUDGET_SECONDS)
        # Stream positions of the skeletons that fill CERTIFY_MIX. Each item
        # samples its skeleton again, so sample_skeleton stays in the timed
        # work; the copies written here are only for the run's input digest.
        wanted = dict(CERTIFY_MIX)
        self.positions = []
        skeletons = []
        position = 0
        while any(wanted.values()):
            skeleton = _skeleton(self.dataset, seed, position)
            kind = (skeleton.days, _difficulty(position))
            if wanted.get(kind):
                wanted[kind] -= 1
                self.positions.append(position)
                skeletons.append(skeleton.as_dict())
            position += 1
        (work / "skeletons.json").write_text(json.dumps(skeletons, sort_keys=True))

    def work(self, index: int):
        key = index % CERTIFY_SKELETONS
        ranker = NodeCappedRanker(NODE_CAP)
        skeleton = _skeleton(self.dataset, self.seed, self.positions[key])
        query = genquery.certify(skeleton, self.dataset, self.cfg,
                                 uid=f"q{key:05d}", ranker=ranker)
        return query, ranker

    def finish(self, index: int, seconds: float, result) -> Item:
        query, ranker = result
        index %= CERTIFY_SKELETONS
        if seconds >= BUDGET_SECONDS:
            return Item(index, seconds, error="DeadlineReached")
        if query is not None:
            outcome = "accepted"
        elif ranker.refused:
            outcome = "rejected_cap"
        else:
            outcome = "rejected_exhaustive"
        record = query.as_dict() if query is not None else None
        item = Item(index, seconds, outcome=outcome, expansions=ranker.expansions)
        item.digest = _sha(json.dumps([outcome, ranker.expansions, ranker.refused, record],
                                      sort_keys=True).encode())
        if record is not None:
            again = CertifiedQuery.from_dict(json.loads(json.dumps(record)))
            report = evaluate_plan(again.witness, again.dsl_sources, self.dataset)
            if not (report.delivered and report.env.overall and all(report.logical)):
                item.problems.append(f"item {index}: witness does not re-pass evaluate_plan")
        return item


class PipelineSynth:
    name = "pipeline-synth"
    trace_items = PIPELINE_FILES

    def __init__(self, root: Path, work: Path, seed: int):
        dataset = load_dataset(root)
        self.setup_failures = Counter()
        queries = certified_queries(dataset, seed, PIPELINE_MIX, self.setup_failures)
        self.count = PIPELINE_QUERIES // PIPELINE_FILES
        self.benchmarks = [
            write_benchmark(work / f"bench-{k}.jsonl",
                            queries[k * self.count:(k + 1) * self.count], seed)
            for k in range(PIPELINE_FILES)]
        self.work_dir = work
        self.root = root

    def _outputs(self, key: int) -> tuple[Path, Path]:
        return self.work_dir / f"plans-{key}.jsonl", self.work_dir / f"eval-{key}.json"

    def work(self, index: int):
        key = index % PIPELINE_FILES
        benchmark = str(self.benchmarks[key])
        plans, evals = self._outputs(key)
        t0 = perf_counter()
        plan_rc = cli.main(["plan", "--benchmark", benchmark, "--db", str(self.root),
                            "--jobs", "2", "--budget-secs", str(BUDGET_SECONDS),
                            "--out", str(plans)])
        t1 = perf_counter()
        eval_rc = cli.main(["eval", "--benchmark", benchmark, "--plans", str(plans),
                            "--db", str(self.root), "--out", str(evals)])
        return plan_rc, eval_rc, t1 - t0

    def finish(self, index: int, seconds: float, result) -> Item:
        key = index % PIPELINE_FILES
        plan_rc, eval_rc, plan_s = result
        if plan_rc or eval_rc:
            return Item(key, seconds, units=self.count, error=f"exit {plan_rc}/{eval_rc}")
        plans, evals = self._outputs(key)
        plans_bytes = plans.read_bytes()
        eval_bytes = evals.read_bytes()
        records = [json.loads(line) for line in plans_bytes.decode().splitlines()[1:]]
        item = Item(key, seconds, units=self.count,
                    expansions=sum(r["nodes_expanded"] for r in records),
                    digest=_sha(plans_bytes, eval_bytes), plan_s=plan_s)
        not_full = [r["uid"] for r in records if r["status"] != FULL_PASS]
        if not_full or len(records) != self.count:
            item.problems.append(f"plans not full_pass: {not_full} of {len(records)}")
        metrics = json.loads(eval_bytes)["metrics"]
        low = {k: v["percent"] for k, v in metrics.items() if v["exact"] != "1/1"}
        if low or sorted(metrics) != sorted(METRIC_KEYS):
            item.problems.append(f"eval below 100 on {low or sorted(metrics)}")
        return item


class MilpSynth:
    name = "milp-synth"
    trace_items = 2

    def __init__(self, root: Path, work: Path, seed: int):
        dataset = load_dataset(root)
        self.setup_failures = Counter()
        # one input per trip length: a 1-day and a 2-day model
        queries = certified_queries(dataset, seed, {(1, EASY): 1, (2, EASY): 1},
                                    self.setup_failures)
        queries.sort(key=lambda query: query.skeleton.days)
        self.benchmarks = [write_benchmark(work / f"milp-bench-{query.skeleton.days}.jsonl",
                                           [query], seed) for query in queries]
        self.out = work / "milp"
        self.root = root

    def work(self, index: int):
        return cli.main(["milp", "--benchmark", str(self.benchmarks[index % 2]),
                         "--db", str(self.root), "--out", str(self.out)])

    def finish(self, index: int, seconds: float, rc) -> Item:
        key = index % 2
        try:
            if rc:
                return Item(key, seconds, error=f"exit {rc}")
            sizes_bytes = (self.out / "sizes.json").read_bytes()
            models = json.loads(sizes_bytes)["models"]
            lp_bytes = [(self.out / m["lp_file"]).read_bytes() for m in models]
            item = Item(key, seconds, digest=_sha(sizes_bytes, *lp_bytes))
            for m in models:
                if m["emitted_rows"] != m["sizes"]["constraint_total"] + m["query_rows"]:
                    item.problems.append(f"{m['uid']}: emitted_rows != constraint_total "
                                         f"+ query_rows")
            if len(models) != 1:
                item.problems.append(f"{len(models)} models for 1 query")
            return item
        finally:
            shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CertifySynth, PipelineSynth, MilpSynth)}
