"""Batch command-line harness.

Four subcommands cover the pipeline end to end:

    tripsmith generate  - sample and certify benchmark queries
    tripsmith plan      - search an itinerary for every query
    tripsmith eval      - score plans against their queries
    tripsmith milp      - compile per-query mixed-integer models to LP files

Every command writes a `<out>.manifest.json` sidecar and embeds the manifest
hash in its output header; eval refuses plans built from a different
benchmark. With a fixed seed and the heuristic ranker the whole pipeline is
byte-deterministic (sidecar timestamps aside). Exit codes: 0 ok, 1 internal
error, 2 usage error (bad arguments, inputs, data root or an unwritable output).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from .errors import InputError, SchemaError, TripsmithError
from .evaluation import evaluate_plan, score
from .genquery import CertifiedQuery, certify, context_from_skeleton, sample_skeleton
from .llm import HttpTransport, LlmEndpoint, LlmRanker, ReplayTransport
from .manifest import RunManifest, file_header, read_jsonl, record_line, write_jsonl
from .milp import MilpParams, count_sizes, slice_from_dataset, write_lp
from .milp.params import DAY_MINUTES
from .plan import plan_from_obj, serialize_plan
from .sandbox import load_dataset
from .search import FULL_PASS, HeuristicRanker, SearchConfig, dfs_search

logger = logging.getLogger("tripsmith.cli")

GENERATE_ATTEMPT_FACTOR = 50


def _budget_value(seconds: float):
    """A search budget as a JSON value; no deadline (inf) is the string "inf"."""
    return "inf" if seconds == math.inf else seconds


def _check_out_file(path, flag: str = "--out") -> None:
    """Refuse an output file that cannot be created, before any work is done."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise InputError(f"{flag} {path} is not a file in an existing directory")


def cmd_generate(args) -> int:
    _check_out_file(args.out)
    dataset = load_dataset(args.db)
    cfg = SearchConfig(budget_seconds=args.budget_secs)
    queries: list[CertifiedQuery] = []
    attempts = 0
    limit = args.count * GENERATE_ATTEMPT_FACTOR
    while len(queries) < args.count and attempts < limit:
        seed = args.seed + attempts
        attempts += 1
        skeleton = sample_skeleton(dataset, args.difficulty, seed,
                                   origin=args.origin, target=args.target)
        certified = certify(skeleton, dataset, cfg, uid=f"q{len(queries):04d}")
        if certified is not None:
            queries.append(certified)
    if not queries:
        print("no query could be certified", file=sys.stderr)
        return 1
    manifest = RunManifest(
        command="generate",
        inputs={"db": Path(args.db).name},
        config={"difficulty": args.difficulty, "count": args.count,
                "budget_secs": _budget_value(args.budget_secs),
                "origin": args.origin, "target": args.target},
        seed=args.seed,
        paths={"db": str(args.db)},
    )
    header = file_header("benchmark", manifest, count=len(queries),
                         difficulty=args.difficulty)
    write_jsonl(args.out, header, [q.as_dict() for q in queries])
    manifest.write_sidecar(args.out)
    print(f"certified {len(queries)}/{args.count} queries "
          f"({attempts} attempts) -> {args.out}")
    return 0 if len(queries) >= args.count else 1


def _read_queries(path, dataset) -> tuple[dict, list[CertifiedQuery]]:
    """Header and queries of a benchmark file whose every city `dataset` loads."""
    header, records = read_jsonl(path, "benchmark")
    queries = [CertifiedQuery.from_dict(record) for record in records]
    seen: set[str] = set()
    for query in queries:
        if query.uid in seen:
            raise InputError(f"{path}: query uid {query.uid!r} occurs more than once")
        seen.add(query.uid)
        for city in (query.skeleton.origin, query.skeleton.target):
            if city not in dataset:
                raise InputError(f"{path}: query {query.uid} names city {city!r}, "
                                 "which --db does not load")
    return header, queries


def _ranker_factory(args):
    """A fresh ranker for each query; a transcript is read and checked once, here."""
    if args.ranker == "heuristic":
        return lambda query: HeuristicRanker()
    if args.ranker == "replay":
        if not args.transcript:
            raise InputError("--transcript is required with --ranker replay")
        transport = ReplayTransport(args.transcript)
    else:
        transport = HttpTransport(LlmEndpoint(base_url=args.llm_url, model=args.llm_model,
                                              token_env=args.token_env))
    return lambda query: LlmRanker(transport)


def cmd_plan(args, ranker_factory=None) -> int:
    _check_out_file(args.out)
    tracing = getattr(args, "trace", None)
    if tracing:
        _check_out_file(tracing, "--trace")
    dataset = load_dataset(args.db)
    bench_header, queries = _read_queries(args.benchmark, dataset)
    if not queries:
        raise InputError(f"{args.benchmark}: benchmark carries no queries")
    cfg = SearchConfig(budget_seconds=args.budget_secs)
    factory = ranker_factory or _ranker_factory(args)

    results: list[dict] = []
    trace_rows: list[dict] = []
    for query in queries:
        ctx = context_from_skeleton(query.skeleton)
        ranker = factory(query)
        trace = (lambda row: trace_rows.append({"uid": query.uid, **row})) if tracing else None
        outcome = dfs_search(query.dsl_sources, dataset, ranker, cfg, ctx, trace=trace)
        degradations = len(getattr(ranker, "degradation_events", ()))
        if degradations:
            logger.warning("query %s: %d llm degradation(s)", query.uid, degradations)
        results.append({
            "uid": query.uid,
            "status": outcome.status,
            "plan": None if outcome.plan is None else serialize_plan(outcome.plan),
            "nodes_expanded": outcome.nodes_expanded,
            "constraints_passed": outcome.constraints_passed,
            "degradations": degradations,
        })
    if tracing:
        with open(tracing, "w", encoding="utf-8") as fh:
            for row in trace_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    manifest = RunManifest(
        command="plan",
        inputs={"benchmark": bench_header["manifest_hash"], "db": Path(args.db).name},
        # jobs is left out: it does not change how the queries are searched
        config={"ranker": args.ranker, "budget_secs": _budget_value(args.budget_secs)},
        seed=None,
        paths={"benchmark": str(args.benchmark), "db": str(args.db)},
    )
    header = file_header("plans", manifest,
                         benchmark_hash=bench_header["manifest_hash"])
    write_jsonl(args.out, header, results)
    manifest.write_sidecar(args.out)
    full = sum(1 for r in results if r["status"] == FULL_PASS)
    print(f"planned {len(results)} queries, {full} full passes -> {args.out}")
    return 0


def _trip(origin, target, days, people) -> str:
    return f"{origin} -> {target}, {days} day(s), {people} traveller(s)"


def cmd_eval(args) -> int:
    _check_out_file(args.out)
    dataset = load_dataset(args.db)
    bench_header, queries = _read_queries(args.benchmark, dataset)
    plans_header, plan_records = read_jsonl(args.plans, "plans")
    if not plan_records:
        raise InputError(f"{args.plans}: plans file carries no results")
    if plans_header.get("benchmark_hash") != bench_header.get("manifest_hash"):
        raise InputError("plans file was produced from a different benchmark "
                         "(manifest hashes do not match)")
    known = {query.uid for query in queries}
    by_uid = {}
    for index, record in enumerate(plan_records):
        if not isinstance(record, dict) or not isinstance(record.get("uid"), str):
            raise InputError(f"{args.plans}:{record_line(args.plans, index)}: "
                             "plans record carries no string 'uid'")
        if record["uid"] not in known:
            raise InputError(f"{args.plans}:{record_line(args.plans, index)}: plans record "
                             f"names uid {record['uid']!r}, which the benchmark lacks")
        first = by_uid.setdefault(record["uid"], index)
        if first != index:
            raise InputError(f"{args.plans}:{record_line(args.plans, index)}: plans record "
                             f"repeats uid {record['uid']!r} of line "
                             f"{record_line(args.plans, first)}")
    reports = []
    per_plan = []
    for query in queries:
        index = by_uid.get(query.uid)
        planned = plan_records[index] if index is not None else {}
        plan, notes = None, "no plan delivered"
        if planned.get("plan") is not None:
            try:
                plan, notes = plan_from_obj(planned["plan"]), ""
            except SchemaError as exc:
                notes = f"plan refused: {exc}"
        if plan is not None:
            # a plan for another trip is refused like a malformed one
            trip = (plan.start_city, plan.target_city, plan.day_count, plan.people_number)
            skeleton = query.skeleton
            asked = (skeleton.origin, skeleton.target, skeleton.days, skeleton.people)
            if trip != asked:
                plan, notes = None, (f"plan refused: it plans {_trip(*trip)}; "
                                     f"the query asks {_trip(*asked)}")
        report = evaluate_plan(plan, query.dsl_sources, dataset, notes=notes)
        reports.append(report)
        per_plan.append({"uid": query.uid, **report.as_dict()})
    summary = score(reports)

    manifest = RunManifest(
        command="eval",
        inputs={"benchmark": bench_header["manifest_hash"],
                "plans": plans_header["manifest_hash"],
                "db": Path(args.db).name},
        config={},
        seed=None,
        paths={"benchmark": str(args.benchmark), "plans": str(args.plans),
               "db": str(args.db)},
    )
    out = {
        "kind": "eval",
        "manifest_hash": manifest.hash,
        "benchmark_hash": bench_header["manifest_hash"],
        "metrics": summary.as_dict(),
        "reports": per_plan,
    }
    Path(args.out).write_text(
        json.dumps(out, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    manifest.write_sidecar(args.out)
    print(summary.table())
    print(json.dumps({k: v["percent"] for k, v in summary.as_dict().items()},
                     sort_keys=True))
    return 0


def cmd_milp(args) -> int:
    dataset = load_dataset(args.db)
    bench_header, queries = _read_queries(args.benchmark, dataset)
    if not queries:
        raise InputError(f"{args.benchmark}: benchmark carries no queries")
    if not 1 <= args.slots_per_day <= DAY_MINUTES:
        raise InputError(f"--slots-per-day must be between 1 and {DAY_MINUTES}, "
                         f"got {args.slots_per_day}")
    if DAY_MINUTES % args.slots_per_day:
        raise InputError(f"--slots-per-day must divide {DAY_MINUTES}, got {args.slots_per_day}")
    if min(args.hotels, args.attractions, args.restaurants) < 0:
        raise InputError("--hotels, --attractions and --restaurants must be >= 0")
    out_dir = Path(args.out)
    manifest = RunManifest(
        command="milp",
        inputs={"benchmark": bench_header["manifest_hash"], "db": Path(args.db).name},
        config={"slots_per_day": args.slots_per_day},
        seed=None,
        paths={"benchmark": str(args.benchmark), "db": str(args.db)},
    )
    models = []
    for query in queries:
        sk = query.skeleton
        slice_ = slice_from_dataset(dataset, sk.origin, sk.target,
                                    args.hotels, args.attractions, args.restaurants)
        params = MilpParams(
            hotel_num=len(slice_.hotels),
            attr_num=len(slice_.attractions),
            rest_num=len(slice_.restaurants),
            station_num=len(slice_.stations),
            go_num=len(slice_.go_routes),
            back_num=len(slice_.back_routes),
            time_step=args.slots_per_day * sk.days,
            days=sk.days,
        )
        if params.time_step < 2:
            raise InputError(f"--slots-per-day {args.slots_per_day} gives query {query.uid} "
                             f"{params.time_step} time slot over {sk.days} day; "
                             "the model needs at least 2")
        params.validate()
        budget = next((spec.value for spec in sk.specs if spec.kind == "budget"), None)
        models.append((query.uid, slice_, params, budget))
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = []
    for uid, slice_, params, budget in models:
        lp_path = out_dir / f"{uid}.lp"
        counts = write_lp(slice_, params, budget, lp_path, name=uid)
        sizes = count_sizes(params)
        emitted = sum(counts.values())
        summaries.append({
            "uid": uid,
            "params": dataclasses.asdict(params),
            "sizes": sizes.as_dict(),
            "emitted_rows": emitted,
            "query_rows": counts.get("query", 0),
            "lp_file": lp_path.name,
        })
        print(f"{uid}: {emitted} rows, {sizes.variable_total} variables -> {lp_path}")
    report_path = out_dir / "sizes.json"
    report_path.write_text(
        json.dumps({"kind": "milp_sizes", "manifest_hash": manifest.hash,
                    "models": summaries}, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    manifest.write_sidecar(report_path)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripsmith",
        description="travel-itinerary planning, validation and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample and certify benchmark queries")
    gen.add_argument("--db", required=True, help="city data root directory")
    gen.add_argument("--difficulty", choices=("easy", "medium"), default="easy")
    gen.add_argument("--count", type=_positive_int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--origin", default=None)
    gen.add_argument("--target", default=None)
    gen.add_argument("--budget-secs", type=float, default=10.0,
                     help="certification search deadline per query")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    plan = sub.add_parser("plan", help="search an itinerary per query")
    plan.add_argument("--benchmark", required=True)
    plan.add_argument("--db", required=True)
    plan.add_argument("--ranker", choices=("heuristic", "llm", "replay"),
                      default="heuristic")
    plan.add_argument("--budget-secs", type=float, default=300.0)
    plan.add_argument("--jobs", type=_positive_int, default=1,
                      help="accepted for compatibility; queries are searched "
                           "one at a time in input order, whatever its value")
    plan.add_argument("--llm-url", default="http://localhost:8000/v1/chat/completions")
    plan.add_argument("--llm-model", default="default")
    plan.add_argument("--token-env", default="TRIPSMITH_LLM_TOKEN")
    plan.add_argument("--transcript", default=None,
                      help="reply transcript for --ranker replay")
    plan.add_argument("--trace", default=None,
                      help="write per-node search trace records to this file")
    plan.add_argument("--out", required=True)
    plan.set_defaults(func=cmd_plan)

    ev = sub.add_parser("eval", help="score plans against their benchmark")
    ev.add_argument("--benchmark", required=True)
    ev.add_argument("--plans", required=True)
    ev.add_argument("--db", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    milp = sub.add_parser("milp", help="compile per-query models to LP files")
    milp.add_argument("--benchmark", required=True)
    milp.add_argument("--db", required=True)
    milp.add_argument("--hotels", type=int, default=2)
    milp.add_argument("--attractions", type=int, default=10)
    milp.add_argument("--restaurants", type=int, default=5)
    milp.add_argument("--slots-per-day", type=int, default=24)
    milp.add_argument("--out", required=True, help="output directory")
    milp.set_defaults(func=cmd_milp)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TripsmithError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
