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
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import ConfigError, InputError, MetricError, TripsmithError
from .evaluation import evaluate_plan, score
from .genquery import CertifiedQuery, certify, context_from_skeleton, sample_skeleton
from .llm import HttpTransport, LlmEndpoint, LlmRanker, ReplayTransport
from .manifest import RunManifest, file_header, read_jsonl, write_jsonl
from .milp import MilpParams, build_model, count_sizes, emit_lp, slice_from_dataset
from .plan import plan_from_obj, serialize_plan
from .sandbox import load_dataset
from .search import FULL_PASS, HeuristicRanker, SearchConfig, dfs_search

logger = logging.getLogger("tripsmith.cli")

GENERATE_ATTEMPT_FACTOR = 50


def _plan_record(plan) -> dict | None:
    return None if plan is None else json.loads(serialize_plan(plan))


def cmd_generate(args) -> int:
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
                "budget_secs": args.budget_secs,
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
    for query in queries:
        for city in (query.skeleton.origin, query.skeleton.target):
            if city not in dataset:
                raise InputError(f"{path}: query {query.uid} names city {city!r}, "
                                 "which --db does not load")
    return header, queries


def _make_ranker(args):
    if args.ranker == "heuristic":
        return HeuristicRanker()
    if args.ranker == "replay":
        if not args.transcript:
            raise InputError("--transcript is required with --ranker replay")
        return LlmRanker(ReplayTransport(args.transcript))
    endpoint = LlmEndpoint(base_url=args.llm_url, model=args.llm_model,
                           token_env=args.token_env)
    return LlmRanker(HttpTransport(endpoint))


def cmd_plan(args, ranker_factory=None) -> int:
    dataset = load_dataset(args.db)
    bench_header, queries = _read_queries(args.benchmark, dataset)
    if not queries:
        raise InputError(f"{args.benchmark}: benchmark carries no queries")
    cfg = SearchConfig(budget_seconds=args.budget_secs)
    factory = ranker_factory or (lambda query: _make_ranker(args))

    tracing = getattr(args, "trace", None)

    def run_one(query: CertifiedQuery) -> tuple[dict, list[dict]]:
        ctx = context_from_skeleton(query.skeleton)
        ranker = factory(query)
        trace_rows: list[dict] = []
        trace = trace_rows.append if tracing else None
        outcome = dfs_search(query.dsl_sources, dataset, ranker, cfg, ctx, trace=trace)
        degradations = len(getattr(ranker, "degradation_events", ()))
        if degradations:
            logger.warning("query %s: %d llm degradation(s)", query.uid, degradations)
        result = {
            "uid": query.uid,
            "status": outcome.status,
            "plan": _plan_record(outcome.plan),
            "nodes_expanded": outcome.nodes_expanded,
            "constraints_passed": outcome.constraints_passed,
            "degradations": degradations,
        }
        return result, [{"uid": query.uid, **row} for row in trace_rows]

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            pairs = list(pool.map(run_one, queries))
    else:
        pairs = [run_one(query) for query in queries]
    results = [result for result, _ in pairs]
    if tracing:
        with open(tracing, "w", encoding="utf-8") as fh:
            for _, rows in pairs:
                for row in rows:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")

    manifest = RunManifest(
        command="plan",
        inputs={"benchmark": bench_header["manifest_hash"], "db": Path(args.db).name},
        # jobs is an execution detail: results are merged in input order,
        # so the artifact is the same regardless of parallelism
        config={"ranker": args.ranker, "budget_secs": args.budget_secs},
        seed=args.seed,
        paths={"benchmark": str(args.benchmark), "db": str(args.db)},
    )
    header = file_header("plans", manifest,
                         benchmark_hash=bench_header["manifest_hash"])
    write_jsonl(args.out, header, results)
    manifest.write_sidecar(args.out)
    full = sum(1 for r in results if r["status"] == FULL_PASS)
    print(f"planned {len(results)} queries, {full} full passes -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    dataset = load_dataset(args.db)
    bench_header, queries = _read_queries(args.benchmark, dataset)
    plans_header, plan_records = read_jsonl(args.plans, "plans")
    if not plan_records:
        raise InputError(f"{args.plans}: plans file carries no results")
    if plans_header.get("benchmark_hash") != bench_header.get("manifest_hash"):
        raise InputError("plans file was produced from a different benchmark "
                         "(manifest hashes do not match)")
    by_uid = {record["uid"]: record for record in plan_records}
    reports = []
    per_plan = []
    for query in queries:
        planned = by_uid.get(query.uid)
        plan = None
        if planned and planned.get("plan") is not None:
            plan = plan_from_obj(planned["plan"])
        report = evaluate_plan(plan, query.dsl_sources, dataset,
                               notes="" if plan else "no plan delivered")
        reports.append(report)
        per_plan.append({"uid": query.uid, **report.as_dict()})
    try:
        summary = score(reports)
    except MetricError as exc:
        raise InputError(str(exc)) from None

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
    if args.slots_per_day <= 0:
        raise InputError("--slots-per-day must be positive")
    if min(args.hotels, args.attractions, args.restaurants) < 0:
        raise InputError("--hotels, --attractions and --restaurants must be >= 0")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command="milp",
        inputs={"benchmark": bench_header["manifest_hash"], "db": Path(args.db).name},
        config={"slots_per_day": args.slots_per_day},
        seed=None,
        paths={"benchmark": str(args.benchmark), "db": str(args.db)},
    )
    summaries = []
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
        budget = next((spec.value for spec in sk.specs if spec.kind == "budget"), None)
        model = build_model(slice_, params, {"budget": budget} if budget else None)
        lp_path = out_dir / f"{query.uid}.lp"
        emit_lp(model, lp_path, name=query.uid)
        sizes = count_sizes(params)
        entry = {
            "uid": query.uid,
            "params": {
                "hotel_num": params.hotel_num, "attr_num": params.attr_num,
                "rest_num": params.rest_num, "station_num": params.station_num,
                "go_num": params.go_num, "back_num": params.back_num,
                "time_step": params.time_step, "days": params.days,
                "trans_num": params.trans_num,
            },
            "sizes": sizes.as_dict(),
            "emitted_rows": len(model.rows),
            "query_rows": model.row_count_by_category().get("query", 0),
            "lp_file": lp_path.name,
        }
        summaries.append(entry)
        print(f"{query.uid}: {len(model.rows)} rows, "
              f"{len(model.variables)} variables -> {lp_path}")
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
    plan.add_argument("--jobs", type=_positive_int, default=1)
    plan.add_argument("--seed", type=int, default=0)
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
    except (InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TripsmithError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
