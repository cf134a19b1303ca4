"""Acceptance gate: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints one
PASS/FAIL line per criterion (see conftest). Tolerances are pinned here and
nowhere else.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

from tripsmith.cli import main as cli_main
from tripsmith.evaluation import evaluate_plan, score, validate_env
from tripsmith.genquery import certify, sample_skeleton
from tripsmith.llm import FaultInjectingTransport, LlmRanker
from tripsmith.manifest import read_jsonl
from tripsmith.milp import (
    DOWNSAMPLE,
    MilpModel,
    MilpParams,
    VarInfo,
    check_assignment,
    count_sizes,
    micro_solve,
    synthetic_slice,
    write_lp,
)
from tripsmith.search import (
    FULL_PASS,
    SearchConfig,
    dfs_search,
    enumerate_complete_plans,
)
from tripsmith.search.state import schedule_visit

from . import golden_programs as G
from . import oracles
from .conftest import FIXTURES, build_base_plan, corrupt_plan
from .lp_reader import parse_lp, read_model
from .test_dsl import evaluate_checked
from .test_evaluator import make_report, random_reports
from .test_planner import decide, open_until_1730, state_at

MICRO = str(FIXTURES / "micro")


def test_criterion_01_metric_formulas_exact_and_bounded():
    """score() is formula-exact on 200 random report sets in under 5 s."""
    rng = random.Random(2024)
    start = time.monotonic()
    for _ in range(200):
        reports, raw = random_reports(rng, constant_constraints=True)
        summary = score(reports)
        want = oracles.metrics_reference(raw)
        for key, value in want.items():
            assert getattr(summary, key) == value, key
        assert summary.epr_macro <= summary.epr_micro
        assert summary.lpr_macro <= summary.lpr_micro
        assert summary.fpr <= summary.epr_macro
        assert summary.fpr <= summary.lpr_macro
        assert summary.c_lpr <= summary.lpr_micro
    # heterogeneous constraint counts: formulas stay exact
    for _ in range(50):
        reports, raw = random_reports(rng, constant_constraints=False)
        summary = score(reports)
        for key, value in oracles.metrics_reference(raw).items():
            assert getattr(summary, key) == value, key
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"metric check took {elapsed:.2f}s"


def test_criterion_02_clpr_worked_example():
    """Two plans, env-pass [T,T,F] and env-fail [T,T,T], give C-LPR = 1/3."""
    env_pass = make_report(True, [True] * 25, [True, True, False])
    env_fail = make_report(True, [True] * 24 + [False], [True, True, True])
    assert score([env_pass, env_fail]).c_lpr == Fraction(1, 3)


def test_criterion_03_golden_corpus_zero_tolerance(mini_dataset):
    """Published preference programs equal their oracles on 20 plans each."""
    from .test_plan_model import random_plan

    rng = random.Random(404)
    plans = [random_plan(mini_dataset, rng) for _ in range(20)]
    checks = {
        "attraction_count": oracles.attraction_count_reference,
        "average_transport_time": oracles.average_transport_time_reference,
        "restaurant_transport_time": oracles.restaurant_transport_time_reference,
        "food_cost_ratio": oracles.food_cost_ratio_reference,
        "accommodation_cost": oracles.accommodation_cost_reference,
    }
    for name, source in G.PREFERENCE_PROGRAMS.items():
        for plan in plans:
            got = evaluate_checked(source, plan, mini_dataset)
            if name == "average_poi_distance":
                want = oracles.average_poi_distance_reference(
                    plan, mini_dataset, "Riverside Pavilion")
            else:
                want = checks[name](plan)
            assert got == want, name
    for plan in plans:
        want = oracles.budget_total_reference(plan) <= 5000
        assert evaluate_checked(G.BUDGET, plan, mini_dataset) is want
    # the -1 sentinels quoted from the listings
    from tripsmith.plan import parse_plan

    empty = parse_plan('{"people_number": 1, "start_city": "A",'
                       ' "target_city": "Beta", "itinerary": []}')
    assert evaluate_checked(G.AVERAGE_TRANSPORT_TIME, empty, mini_dataset) == Decimal(-1)
    assert evaluate_checked(G.RESTAURANT_TRANSPORT_TIME, empty, mini_dataset) == Decimal(-1)
    assert evaluate_checked(G.FOOD_COST_RATIO, empty, mini_dataset) == Decimal(-1)
    assert evaluate_checked(G.AVERAGE_POI_DISTANCE.format(poi="City Museum"),
                            empty, mini_dataset) == Decimal(-1)


def test_criterion_04_env_rules_flip_exactly(mini_dataset):
    """25 targeted violations flip exactly their own rule."""
    from tripsmith.evaluation import RULE_IDS

    base = validate_env(build_base_plan(mini_dataset), mini_dataset)
    assert base.failed_rules() == []
    for rule in RULE_IDS:
        report = validate_env(corrupt_plan(mini_dataset, rule), mini_dataset)
        assert report.failed_rules() == [rule], rule


def test_criterion_05_planner_complete_at_desk_scale(micro_dataset):
    """50 certified easy queries: all full_pass within 10 s/query, and the
    accept/reject decision agrees with exhaustive enumeration everywhere."""
    cfg = SearchConfig(budget_seconds=10)
    certified = []
    rejected = []
    seed = 0
    while len(certified) < 50 and seed < 400:
        skeleton = sample_skeleton(micro_dataset, "easy", seed,
                                   origin="Alpha", target="Beta")
        seed += 1
        query = certify(skeleton, micro_dataset, cfg, uid=f"a{seed}")
        if query is None:
            rejected.append(skeleton)
        else:
            certified.append(query)
    assert len(certified) == 50

    from tripsmith.genquery import context_from_skeleton, skeleton_to_dsl

    enum_cache: dict[tuple, list] = {}

    def plans_for(ctx):
        key = (ctx.days, ctx.people, ctx.required_intercity_kind,
               ctx.required_innercity_mode)
        if key not in enum_cache:
            enum_cache[key] = enumerate_complete_plans(micro_dataset, ctx)
        return enum_cache[key]

    for query in certified:
        ctx = context_from_skeleton(query.skeleton)
        outcome = dfs_search(query.dsl_sources, micro_dataset, None, cfg, ctx)
        assert outcome.status == FULL_PASS, query.uid
        assert outcome.elapsed_seconds < 10
        plans = plans_for(ctx)
        assert 0 < len(plans) <= 200
        feasible = any(
            (rep := evaluate_plan(p, query.dsl_sources, micro_dataset)).env.overall
            and all(rep.logical)
            for p in plans
        )
        assert feasible, query.uid
    for skeleton in rejected:
        ctx = context_from_skeleton(skeleton)
        sources = skeleton_to_dsl(skeleton)
        plans = plans_for(ctx)
        feasible = any(
            (rep := evaluate_plan(p, sources, micro_dataset)).env.overall
            and all(rep.logical)
            for p in plans
        )
        assert not feasible, skeleton


def test_criterion_06_planner_rules(micro_dataset, monkeypatch):
    """Lunch fires across [10:30, 12:30]; late nights head to the hotel;
    visits truncate at closing time."""
    for clock in ("10:30", "11:11", "12:30"):
        state, ctx = state_at(micro_dataset, clock, days=2)
        assert decide(state, micro_dataset, ctx) == "lunch"
    state, ctx = state_at(micro_dataset, "22:30", days=2)
    assert decide(state, micro_dataset, ctx) == "accommodation"
    state, ctx = state_at(micro_dataset, "15:00", days=2,
                          visited=("Harbor Park", "Stone Bridge"))
    assert decide(state, micro_dataset, ctx) == "accommodation"

    db = micro_dataset["Beta"]
    row = open_until_1730(monkeypatch, db)
    state, ctx = state_at(micro_dataset, "16:45", position=row["name"])
    child = schedule_visit(state, row, "attraction", db, ctx)
    act = child.days[0][-1]
    assert (act["start_time"], act["end_time"]) == ("16:45", "17:30")
    state, ctx = state_at(micro_dataset, "17:31", position=row["name"])
    assert schedule_visit(state, row, "attraction", db, ctx) is None


def test_criterion_07_milp_sizes(tmp_path):
    """Closed-form counts equal what `milp` writes; downsample scale matches
    the published 36k-variable / 320k-constraint order within 20%."""
    path = tmp_path / "model.lp"
    rng = random.Random(7)
    for trial in range(3):
        params = MilpParams(
            hotel_num=rng.randint(1, 2), attr_num=rng.randint(1, 3),
            rest_num=rng.randint(1, 2), station_num=rng.randint(1, 2),
            go_num=rng.randint(1, 3), back_num=rng.randint(1, 3),
            time_step=rng.choice((4, 6, 8)), days=1,
        )
        sizes = count_sizes(params)
        counts = write_lp(synthetic_slice(params, trial), None, path)
        parsed = parse_lp(path.read_text())
        assert len(parsed["rows"]) == sum(counts.values()) == sizes.constraint_total
        assert counts == {k: v for k, v in sizes.constraints.items() if v}
        assert len(parsed["binaries"]) + len(parsed["generals"]) == sizes.variable_total

    start = time.monotonic()
    sizes = count_sizes(DOWNSAMPLE)
    counts = write_lp(synthetic_slice(DOWNSAMPLE), None, path)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"emission took {elapsed:.1f}s"
    assert sizes.variables["y"] == 34848          # 22^2 * 3 * 24, exact
    assert 28800 <= sizes.variable_total <= 43200          # 36k +- 20%
    assert 256000 <= sizes.constraint_total <= 384000      # 320k +- 20%
    assert sum(counts.values()) == sizes.constraint_total


def test_criterion_08_micro_solve_on_toys():
    """Feasible toy assignments satisfy every row of the written model;
    contradictions are proven."""
    rng = random.Random(13)
    solved = 0
    for trial in range(20):
        params = MilpParams(
            hotel_num=1, attr_num=rng.randint(0, 1), rest_num=0,
            station_num=1, go_num=rng.randint(1, 2), back_num=rng.randint(1, 2),
            time_step=rng.choice((6, 8)), days=1,
        )
        model = read_model(synthetic_slice(params, trial))
        assignment = micro_solve(model)
        if assignment is not None:
            solved += 1
            assert check_assignment(model, assignment) == []
    assert solved >= 10

    contradiction = MilpModel(
        variables={"u0": VarInfo("binary"), "u1": VarInfo("binary")},
        rows=[
            ("one", ((1, "u0"), (1, "u1")), "=", 1, "occupancy"),
            ("z0", ((1, "u0"),), "<=", 0, "occupancy"),
            ("z1", ((1, "u1"),), "<=", 0, "occupancy"),
        ],
    )
    assert micro_solve(contradiction) is None


def test_criterion_09_certified_queries_revalidate(micro_dataset):
    """Every emitted certified query carries an independently valid witness."""
    cfg = SearchConfig(budget_seconds=10)
    produced = 0
    seed = 1000
    while produced < 30 and seed < 1300:
        for difficulty in ("easy", "medium"):
            skeleton = sample_skeleton(micro_dataset, difficulty, seed,
                                       origin="Alpha", target="Beta")
            query = certify(skeleton, micro_dataset, cfg, uid=f"c{seed}")
            if query is None:
                continue
            produced += 1
            report = evaluate_plan(query.witness, query.dsl_sources, micro_dataset)
            assert report.env.overall, query.uid
            assert all(report.logical), query.uid
        seed += 1
    assert produced >= 30


def test_criterion_10_pipeline_determinism(tmp_path):
    """generate 20 -> plan -> eval twice: byte-identical artifacts."""
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        bench = base / "bench.jsonl"
        plans = base / "plans.jsonl"
        ev = base / "eval.json"
        assert cli_main(["generate", "--db", MICRO, "--difficulty", "easy",
                         "--count", "20", "--seed", "77", "--out", str(bench)]) == 0
        assert cli_main(["plan", "--benchmark", str(bench), "--db", MICRO,
                         "--budget-secs", "10", "--out", str(plans)]) == 0
        assert cli_main(["eval", "--benchmark", str(bench), "--plans", str(plans),
                         "--db", MICRO, "--out", str(ev)]) == 0
        outputs.append((bench.read_bytes(), plans.read_bytes(), ev.read_bytes()))
    assert outputs[0] == outputs[1]


def test_criterion_11_llm_degradation_never_crashes(tmp_path):
    """Fault-injected model calls: every query completes, one logged
    degradation event per injected fault."""
    bench = tmp_path / "bench.jsonl"
    assert cli_main(["generate", "--db", MICRO, "--count", "6", "--seed", "3",
                     "--out", str(bench)]) == 0

    from tripsmith.cli import cmd_plan

    transports = []

    def factory(record):
        transport = FaultInjectingTransport()
        transports.append(transport)
        return LlmRanker(transport)

    class Args:
        benchmark = str(bench)
        db = MICRO
        ranker = "llm"
        budget_secs = 10.0
        jobs = 1
        seed = 0
        out = str(tmp_path / "plans.jsonl")

    assert cmd_plan(Args(), ranker_factory=factory) == 0
    _, records = read_jsonl(Args.out, "plans")
    assert len(records) == 6
    assert all(r["status"] == FULL_PASS for r in records)
    total_faults = sum(t.faults for t in transports)
    total_events = sum(r["degradations"] for r in records)
    assert total_faults > 0 and total_events == total_faults
