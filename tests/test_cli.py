import itertools
import json
import shutil
from pathlib import Path

import pytest

from tripsmith import cli, errors
from tripsmith.cli import main
from tripsmith.genquery import certify, sample_skeleton
from tripsmith.llm import FaultInjectingTransport, LlmRanker, TransportError
from tripsmith.manifest import RunManifest, file_header, read_jsonl, write_jsonl
from tripsmith.plan.model import FIELDS
from tripsmith.search import FULL_PASS, SearchConfig

from .conftest import FIXTURES
from .test_dsl import NESTING_FORMS

MICRO = str(FIXTURES / "micro")


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def bench(tmp_path) -> Path:
    out = tmp_path / "bench.jsonl"
    code = run("generate", "--db", MICRO, "--difficulty", "easy", "--count", "4",
               "--seed", "11", "--out", str(out))
    assert code == 0
    return out


def test_generate_writes_certified_queries(bench):
    header, records = read_jsonl(bench, "benchmark")
    assert header["count"] == 4
    assert len(records) == 4
    assert Path(str(bench) + ".manifest.json").exists()


def test_generate_seed_repeat_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert run("generate", "--db", MICRO, "--count", "3", "--seed", "5",
                   "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_bad_difficulty_is_usage_error(tmp_path):
    code = run("generate", "--db", MICRO, "--difficulty", "impossible",
               "--out", str(tmp_path / "x.jsonl"))
    assert code == 2


@pytest.mark.parametrize("ends", [("--origin", "Nope", "--target", "Beta"),
                                  ("--target", "Nope"),
                                  ("--origin", "Alpha", "--target", "Alpha")])
def test_generate_refuses_bad_ends_before_any_search(tmp_path, capsys, monkeypatch, ends):
    monkeypatch.setattr(cli, "certify", lambda *args, **kwargs: pytest.fail("searched"))
    out = tmp_path / "x.jsonl"
    capsys.readouterr()
    assert run("generate", "--db", MICRO, *ends, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_generate_keeps_a_lone_target(tmp_path):
    out = tmp_path / "b.jsonl"
    assert run("generate", "--db", MICRO, "--count", "3", "--seed", "5",
               "--target", "Beta", "--out", str(out)) == 0
    _, records = read_jsonl(out, "benchmark")
    assert {(r["skeleton"]["origin"], r["skeleton"]["target"]) for r in records} \
        == {("Alpha", "Beta")}


def test_plan_and_eval_full_pipeline(tmp_path, bench):
    plans = tmp_path / "plans.jsonl"
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--budget-secs", "10", "--out", str(plans)) == 0
    header, records = read_jsonl(plans, "plans")
    assert all(r["status"] == "full_pass" for r in records)

    out = tmp_path / "eval.json"
    assert run("eval", "--benchmark", str(bench), "--plans", str(plans),
               "--db", MICRO, "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    for key, value in payload["metrics"].items():
        assert value["percent"] == 100.0, key


def test_eval_refuses_mismatched_manifests(tmp_path, bench):
    plans = tmp_path / "plans.jsonl"
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--budget-secs", "10", "--out", str(plans)) == 0
    other_bench = tmp_path / "other.jsonl"
    assert run("generate", "--db", MICRO, "--count", "2", "--seed", "99",
               "--out", str(other_bench)) == 0
    code = run("eval", "--benchmark", str(other_bench), "--plans", str(plans),
               "--db", MICRO, "--out", str(tmp_path / "eval.json"))
    assert code == 2


def test_eval_empty_plans_is_usage_error(tmp_path, bench):
    plans = tmp_path / "plans.jsonl"
    header, _ = read_jsonl(bench, "benchmark")
    plans.write_text(json.dumps({"kind": "plans",
                                 "manifest_hash": "x",
                                 "benchmark_hash": header["manifest_hash"]}) + "\n")
    code = run("eval", "--benchmark", str(bench), "--plans", str(plans),
               "--db", MICRO, "--out", str(tmp_path / "eval.json"))
    assert code == 2


# Skeletons of the stream below that certify on the synthetic city set within
# 44 ranker calls each: 1- and 2-day trips, with and without required terms.
SYNTH_CERTIFIED = (8, 20, 34, 44, 88, 139)


@pytest.fixture(scope="module")
def synth_bench(synth_dataset, tmp_path_factory) -> Path:
    """A benchmark file of the SYNTH_CERTIFIED queries (generate is slow there)."""
    pairs = list(itertools.permutations(synth_dataset.city_names, 2))
    cfg = SearchConfig(budget_seconds=60.0)
    queries = []
    for index in SYNTH_CERTIFIED:
        origin, target = pairs[index % len(pairs)]
        skeleton = sample_skeleton(synth_dataset, "medium" if index % 2 else "easy",
                                   300 + index, origin=origin, target=target)
        queries.append(certify(skeleton, synth_dataset, cfg, uid=f"q{index:04d}"))
    assert None not in queries
    assert any(q.skeleton.days == 2 for q in queries)
    path = tmp_path_factory.mktemp("synth_bench") / "bench.jsonl"
    manifest = RunManifest(command="generate", inputs={"db": "synth"}, config={}, seed=0)
    write_jsonl(path, file_header("benchmark", manifest, count=len(queries),
                                  difficulty="mixed"),
                [q.as_dict() for q in queries])
    return path


def test_plan_with_jobs_matches_serial(tmp_path, bench, synth_root, synth_bench):
    for name, root, benchmark in (("micro", MICRO, bench), ("synth", synth_root, synth_bench)):
        outputs = []
        for jobs in ("1", "3"):
            plans = tmp_path / f"{name}-plans-{jobs}.jsonl"
            trace = tmp_path / f"{name}-trace-{jobs}.jsonl"
            assert run("plan", "--benchmark", str(benchmark), "--db", str(root),
                       "--budget-secs", "10", "--jobs", jobs, "--trace", str(trace),
                       "--out", str(plans)) == 0
            outputs.append((plans.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1], name
        assert outputs[0][1].count(b"\n") > 0, name
    _, records = read_jsonl(tmp_path / "synth-plans-3.jsonl", "plans")
    assert [r["status"] for r in records] == [FULL_PASS] * len(SYNTH_CERTIFIED)


def test_plan_replay_ranker_degrades_without_transcript(tmp_path, bench):
    transcript = tmp_path / "empty.jsonl"
    transcript.write_text("")
    plans = tmp_path / "plans.jsonl"
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--ranker", "replay", "--transcript", str(transcript),
               "--budget-secs", "10", "--out", str(plans)) == 0
    _, records = read_jsonl(plans, "plans")
    assert all(r["status"] == "full_pass" for r in records)
    assert all(r["degradations"] >= 1 for r in records)


@pytest.mark.parametrize("lines, where", [
    (None, "cannot be read"),
    (['{"hash": "a", "reply": "x"}', "", "{not json"], ":3: transcript line is not a JSON"),
    (['{"hash": "a"}'], ":1: transcript line is not a JSON"),
    (['{"reply": "x"}'], ":1: transcript line"),
    (['{"hash": "a", "reply": 7}'], ":1: transcript line"),
    (["[1]"], ":1: transcript line"),
], ids=["missing", "not-json", "no-reply", "no-hash", "reply-number", "list"])
def test_plan_refuses_a_bad_transcript_before_any_search(tmp_path, bench, capsys,
                                                         monkeypatch, lines, where):
    transcript = tmp_path / "transcript.jsonl"
    if lines is not None:
        transcript.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(cli, "dfs_search", lambda *args, **kwargs: pytest.fail("searched"))
    plans = tmp_path / "plans.jsonl"
    capsys.readouterr()
    assert run("plan", "--benchmark", str(bench), "--db", MICRO, "--ranker", "replay",
               "--transcript", str(transcript), "--out", str(plans)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(transcript) in err and where in err
    assert err.count("\n") == 1
    assert not plans.exists()


def test_plan_replay_requires_transcript(tmp_path, bench):
    code = run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--ranker", "replay", "--out", str(tmp_path / "p.jsonl"))
    assert code == 2


def test_fault_injection_logs_one_event_per_fault(tmp_path, bench):
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
    assert all(r["status"] == "full_pass" for r in records)
    total_faults = sum(t.faults for t in transports)
    total_events = sum(r["degradations"] for r in records)
    assert total_faults > 0
    assert total_events == total_faults


def test_milp_command_outputs(tmp_path, bench):
    out_dir = tmp_path / "milp"
    assert run("milp", "--benchmark", str(bench), "--db", MICRO,
               "--slots-per-day", "12", "--out", str(out_dir)) == 0
    sizes = json.loads((out_dir / "sizes.json").read_text())
    assert len(sizes["models"]) == 4
    from .lp_reader import parse_lp

    for entry in sizes["models"]:
        lp = parse_lp((out_dir / entry["lp_file"]).read_text())
        expected = entry["sizes"]["constraint_total"] + entry["query_rows"]
        assert len(lp["rows"]) == expected, entry["uid"]


def test_milp_zero_budget_still_gets_its_budget_row(tmp_path):
    bench = tmp_path / "bench.jsonl"
    assert run("generate", "--db", MICRO, "--difficulty", "easy", "--count", "4",
               "--seed", "7", "--out", str(bench)) == 0
    header, *lines = bench.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    budgeted = [r for r in records if r["skeleton"]["specs"][0]["kind"] == "budget"]
    assert budgeted
    budgeted[0]["skeleton"]["specs"][0]["value"] = "0"
    bench.write_text("\n".join([header, *map(json.dumps, records)]) + "\n")
    out_dir = tmp_path / "milp"
    assert run("milp", "--benchmark", str(bench), "--db", MICRO, "--out", str(out_dir)) == 0
    models = json.loads((out_dir / "sizes.json").read_text())["models"]
    rows = {entry["uid"]: entry["query_rows"] for entry in models}
    assert rows[budgeted[0]["uid"]] == 1


def test_milp_invalid_slots_is_usage_error(tmp_path, bench):
    code = run("milp", "--benchmark", str(bench), "--db", MICRO,
               "--slots-per-day", "-3", "--out", str(tmp_path / "m"))
    assert code == 2


@pytest.mark.parametrize("slots", ["1441", "2000"])
def test_milp_slots_beyond_one_minute_is_usage_error(tmp_path, bench, capsys, slots):
    capsys.readouterr()
    code = run("milp", "--benchmark", str(bench), "--db", MICRO,
               "--slots-per-day", slots, "--out", str(tmp_path / "m"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --slots-per-day must be between 1 and 1440, got {slots}\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("slots", ["7", "1000"])
def test_milp_slots_that_do_not_divide_a_day_is_usage_error(tmp_path, bench, capsys, slots):
    capsys.readouterr()
    code = run("milp", "--benchmark", str(bench), "--db", MICRO,
               "--slots-per-day", slots, "--out", str(tmp_path / "m"))
    assert code == 2
    assert capsys.readouterr().err == f"error: --slots-per-day must divide 1440, got {slots}\n"
    assert not (tmp_path / "m").exists()


def test_milp_params_are_checked_before_any_output(tmp_path, bench, capsys):
    # q0000 is a 2-day query (2 slots) and q0001 a 1-day query (1 slot)
    out_dir = tmp_path / "m"
    capsys.readouterr()
    assert run("milp", "--benchmark", str(bench), "--db", MICRO,
               "--slots-per-day", "1", "--out", str(out_dir)) == 2
    assert capsys.readouterr().err == ("error: --slots-per-day 1 gives query q0001 1 time "
                                       "slot over 1 day; the model needs at least 2\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--hotels", "--attractions", "--restaurants"])
def test_milp_negative_cap_is_usage_error(tmp_path, bench, flag):
    code = run("milp", "--benchmark", str(bench), "--db", MICRO,
               flag, "-1", "--out", str(tmp_path / "m"))
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_plan_jobs_below_one_is_usage_error(tmp_path, bench, jobs):
    out = tmp_path / "plans.jsonl"
    code = run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--jobs", jobs, "--out", str(out))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_generate_count_below_one_is_usage_error(tmp_path, count):
    out = tmp_path / "bench.jsonl"
    assert run("generate", "--db", MICRO, "--count", count, "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("budget", ["nan", "0", "-1"])
@pytest.mark.parametrize("command", ["generate", "plan"])
def test_budget_secs_not_positive_is_usage_error(tmp_path, bench, capsys, command, budget):
    out = tmp_path / "out.jsonl"
    source = ["--db", MICRO] if command == "generate" else ["--benchmark", str(bench),
                                                            "--db", MICRO]
    capsys.readouterr()
    assert run(command, *source, "--budget-secs", budget, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: search budget must be positive\n"
    assert not out.exists()


def test_budget_secs_inf_means_no_deadline(tmp_path, bench):
    out = tmp_path / "inf.jsonl"
    assert run("generate", "--db", MICRO, "--count", "2", "--seed", "11",
               "--budget-secs", "inf", "--out", str(out)) == 0
    assert len(read_jsonl(out, "benchmark")[1]) == 2
    plans = {}
    for budget in ("inf", "10"):
        plans[budget] = tmp_path / f"plans-{budget}.jsonl"
        assert run("plan", "--benchmark", str(bench), "--db", MICRO,
                   "--budget-secs", budget, "--out", str(plans[budget])) == 0
    records = {budget: read_jsonl(path, "plans")[1] for budget, path in plans.items()}
    assert records["inf"] == records["10"]
    assert all(record["status"] == "full_pass" for record in records["inf"])


def test_usage_error_on_unknown_command():
    assert run("frobnicate") == 2


def test_plan_trace_records(tmp_path, bench):
    trace = tmp_path / "trace.jsonl"
    plans = tmp_path / "plans.jsonl"
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--budget-secs", "10", "--trace", str(trace),
               "--out", str(plans)) == 0
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows
    for row in rows:
        assert {"uid", "node", "action", "day", "clock", "position"} <= set(row)


def run_on_benchmark(command, benchmark, tmp_path, db=MICRO) -> int:
    """Exit code of one plan, eval or milp run over `benchmark`."""
    out = str(tmp_path / f"{command}.out")
    if command == "eval":
        return run("eval", "--benchmark", str(benchmark), "--plans",
                   str(tmp_path / "good-plans.jsonl"), "--db", db, "--out", out)
    return run(command, "--benchmark", str(benchmark), "--db", db, "--out", out)


@pytest.fixture()
def good_plans(tmp_path, bench):
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--out", str(tmp_path / "good-plans.jsonl")) == 0


@pytest.mark.parametrize("command", ["plan", "eval"])
def test_bad_json_line_is_usage_error(tmp_path, bench, good_plans, capsys, command):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(bench.read_text().splitlines()[0] + "\n{bad\n")
    capsys.readouterr()
    assert run_on_benchmark(command, bad, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["plan", "eval"])
def test_record_missing_a_field_is_usage_error(tmp_path, bench, good_plans, capsys, command):
    header, *lines = bench.read_text().splitlines()
    record = json.loads(lines[0])
    del record["skeleton"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([header, json.dumps(record), *lines[1:]]) + "\n")
    capsys.readouterr()
    assert run_on_benchmark(command, bad, tmp_path) == 2
    err = capsys.readouterr().err
    assert repr(record["uid"]) in err and "'skeleton'" in err


@pytest.mark.parametrize("command", ["plan", "eval", "milp"])
def test_query_city_missing_from_db_is_usage_error(tmp_path, bench, good_plans, capsys,
                                                    command):
    other = tmp_path / "other"
    other.mkdir()
    for old, new in (("Alpha", "Gamma"), ("Beta", "Delta")):
        shutil.copytree(Path(MICRO) / old, other / new)
    capsys.readouterr()
    assert run_on_benchmark(command, bench, tmp_path, db=str(other)) == 2
    err = capsys.readouterr().err
    assert "which --db does not load" in err
    assert not (tmp_path / f"{command}.out").exists()


@pytest.mark.parametrize("record", [{"status": "full_pass", "plan": None}, ["q0000"], {"uid": 7}],
                         ids=["no-uid", "list", "int-uid"])
def test_plans_record_without_uid_is_usage_error(tmp_path, bench, good_plans, capsys, record):
    plans = tmp_path / "good-plans.jsonl"
    header, *lines = plans.read_text().splitlines()
    plans.write_text("\n".join([header, lines[0], "", json.dumps(record), *lines[2:]]) + "\n")
    capsys.readouterr()
    assert run_on_benchmark("eval", bench, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{plans}:4: plans record carries no string 'uid'" in err
    assert "Traceback" not in err


def test_plans_records_sharing_a_uid_is_usage_error(tmp_path, bench, good_plans, capsys):
    """Neither record may win silently: the error names both lines."""
    plans = tmp_path / "good-plans.jsonl"
    header, *lines = plans.read_text().splitlines()
    plans.write_text("\n".join([header, lines[0], lines[1], "", lines[0], *lines[2:]]) + "\n")
    uid = json.loads(lines[0])["uid"]
    capsys.readouterr()
    assert run_on_benchmark("eval", bench, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {plans}:5: plans record repeats uid {uid!r} of line 2\n"
    assert not (tmp_path / "eval.out").exists()


def test_plans_record_of_a_uid_the_benchmark_lacks_is_usage_error(tmp_path, bench, good_plans,
                                                                  capsys):
    plans = tmp_path / "good-plans.jsonl"
    header, *lines = plans.read_text().splitlines()
    stray = {**json.loads(lines[0]), "uid": "zzz"}
    plans.write_text("\n".join([header, *lines, json.dumps(stray)]) + "\n")
    capsys.readouterr()
    assert run_on_benchmark("eval", bench, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {plans}:{len(lines) + 2}: plans record names uid 'zzz', "
                   "which the benchmark lacks\n")
    assert not (tmp_path / "eval.out").exists()


def _day_as_text(plan: dict) -> dict:
    plan["itinerary"][0]["day"] = "one"
    return plan


def _first_start_null(plan: dict) -> dict:
    plan["itinerary"][0]["activities"][0]["start"] = None    # the outbound train
    return plan


@pytest.mark.parametrize("spoil, detail", [
    (lambda plan: {k: v for k, v in plan.items() if k != "itinerary"},
     "missing mandatory field 'itinerary'"),
    (_day_as_text, "$.itinerary[0]: field 'day' must be a number, got 'one'"),
    (lambda plan: [], "plan document must be a JSON object"),
    (_first_start_null, "$.itinerary[0].activities[0]: field 'start' must be a string, got None"),
], ids=["no-itinerary", "day-text", "plan-list", "start-null"])
def test_plans_record_with_a_bad_plan_is_scored_undelivered(tmp_path, bench, good_plans, capsys,
                                                            spoil, detail):
    """A plan the parser refuses fails its own query only; the batch is scored."""
    expected = _eval_reports(bench, tmp_path)
    plans = tmp_path / "good-plans.jsonl"
    header, *lines = plans.read_text().splitlines()
    record = json.loads(lines[1])
    record["plan"] = spoil(record["plan"])
    plans.write_text("\n".join([header, lines[0], "", json.dumps(record), *lines[2:]]) + "\n")
    capsys.readouterr()
    reports = _eval_reports(bench, tmp_path)
    err = capsys.readouterr().err
    assert "internal error" not in err and "Traceback" not in err
    refused = reports.pop(record["uid"])
    assert refused["delivered"] is False
    assert refused["notes"].startswith("plan refused: ") and detail in refused["notes"]
    del expected[record["uid"]]
    assert reports == expected


def test_eval_fails_a_plan_that_breaks_an_env_rule(tmp_path, bench, good_plans):
    """The search never runs the env check on its plans; `eval` runs it on every plan."""
    expected = _eval_reports(bench, tmp_path)
    plans = tmp_path / "good-plans.jsonl"
    header, *lines = plans.read_text().splitlines()
    record = json.loads(lines[1])
    outbound = record["plan"]["itinerary"][0]["activities"][0]
    outbound["cost"] += 1                     # no longer price x tickets
    plans.write_text("\n".join([header, lines[0], json.dumps(record), *lines[2:]]) + "\n")
    reports = _eval_reports(bench, tmp_path)
    broken = reports.pop(record["uid"])
    assert broken["delivered"] is True and broken["env"]["overall"] is False
    assert [rule for rule, ok in broken["env"]["rules"].items() if not ok] == [
        "env.cross_city.ticket_cost"]
    del expected[record["uid"]]
    assert reports == expected


def _eval_reports(bench: Path, tmp_path) -> dict:
    """uid -> report of an `eval` of good-plans.jsonl, which must exit 0."""
    assert run_on_benchmark("eval", bench, tmp_path) == 0
    return _written_reports(tmp_path)


def _written_reports(tmp_path) -> dict:
    out = json.loads((tmp_path / "eval.out").read_text())
    return {report["uid"]: report for report in out["reports"]}


@pytest.fixture(scope="module")
def planned(tmp_path_factory) -> tuple[Path, list[str]]:
    """A micro benchmark and the lines of its plans file, made once for the module."""
    root = tmp_path_factory.mktemp("planned")
    bench, plans = root / "bench.jsonl", root / "plans.jsonl"
    assert run("generate", "--db", MICRO, "--difficulty", "easy", "--count", "2",
               "--seed", "7", "--out", str(bench)) == 0
    assert run("plan", "--benchmark", str(bench), "--db", MICRO, "--out", str(plans)) == 0
    return bench, plans.read_text().splitlines()


MISSING = object()


@pytest.fixture(scope="module")
def planned_reports(planned, tmp_path_factory) -> dict:
    """uid -> `eval` report of the module's unedited plans."""
    bench, lines = planned
    root = tmp_path_factory.mktemp("planned-eval")
    (root / "good-plans.jsonl").write_text("\n".join(lines) + "\n")
    return _eval_reports(bench, root)


@pytest.mark.parametrize("key", sorted(FIELDS))
@pytest.mark.parametrize("level", ["activity", "leg"])
def test_null_mistyped_or_missing_plan_field_never_crashes_eval(tmp_path, planned,
                                                                planned_reports, capsys,
                                                                level, key):
    """A null or wrongly typed field leaves that plan undelivered; a missing one may score."""
    bench, (header, *lines) = planned
    for value in (None, {str: 7}.get(FIELDS[key], "7"), MISSING):
        record = json.loads(lines[0])
        activities = record["plan"]["itinerary"][0]["activities"]
        if level == "activity":
            fields = activities[0]
        else:
            fields = next(act for act in activities if "transports" in act)["transports"][0]
        fields.pop(key, None)
        if value is not MISSING:
            fields[key] = value
        (tmp_path / "good-plans.jsonl").write_text(
            "\n".join([header, json.dumps(record), *lines[1:]]) + "\n")
        capsys.readouterr()
        code = run_on_benchmark("eval", bench, tmp_path)
        err = capsys.readouterr().err
        assert "Traceback" not in err and "internal error" not in err
        if value is MISSING:
            assert code in (0, 2)
        else:
            assert code == 0
            reports = _written_reports(tmp_path)
            refused = reports.pop(record["uid"])
            assert refused["delivered"] is False
            assert f"field {key!r} must be a" in refused["notes"]
            assert reports == {uid: report for uid, report in planned_reports.items()
                               if uid != record["uid"]}


@pytest.mark.parametrize("day", ['"x"', "True", "[1]"])
def test_dayactivities_without_a_day_number_fails_the_plan_not_the_run(tmp_path, planned,
                                                                       capsys, day):
    bench, _ = planned
    header, *lines = bench.read_text().splitlines()
    record = json.loads(lines[0])
    record["dsl"].append(f"return dayactivities(plan, {day}) == list()")
    edited, plans = tmp_path / "bench.jsonl", tmp_path / "plans.jsonl"
    edited.write_text("\n".join([header, json.dumps(record), *lines[1:]]) + "\n")
    capsys.readouterr()
    assert run("plan", "--benchmark", str(edited), "--db", MICRO, "--out", str(plans)) == 0
    assert "Traceback" not in capsys.readouterr().err
    _, records = read_jsonl(plans, "plans")
    assert records[0]["uid"] == record["uid"] and records[0]["status"] != FULL_PASS


def _edit_first_query(bench: Path, tmp_path, edit) -> Path:
    header, *lines = bench.read_text().splitlines()
    record = json.loads(lines[0])
    edit(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([header, json.dumps(record), *lines[1:]]) + "\n")
    return bad


@pytest.mark.parametrize("edit, detail", [
    (lambda r: r["skeleton"].update(days="two"), "days must be an integer >= 1, got 'two'"),
    (lambda r: r["skeleton"].update(people=None), "people must be an integer >= 1, got None"),
    (lambda r: r["skeleton"]["specs"].append({"kind": "budget", "value": "lots"}),
     "budget 'lots' is not a number"),
    (lambda r: r["witness"].pop("itinerary"), "missing mandatory field 'itinerary'"),
    (lambda r: r.update(witness=[]), "plan document must be a JSON object"),
    (lambda r: r["witness"]["itinerary"][0]["activities"][0].update(start=None),
     "field 'start' must be a string, got None"),
    (lambda r: r.update(uid="../x"), "uid must be a non-empty string usable as a file name"),
    (lambda r: r.update(uid="a\\b"), "uid must be"),
    (lambda r: r.update(uid=".."), "uid must be"),
    (lambda r: r.update(uid="a\x00b"), "uid must be"),
    (lambda r: r.update(uid=""), "uid must be"),
    (lambda r: r.update(uid=7), "uid must be"),
    (lambda r: r.update(dsl=[1]), "dsl must be a list of program texts"),
    (lambda r: r.update(dsl="return True"), "dsl must be a list of program texts"),
    (lambda r: r.update(dsl=["return True", "return ("]),
     "constraint 2: <dsl>:1:9: error: expected an expression, found 'NEWLINE'"),
], ids=["days-text", "people-null", "budget-text", "witness-no-itinerary", "witness-list",
        "witness-start-null",
        "uid-path", "uid-backslash", "uid-dotdot", "uid-nul", "uid-empty", "uid-number",
        "dsl-number", "dsl-text", "dsl-unclean"])
@pytest.mark.parametrize("command", ["plan", "eval", "milp"])
def test_mistyped_benchmark_record_is_usage_error(tmp_path, bench, good_plans, capsys,
                                                  command, edit, detail):
    bad = _edit_first_query(bench, tmp_path, edit)
    uid = json.loads(bad.read_text().splitlines()[1])["uid"]
    capsys.readouterr()
    assert run_on_benchmark(command, bad, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: benchmark record {uid!r}: ")
    assert detail in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.lp").exists()


@pytest.mark.parametrize("form", NESTING_FORMS)
def test_plan_refuses_a_program_nested_past_the_cap(tmp_path, bench, capsys, form):
    bad = _edit_first_query(bench, tmp_path, lambda r: r.update(dsl=[NESTING_FORMS[form](400)]))
    uid = json.loads(bad.read_text().splitlines()[1])["uid"]
    capsys.readouterr()
    assert run("plan", "--benchmark", str(bad), "--db", MICRO,
               "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: benchmark record {uid!r}: constraint 1: <dsl>:")
    assert "nested deeper than" in err and err.count("\n") == 1
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("command", ["plan", "eval", "milp"])
def test_repeated_benchmark_uid_is_usage_error(tmp_path, bench, good_plans, capsys, command):
    header, *lines = bench.read_text().splitlines()
    uid = json.loads(lines[0])["uid"]
    bad = tmp_path / "twice.jsonl"
    bad.write_text("\n".join([header, *lines, lines[0]]) + "\n")
    capsys.readouterr()
    assert run_on_benchmark(command, bad, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: query uid {uid!r} occurs more than once\n"


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_budget_secs_inf_sidecars_are_strict_json(tmp_path, bench):
    generated, plans = tmp_path / "inf.jsonl", tmp_path / "plans-inf.jsonl"
    assert run("generate", "--db", MICRO, "--count", "2", "--seed", "11",
               "--budget-secs", "inf", "--out", str(generated)) == 0
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--budget-secs", "inf", "--out", str(plans)) == 0
    for out in (generated, plans):
        text = Path(str(out) + ".manifest.json").read_text()
        record = json.loads(text, parse_constant=_reject_constant)
        assert record["config"]["budget_secs"] == "inf"



@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_manifest_refuses_a_non_finite_value(tmp_path, value):
    manifest = RunManifest(command="plan", inputs={}, config={"budget_secs": value})
    with pytest.raises(ValueError):
        manifest.hash
    with pytest.raises(ValueError):
        manifest.write_sidecar(tmp_path / "out.jsonl")
    assert not (tmp_path / "out.jsonl.manifest.json").exists()

def _spoiled_root(tmp_path, relative, old, new) -> Path:
    root = tmp_path / "db"
    shutil.copytree(MICRO, root)
    path = root / relative
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return root


@pytest.mark.parametrize("relative, old, new, detail", [
    ("fares.cfg", "taxi_per_km = 2.5", "taxi_per_km = abc",
     "fares.cfg:9: bad number 'abc' for 'taxi_per_km'"),
    ("fares.cfg", "metro_access_minutes = 2", "metro_access_minutes = 2.5",
     "fares.cfg:6: bad number '2.5' for 'metro_access_minutes'"),
    ("fares.cfg", "walk_speed_kmh = 5", "walk_speed_kmh = 0",
     "fares.cfg:2: walk_speed_kmh must be positive and finite, got '0'"),
    ("fares.cfg", "metro_band_km = 6", "metro_band_km = NaN",
     "fares.cfg:5: metro_band_km must be positive and finite, got 'NaN'"),
    ("fares.cfg", "taxi_speed_kmh = 40", "taxi_speed_kmh = -5",
     "fares.cfg:7: taxi_speed_kmh must be positive and finite, got '-5'"),
    ("fares.cfg", "metro_access_minutes = 2", "metro_access_minutes = -3",
     "fares.cfg:6: metro_access_minutes must be non-negative, got '-3'"),
    ("fares.cfg", "taxi_per_km = 2.5", "taxi_per_km = Infinity",
     "fares.cfg:9: taxi_per_km must be non-negative and finite, got 'Infinity'"),
    ("Beta/attractions.csv", ",40.00,", ",abc,", "attractions.csv:2: bad number 'abc'"),
    ("Beta/attractions.csv", ",31.2060,", ",1e400,",
     "attractions.csv:2: bad number '1e400' in column 'latitude'"),
    ("Beta/intercity.csv", ",120.00", ",NaN",
     "intercity.csv:2: bad number 'NaN' in column 'cost'"),
    ("Beta/attractions.csv", "Stone Bridge,", "Harbor Park,", "duplicate attraction name"),
    # Alpha's G11 arrives at Beta Station, which Beta's poi.csv then does not locate
    ("Beta/poi.csv", "Beta Station,", "Beta Depot,",
     "error: Beta: station 'Beta Station' of route 'G11' has no coordinates"),
], ids=["fare-decimal", "fare-int", "fare-zero-speed", "fare-nan-band", "fare-negative-speed",
        "fare-negative-access", "fare-infinite-fare", "csv-number", "csv-float-overflow",
        "csv-nan-cost", "csv-duplicate", "station-unlocated"])
@pytest.mark.parametrize("command", ["generate", "plan", "milp"])
def test_bad_data_root_is_usage_error(tmp_path, bench, capsys, command, relative, old, new,
                                      detail):
    root = str(_spoiled_root(tmp_path, relative, old, new))
    out = tmp_path / "out.jsonl"
    source = ["--db", root] if command == "generate" else ["--benchmark", str(bench),
                                                           "--db", root]
    capsys.readouterr()
    assert run(command, *source, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert detail in err
    assert not out.exists()


@pytest.mark.parametrize("value", [None, 5], ids=["missing", "number"])
@pytest.mark.parametrize("command, artifact", [("plan", "benchmark"), ("eval", "benchmark"),
                                               ("milp", "benchmark"), ("eval", "plans")])
def test_header_without_a_string_manifest_hash_is_usage_error(tmp_path, bench, good_plans,
                                                              capsys, command, artifact, value):
    path = bench if artifact == "benchmark" else tmp_path / "good-plans.jsonl"
    header, *lines = path.read_text().splitlines()
    spoiled = json.loads(header)
    if value is None:
        del spoiled["manifest_hash"]
    else:
        spoiled["manifest_hash"] = value
    path.write_text("\n".join([json.dumps(spoiled), *lines]) + "\n")
    capsys.readouterr()
    assert run_on_benchmark(command, bench, tmp_path) == 2
    assert capsys.readouterr().err == f"error: {path}: header carries no string 'manifest_hash'\n"
    assert not (tmp_path / f"{command}.out").exists()


# every error class of the package, and the one the model transport defines
ERROR_CLASSES = [value for value in vars(errors).values()
                 if isinstance(value, type) and issubclass(value, errors.TripsmithError)]
ERROR_CLASSES.append(TransportError)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda error: error.__name__)
def test_exit_2_is_exactly_an_input_error(monkeypatch, capsys, error):
    """Bad input is one `error:` line and exit 2; every other error is a fault, exit 1."""
    def fail(args):
        raise error("spoiled")

    monkeypatch.setattr(cli, "cmd_milp", fail)
    capsys.readouterr()
    code = run("milp", "--benchmark", "b.jsonl", "--db", "db", "--out", "out")
    err = capsys.readouterr().err
    if issubclass(error, errors.InputError):
        assert (code, err) == (2, "error: spoiled\n")
    else:
        assert (code, err) == (1, "internal error: spoiled\n")


def test_missing_data_root_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such-root"
    capsys.readouterr()
    assert run("generate", "--db", str(missing), "--out", str(tmp_path / "out.jsonl")) == 2
    assert capsys.readouterr().err == f"error: data root is not a directory: {missing}\n"


@pytest.mark.parametrize("command", ["generate", "plan", "eval"])
def test_out_in_a_missing_directory_is_usage_error_before_any_work(
        tmp_path, bench, good_plans, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("certify", "dfs_search", "evaluate_plan"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "missing" / "out.jsonl"
    source = {"generate": ["--db", MICRO],
              "plan": ["--benchmark", str(bench), "--db", MICRO],
              "eval": ["--benchmark", str(bench), "--plans",
                       str(tmp_path / "good-plans.jsonl"), "--db", MICRO]}[command]
    capsys.readouterr()
    assert run(command, *source, "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: --out {out} is not a file in an existing "
                                       "directory\n")
    assert not out.parent.exists()


def test_plan_trace_in_a_missing_directory_is_usage_error_before_any_work(
        tmp_path, bench, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("search started before --trace was checked")

    monkeypatch.setattr(cli, "dfs_search", no_work)
    out = tmp_path / "plans.jsonl"
    trace = tmp_path / "missing" / "trace.jsonl"
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--trace", str(trace), "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: --trace {trace} is not a file in an existing "
                                       "directory\n")
    assert sorted(tmp_path.iterdir()) == before     # no plans, sidecar or trace


def test_milp_out_naming_a_file_is_usage_error(tmp_path, bench, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    capsys.readouterr()
    assert run("milp", "--benchmark", str(bench), "--db", MICRO, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert out.read_text() == "kept\n"


def test_milp_unwritable_lp_file_is_usage_error(tmp_path, bench, capsys):
    out_dir = tmp_path / "m"
    (out_dir / "q0000.lp").mkdir(parents=True)
    capsys.readouterr()
    assert run("milp", "--benchmark", str(bench), "--db", MICRO,
               "--slots-per-day", "12", "--out", str(out_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write LP file {out_dir / 'q0000.lp'}: ")
    assert err.count("\n") == 1
    assert [path.name for path in out_dir.iterdir()] == ["q0000.lp"]
