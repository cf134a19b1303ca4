import json
import shutil
from pathlib import Path

import pytest

from tripsmith.cli import main
from tripsmith.llm import FaultInjectingTransport, LlmRanker
from tripsmith.manifest import read_jsonl

from .conftest import FIXTURES

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


def test_plan_with_jobs_matches_serial(tmp_path, bench):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--budget-secs", "10", "--out", str(serial)) == 0
    assert run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--budget-secs", "10", "--jobs", "3", "--out", str(parallel)) == 0
    assert serial.read_bytes() == parallel.read_bytes()


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


def test_plan_replay_requires_transcript(tmp_path, bench):
    code = run("plan", "--benchmark", str(bench), "--db", MICRO,
               "--ranker", "replay", "--out", str(tmp_path / "p.jsonl"))
    assert code == 2


def test_fault_injection_logs_one_event_per_fault(tmp_path, bench):
    from tripsmith.cli import cmd_plan

    transports = []

    def factory(record):
        transport = FaultInjectingTransport(fail_every=1)
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


def test_milp_invalid_slots_is_usage_error(tmp_path, bench):
    code = run("milp", "--benchmark", str(bench), "--db", MICRO,
               "--slots-per-day", "-3", "--out", str(tmp_path / "m"))
    assert code == 2


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
