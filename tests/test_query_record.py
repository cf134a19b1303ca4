"""Every field of a benchmark query record is typed where the record is read.

One record of a micro benchmark is edited at a time: each skeleton field, and
for each constraint kind its `value` and `extra`, is set to null, to a wrong
JSON type and to an out-of-range value, or deleted. `plan`, `eval` and `milp`
must each refuse a broken record with one `error: benchmark record ...` line
and exit 2, before writing anything.
"""

import json
from pathlib import Path

import pytest

from tripsmith.cli import main

from .conftest import FIXTURES

MICRO = str(FIXTURES / "micro")
DELETE = object()

# one valid spec of each constraint kind on the micro Alpha -> Beta trip
VALID_SPECS = {
    "transport_type": {"kind": "transport_type", "value": "taxi", "extra": {}},
    "cuisine": {"kind": "cuisine", "value": "Hotpot", "extra": {}},
    "attraction_type": {"kind": "attraction_type", "value": "park", "extra": {}},
    "hotel_feature": {"kind": "hotel_feature", "value": "Pool", "extra": {}},
    "specific_poi": {"kind": "specific_poi", "value": "Harbor Park", "extra": {}},
    "rooms": {"kind": "rooms", "value": 1, "extra": {"room_type": 2}},
    "budget": {"kind": "budget", "value": "12000", "extra": {}},
}

# field -> the values that break it (DELETE removes the field)
SKELETON_BREAKS = {
    "origin": [None, 5, DELETE],
    "target": [None, ["Beta"], DELETE],
    "days": [None, "2", True, 1.5, 0, DELETE],
    "people": [None, "2", True, 0, DELETE],
    "specs": [None, {}, [1], DELETE],
}
VALUE_BREAKS = {
    "transport_type": [None, 3, "boat", DELETE],
    "cuisine": [None, 3, "Hot\0pot", DELETE],
    "attraction_type": [None, ["park"], "\0", DELETE],
    "hotel_feature": [None, True, "Pool\0", DELETE],
    "specific_poi": [None, {}, "Harbor\0Park", DELETE],
    "rooms": [None, "1", True, 0, DELETE],
    "budget": [None, [1], True, "lots", "NaN", "Infinity", DELETE],
}


def _set(record: dict, key, value) -> None:
    if value is DELETE:
        del record[key]
    else:
        record[key] = value


def _case(name: str, value, kind, field, within="", valid=False):
    """A test case setting `field` of the skeleton (`kind` None) or of the
    one spec of `kind` (of its `extra` when `within` says so) to `value`."""
    label = f"{name}-deleted" if value is DELETE else f"{name}={value!r}"

    def edit(record):
        _set(record[within] if within else record, field, value)
    return pytest.param(kind, edit, valid, id=label)


def _cases():
    for field, values in SKELETON_BREAKS.items():
        for value in values:
            yield _case(field, value, None, field)
    for kind, values in VALUE_BREAKS.items():
        for value in values:
            yield _case(f"{kind}.value", value, kind, "value")
    for kind in VALID_SPECS:
        for value in (None, [1], "room_type", DELETE):
            yield _case(f"{kind}.extra", value, kind, "extra",
                        valid=value is DELETE and kind != "rooms")
    for value in (None, "2", 0, DELETE):
        yield _case("rooms.extra.room_type", value, "rooms", "room_type", within="extra")
    for value in (None, 3, "boat", DELETE):
        yield _case("cuisine.kind", value, "cuisine", "kind")


@pytest.fixture(scope="module")
def one_query(tmp_path_factory) -> tuple[str, dict, Path]:
    """(header line, first record, plans file) of a one-query micro benchmark."""
    root = tmp_path_factory.mktemp("query-record")
    bench, plans = root / "bench.jsonl", root / "plans.jsonl"
    assert main(["generate", "--db", MICRO, "--difficulty", "easy", "--count", "1",
                 "--seed", "11", "--origin", "Alpha", "--target", "Beta",
                 "--out", str(bench)]) == 0
    assert main(["plan", "--benchmark", str(bench), "--db", MICRO,
                 "--out", str(plans)]) == 0
    header, line = bench.read_text().splitlines()
    return header, json.loads(line), plans


def _run(command: str, bench: Path, plans: Path, out_dir: Path) -> int:
    argv = [command, "--benchmark", str(bench), "--db", MICRO,
            "--out", str(out_dir / f"{command}.out")]
    if command == "eval":
        argv += ["--plans", str(plans)]
    return main(argv)


@pytest.mark.parametrize("kind, edit, valid", _cases())
@pytest.mark.parametrize("command", ["plan", "eval", "milp"])
def test_every_query_field_is_typed_where_it_is_read(tmp_path, capsys, one_query,
                                                     command, kind, edit, valid):
    header, record, plans = one_query
    record = json.loads(json.dumps(record))
    if kind is None:
        edit(record["skeleton"])
    else:
        spec = json.loads(json.dumps(VALID_SPECS[kind]))
        record["skeleton"]["specs"] = [spec]
        edit(spec)
    bench = tmp_path / "bench.jsonl"
    bench.write_text(f"{header}\n{json.dumps(record)}\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    code = _run(command, bench, plans, out_dir)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err
    if valid:
        assert code == 0, err
        return
    assert code == 2
    assert err.startswith(f"error: benchmark record {record['uid']!r}")
    assert err.count("\n") == 1
    assert list(out_dir.iterdir()) == []
