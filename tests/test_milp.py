import dataclasses
import hashlib
import json
import random
import time
from collections import Counter
from decimal import Decimal

import pytest

from tripsmith.cli import main
from tripsmith.errors import BuildError, InputError, SolveRefusedError
from tripsmith.milp import (
    DOWNSAMPLE,
    MilpModel,
    MilpParams,
    VarInfo,
    check_assignment,
    count_sizes,
    decode_assignment,
    micro_solve,
    slice_from_dataset,
    synthetic_slice,
    write_lp,
)
from tripsmith.milp.build import _Builder, _flat, open_slots
from tripsmith.plan import serialize_plan, parse_plan
from tripsmith.sandbox import load_dataset
from tripsmith.timeutil import to_minutes

from .conftest import FIXTURES

from .lp_reader import _CATEGORIES, parse_lp, read_model


def random_params(rng: random.Random) -> MilpParams:
    return MilpParams(
        hotel_num=rng.randint(0, 2),
        attr_num=rng.randint(0, 3),
        rest_num=rng.randint(0, 2),
        station_num=rng.randint(1, 2),
        go_num=rng.randint(1, 3),
        back_num=rng.randint(1, 3),
        time_step=rng.choice((4, 6, 8)),
        days=1,
    )


def test_params_validation():
    with pytest.raises(InputError):
        MilpParams(1, 1, 1, 1, 1, 1, time_step=-4)
    with pytest.raises(InputError):
        MilpParams(1, 1, 1, 1, 1, 1, time_step=5, days=2)
    with pytest.raises(InputError):
        MilpParams(-1, 1, 1, 1, 1, 1, time_step=4)
    with pytest.raises(InputError, match="slots_per_day must be <= 1440"):
        MilpParams(1, 1, 1, 1, 1, 1, time_step=2 * 2000, days=2)
    # minutes map to slots by `minutes // slot_minutes` and `minutes * spd // 1440`,
    # which agree only when the slots per day divide 1440
    for spd in (7, 1000):
        with pytest.raises(InputError, match=f"slots_per_day must divide 1440.*got {spd}"):
            MilpParams(1, 1, 1, 1, 1, 1, time_step=2 * spd, days=2)
    MilpParams(1, 1, 1, 1, 1, 1, time_step=1440)


@pytest.mark.parametrize("params", [
    DOWNSAMPLE,
    MilpParams(1, 0, 0, 1, 1, 1, time_step=2),
    MilpParams(0, 0, 0, 1, 1, 1, time_step=4),
    MilpParams(1, 1, 1, 1, 1, 1, 4),
    MilpParams(1, 1, 1, 1, 1, 1, 6),
    MilpParams(1, 1, 1, 1, 2, 2, 6),
    MilpParams(1, 2, 1, 1, 2, 2, 6),
    MilpParams(1, 0, 0, 1, 1, 1, 4),
    MilpParams(2, 10, 5, 5, 10, 10, 24),
    MilpParams(0, 1, 0, 1, 1, 1, time_step=6),
    MilpParams(1, 1, 0, 1, 1, 1, time_step=8),
    MilpParams(0, 0, 0, 0, 0, 0, time_step=6, days=3),
    *(random_params(random.Random(seed)) for seed in range(8)),
])
def test_synthetic_slice_has_the_dimensions_it_was_given(params):
    assert synthetic_slice(params).params == params


@pytest.mark.parametrize("fixture", ["micro", "mini"])
def test_dataset_slice_dimensions_are_the_ones_milp_reports(tmp_path, fixture):
    db = str(FIXTURES / fixture)
    bench, out = tmp_path / "bench.jsonl", tmp_path / "milp"
    assert main(["generate", "--db", db, "--difficulty", "easy", "--count", "4",
                 "--seed", "7", "--out", str(bench)]) == 0
    assert main(["milp", "--benchmark", str(bench), "--db", db, "--out", str(out)]) == 0
    skeletons = {record["uid"]: record["skeleton"]
                 for record in map(json.loads, bench.read_text().splitlines()[1:])}
    models = json.loads((out / "sizes.json").read_text())["models"]
    assert sorted(entry["uid"] for entry in models) == sorted(skeletons)
    dataset = load_dataset(db)
    for entry in models:
        sk = skeletons[entry["uid"]]
        # milp's defaults: 2 hotels, 10 attractions, 5 restaurants, 24 slots a day
        slice_ = slice_from_dataset(dataset, sk["origin"], sk["target"], 2, 10, 5,
                                    24 * sk["days"], sk["days"])
        assert dataclasses.asdict(slice_.params) == entry["params"], entry["uid"]
        grid = entry["params"]["days"], entry["params"]["time_step"]
        assert grid == (sk["days"], 24 * sk["days"]), entry["uid"]


@pytest.mark.parametrize("table", ["attraction", "restaurant"])
def test_hours_shorter_than_rows_is_build_error(tmp_path, table):
    slice_ = synthetic_slice(DOWNSAMPLE)
    getattr(slice_, f"{table}_hours").pop()
    with pytest.raises(BuildError, match=rf"slice carries \d+ {table} hours"):
        write_lp(slice_, None, tmp_path / "model.lp")


def _text_hours() -> list[tuple[tuple[int, int], str, str]]:
    """(hours in the slice, opening text, closing text) of every attraction and
    restaurant of the micro and mini slices and of the DOWNSAMPLE synthetic slice,
    whose text is drawn as the synthetic rows once carried it."""
    pairs = []
    for name in ("micro", "mini"):
        dataset = load_dataset(FIXTURES / name)
        for origin, target in (("Alpha", "Beta"), ("Beta", "Alpha")):
            slice_ = slice_from_dataset(dataset, origin, target, 0, 100, 100, 24, 1)
            for rows, hours in ((slice_.attractions, slice_.attraction_hours),
                                (slice_.restaurants, slice_.restaurant_hours)):
                assert len(rows) == len(hours) > 0
                pairs += [(pair, row["opentime"], row["endtime"])
                          for pair, row in zip(hours, rows)]
    slice_ = synthetic_slice(DOWNSAMPLE)
    rng = random.Random(0)
    for pair in slice_.attraction_hours:
        open_h, close_h = rng.choice((7, 8, 9)), rng.choice((17, 18, 21, 22))
        pairs.append((pair, f"{open_h:02d}:00", f"{close_h:02d}:00"))
    pairs += [(pair, "06:00", "22:00") for pair in slice_.restaurant_hours]
    return pairs


def test_open_slots_match_the_rule_on_the_rows_text():
    pairs = _text_hours()
    divisors = [spd for spd in range(1, 1441) if 1440 % spd == 0]
    for spd in divisors:
        width = 1440 // spd
        for hours, opentime, endtime in pairs:
            want = [int(to_minutes(opentime) <= start and start + width <= to_minutes(endtime))
                    for start in range(0, 1440, width)]
            assert open_slots(hours, width) == want, (hours, spd)


def test_count_sizes_matches_emission_on_random_configs():
    rng = random.Random(41)
    for trial in range(8):
        params = random_params(rng)
        sizes = count_sizes(params)
        model = read_model(synthetic_slice(params, trial))
        assert Counter(row[4] for row in model.rows) == {
            k: v for k, v in sizes.constraints.items() if v
        }, params
        assert Counter(info.category for info in model.variables.values()) == {
            k: v for k, v in sizes.variables.items() if v
        }, params
        assert len(model.rows) == sizes.constraint_total
        assert len(model.variables) == sizes.variable_total


def test_downsample_sizes_match_published_scale():
    sizes = count_sizes(DOWNSAMPLE)
    assert sizes.variables["y"] == 22 * 22 * 3 * 24 == 34848
    assert 36000 * 0.8 <= sizes.variable_total <= 36000 * 1.2
    assert sizes.constraints["urban"] == 7 * 22 * 22 * 3 * 24 + 4 * 22 * 24 == 246048
    assert 320000 * 0.8 <= sizes.constraint_total <= 320000 * 1.2


def test_downsample_emission_under_ten_seconds(tmp_path):
    path = tmp_path / "model.lp"
    start = time.monotonic()
    counts = write_lp(synthetic_slice(DOWNSAMPLE), None, path)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"emission took {elapsed:.1f}s"
    rows = sum(counts.values())
    assert rows == count_sizes(DOWNSAMPLE).constraint_total
    assert path.read_text().count("\n") > rows


def test_trivial_params_sum_rows():
    params = MilpParams(1, 0, 0, 1, 1, 1, time_step=2)
    model = read_model(synthetic_slice(params))
    one_rows = [row for row in model.rows if row[0].startswith("occ_one_")]
    assert len(one_rows) == params.time_step


def test_zero_poi_categories_have_zero_counts():
    params = MilpParams(0, 0, 0, 1, 1, 1, time_step=4)
    sizes = count_sizes(params)
    assert sizes.constraints["hotel"] == 0
    assert sizes.constraints["attraction"] == 0
    assert sizes.constraints["restaurant"] == 0
    model = read_model(synthetic_slice(params))
    categories = Counter(row[4] for row in model.rows)
    assert "hotel" not in categories and "attraction" not in categories


def test_each_family_shares_one_var_info():
    """A model holds one `VarInfo` per declared family, not one per variable."""
    params = MilpParams(2, 3, 2, 2, 3, 2, 24, days=2)
    variables = _Builder(synthetic_slice(params), None).vars
    infos = {id(info): info for info in variables.values()}
    families = {k: v for k, v in count_sizes(params).variables.items() if v}
    assert sorted(info.category for info in infos.values()) == sorted(families)
    assert len(variables) == sum(families.values())


def test_undeclared_reference_is_build_error_naming_row_and_variable():
    builder = _Builder(synthetic_slice(MilpParams(1, 1, 1, 1, 1, 1, 4)), None)
    builder.check_declared("query", builder.attr, builder.hotel)
    with pytest.raises(BuildError, match="^query rows reference undeclared ghost$"):
        builder.check_declared("query", [[builder.rest[0][0], "ghost"]])


def test_every_build_validates_references(tmp_path, monkeypatch):
    """Every name a written row reads is checked against the declared
    variables by `check_declared`, under the row's category, and each
    declared name is looked up once per build."""
    checked: dict[str, set] = {}
    looked: Counter = Counter()
    check_declared, declare_variables = _Builder.check_declared, _Builder.declare_variables

    class Lookups(dict):
        def __contains__(self, name):
            looked[name] += 1
            return super().__contains__(name)

    def record_families(builder, category, *families):
        checked.setdefault(category, set()).update(*map(_flat, families))
        check_declared(builder, category, *families)

    def declare_counted(builder):
        builder.vars = Lookups()
        declare_variables(builder)

    monkeypatch.setattr(_Builder, "check_declared", record_families)
    monkeypatch.setattr(_Builder, "declare_variables", declare_counted)
    params = MilpParams(1, 1, 1, 1, 1, 1, 4)
    path = tmp_path / "model.lp"
    counts = write_lp(synthetic_slice(params), 800, path)
    assert set(checked) == set(counts)
    rows = parse_lp(path.read_text())["rows"]
    for name, (terms, _, _) in rows.items():
        assert {var for _, var in terms} <= checked[_CATEGORIES[name.split("_")[0]]], name
    assert len(looked) == count_sizes(params).variable_total
    assert set(looked.values()) == {1}


def test_lp_row_count_equals_size_total(tmp_path):
    params = MilpParams(1, 1, 1, 1, 1, 1, 6)
    path = tmp_path / "toy.lp"
    write_lp(synthetic_slice(params), None, path)
    parsed = parse_lp(path.read_text())
    assert len(parsed["rows"]) == count_sizes(params).constraint_total


def test_lp_emission_is_byte_identical(tmp_path):
    params = MilpParams(1, 1, 1, 1, 2, 2, 6)
    for name in ("a.lp", "b.lp"):
        write_lp(synthetic_slice(params), None, tmp_path / name)
    assert (tmp_path / "a.lp").read_bytes() == (tmp_path / "b.lp").read_bytes()


@pytest.mark.parametrize("params, budget, digest", [
    (DOWNSAMPLE, None, "e4fa95e10ee9546328fdae4b5d46ebb986914ae5329f05a3e8393143678c2972"),
    (DOWNSAMPLE, 800, "e8bb00575759b537eb531b8f71182b3967f816fc4a4443654d5ddd72a64d2e4e"),
    (MilpParams(2, 3, 2, 2, 3, 3, 48, days=2), Decimal("1234.50"),
     "9b0ae6542163a9be9ac6c87728b373f8d4202b2af8dbb9a4452682797cd5a7a3"),
    (MilpParams(0, 0, 0, 1, 1, 1, 4), None,
     "48bf98d2eaa349de86f43fcfc752b15c01da53d88abb0679b11f3175f92efdf2"),
    (MilpParams(1, 1, 1, 1, 1, 1, 2), None,
     "4e158af986397dd83fe67dbd481e275fa8652f79411d7d4c12d158cd11df3f6f"),
    (MilpParams(1, 2, 1, 2, 2, 2, 3), None,
     "02a7d7e423c82e3ee1a4da04827ff16a3604ff0d607042456f41b73e7e0a1417"),
], ids=["downsample", "downsample-budget", "two-days-budget", "no-pois", "two-slots",
        "three-slots"])
def test_synthetic_lp_bytes_are_pinned(tmp_path, params, budget, digest):
    """What the builder emits, pinned where the fixtures do not reach: a
    hundred routes each way, drawn opening hours, several days, no POIs, and
    two or three slots, where every t+1 and t+2 of a ride is the last slot.
    A refactor of the builder keeps these bytes; a model change re-pins them
    and says why."""
    path = tmp_path / "model.lp"
    write_lp(synthetic_slice(params, 3), budget, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _ride_rows_by_oracle(params: MilpParams) -> dict:
    """The urban and transit rows of a model of dimensions `params`, as
    `parse_lp` reads them, spelled here from the model's definition: a ride
    y_i_j_k_t leaves i at t after an event, is in mode k at t+1 with an event
    there, and is at j at t+2, each slot past the last standing for the last."""
    L, K, T = params.total_num, params.trans_num, params.time_step
    one, less = Decimal(1), Decimal(-1)
    zero, five = Decimal(0), Decimal(-5)

    def row(plus, minus, sense="<=", rhs=zero):
        return (tuple(sorted([(one, name) for name in plus] + [(less, name) for name in minus])),
                sense, rhs)

    rows = {}
    for t in range(T):
        t1, t2 = min(t + 1, T - 1), min(t + 2, T - 1)
        for i in range(L):
            for j in range(L):
                for k in range(K):
                    tag = f"_{i}_{j}_{k}_{t}"
                    y = f"y{tag}"
                    six = (f"u_{i}_{t}", f"event_{t}", f"u_{L + k}_{t1}", f"u_{L + k}_{t1}",
                           f"event_{t1}", f"u_{j}_{t2}")
                    for n, name in enumerate(six):
                        rows[f"urb_l{n}{tag}"] = row([y], [name])
                    rows[f"urb_ge{tag}"] = row([y], six, ">=", five)
            outs = [f"y_{i}_{j}_{k}_{t}" for j in range(L) for k in range(K)]
            ins = [f"y_{j}_{i}_{k}_{t}" for j in range(L) for k in range(K)]
            rows[f"urb_outu_{i}_{t}"] = row(outs, [f"u_{i}_{t}"])
            rows[f"urb_oute_{i}_{t}"] = row(outs, [f"event_{t}"])
            rows[f"urb_inu_{i}_{t}"] = row(ins, [f"u_{i}_{t2}"])
            rows[f"urb_ine_{i}_{t}"] = row(ins, [f"event_{t1}"])
            for k in range(K):
                mode = [f"u_{L + k}_{t1}"]
                rows[f"trn_dep_{i}_{k}_{t}"] = row(
                    [f"y_{i}_{j}_{k}_{t}" for j in range(L)], mode)
                rows[f"trn_arr_{i}_{k}_{t}"] = row(
                    [f"y_{j}_{i}_{k}_{t}" for j in range(L)], mode)
    return rows


@pytest.mark.parametrize("params", [
    MilpParams(1, 1, 1, 1, 1, 1, 2), MilpParams(1, 2, 1, 2, 2, 2, 3),
    MilpParams(1, 0, 1, 1, 1, 1, 4, days=2),
], ids=["two-slots", "three-slots", "two-days"])
def test_ride_rows_name_the_slots_the_oracle_names(tmp_path, params):
    path = tmp_path / "model.lp"
    write_lp(synthetic_slice(params), None, path)
    rows = parse_lp(path.read_text())["rows"]
    want = _ride_rows_by_oracle(params)
    got = {name: rows[name] for name in rows if name.startswith(("urb_", "trn_"))}
    assert got.keys() == want.keys()
    wrong = [name for name in want if got[name] != want[name]]
    assert not wrong, f"{len(wrong)} rows differ from the oracle, first {wrong[0]}"


def test_lp_empty_objective_header(tmp_path):
    path = tmp_path / "model.lp"
    write_lp(synthetic_slice(MilpParams(0, 0, 0, 0, 0, 0, 4)), None, path)
    assert "Minimize\n obj: 0\n" in path.read_text()


def test_lp_reader_roundtrip_matches_model(tmp_path):
    params = MilpParams(1, 2, 1, 1, 2, 2, 6)
    db_slice = synthetic_slice(params)
    path = tmp_path / "model.lp"
    counts = write_lp(db_slice, 800, path)
    parsed = parse_lp(path.read_text())
    assert len(parsed["rows"]) == sum(counts.values())
    builder = _Builder(db_slice, 800)
    cost = sorted((Decimal(str(c)), v) for c, v in builder.cost_terms() if c != 0)
    assert parsed["objective"] == cost
    assert parsed["rows"]["qry_budget"] == (tuple(cost), "<=", Decimal(800))
    for kind, section in (("binary", "binaries"), ("integer", "generals")):
        names = sorted(name for name, i in builder.vars.items() if i.kind == kind)
        assert parsed[section] == names
    assert parsed["bounds"] == [f"{i.lo} <= {name} <= {i.hi}"
                                for name, i in builder.vars.items() if i.kind == "integer"]


def test_unwritable_path_raises(tmp_path):
    params = MilpParams(1, 0, 0, 1, 1, 1, 4)
    from tripsmith.errors import TripsmithError

    with pytest.raises(TripsmithError):
        write_lp(synthetic_slice(params), None, tmp_path / "no_dir" / "toy.lp")


# -- micro solver -------------------------------------------------------------------


def test_contradictory_rows_are_infeasible():
    model = MilpModel(
        variables={"u0": VarInfo("binary"), "u1": VarInfo("binary")},
        rows=[
            ("sum_one", ((1, "u0"), (1, "u1")), "=", 1, "occupancy"),
            ("u0_zero", ((1, "u0"),), "<=", 0, "occupancy"),
            ("u1_zero", ((1, "u1"),), "<=", 0, "occupancy"),
        ],
    )
    assert micro_solve(model) is None


def test_one_hotel_toy_is_feasible_and_one_hot():
    params = MilpParams(1, 0, 0, 1, 1, 1, time_step=4)
    model = read_model(synthetic_slice(params, 3))
    assignment = micro_solve(model)
    assert assignment is not None
    assert check_assignment(model, assignment) == []
    for t in range(params.time_step):
        total = sum(assignment[f"u_{i}_{t}"]
                    for i in range(params.total_num + params.trans_num))
        assert total == 1
    assert sum(assignment[f"hotel_0_{d}"] for d in range(params.days)) == 1


def test_solver_refuses_oversized_models():
    params = MilpParams(2, 10, 5, 5, 10, 10, 24)
    model = MilpModel(_Builder(synthetic_slice(params), None).vars, [])
    with pytest.raises(SolveRefusedError, match="at most 2000 variables"):
        micro_solve(model)


def test_feasible_assignments_satisfy_every_row():
    rng = random.Random(99)
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
    assert solved >= 10   # most toys of this shape are solvable


def test_check_constants_pin_closed_slots():
    params = MilpParams(0, 1, 0, 1, 1, 1, time_step=6)
    slice_ = synthetic_slice(params, 0)
    slice_.attraction_hours[0] = (480, 720)
    model = read_model(slice_)
    # 4-hour slots: only slot 2 ([08:00,12:00)) is fully inside the hours
    closed_rows = [row for row in model.rows
                   if row[0].startswith("att_check_0_") and row[3] == 0]
    assert len(closed_rows) == params.time_step - 1
    open_row = next(row for row in model.rows if row[0] == "att_check_0_2")
    assert open_row[1:4] == (((1, f"u_{params.hotel_num}_2"),), "<=", 1)


def test_decoded_assignment_parses_as_plan():
    params = MilpParams(1, 1, 0, 1, 1, 1, time_step=8)
    slice_ = synthetic_slice(params, 1)
    model = read_model(slice_)
    assignment = micro_solve(model)
    assert assignment is not None
    plan = decode_assignment(slice_, assignment, "Away", "City", people=1)
    text = json.dumps(serialize_plan(plan), sort_keys=True)
    assert json.dumps(serialize_plan(parse_plan(text)), sort_keys=True) == text
    kinds = [act["type"] for day in plan.itinerary for act in day.activities]
    assert kinds.count("train") == 2


def test_budget_query_constraint_row():
    params = MilpParams(1, 1, 1, 1, 1, 1, 6)
    model = read_model(synthetic_slice(params), 800)
    query_rows = [row for row in model.rows if row[4] == "query"]
    assert len(query_rows) == 1
    _, _, sense, rhs, _ = query_rows[0]
    assert sense == "<="
    assert rhs == Decimal("800")
