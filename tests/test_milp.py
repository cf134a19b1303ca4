import gc
import json
import random
import time
from collections import Counter
from decimal import Decimal

import pytest

from tripsmith.errors import BuildError, InputError, SolveRefusedError
from tripsmith.milp import (
    DOWNSAMPLE,
    MilpModel,
    MilpParams,
    VarInfo,
    build_model,
    check_assignment,
    count_sizes,
    decode_assignment,
    micro_solve,
    render_lp,
    synthetic_slice,
    write_lp,
)
from tripsmith.plan import serialize_plan, parse_plan

from .lp_reader import parse_lp


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
        MilpParams(1, 1, 1, 1, 1, 1, time_step=-4).validate()
    with pytest.raises(InputError):
        MilpParams(1, 1, 1, 1, 1, 1, time_step=5, days=2).validate()
    with pytest.raises(InputError):
        MilpParams(-1, 1, 1, 1, 1, 1, time_step=4).validate()
    with pytest.raises(InputError, match="slots_per_day must be <= 1440"):
        MilpParams(1, 1, 1, 1, 1, 1, time_step=2 * 2000, days=2).validate()
    # minutes map to slots by `minutes // slot_minutes` and `minutes * spd // 1440`,
    # which agree only when the slots per day divide 1440
    for spd in (7, 1000):
        with pytest.raises(InputError, match=f"slots_per_day must divide 1440.*got {spd}"):
            MilpParams(1, 1, 1, 1, 1, 1, time_step=2 * spd, days=2).validate()
    MilpParams(1, 1, 1, 1, 1, 1, time_step=1440).validate()


def test_slice_mismatch_is_build_error():
    params = MilpParams(2, 2, 2, 1, 1, 1, 4)
    short = synthetic_slice(MilpParams(1, 2, 2, 1, 1, 1, 4))
    with pytest.raises(BuildError, match="hotels"):
        build_model(short, params)


def test_count_sizes_matches_emission_on_random_configs():
    rng = random.Random(41)
    for trial in range(8):
        params = random_params(rng)
        sizes = count_sizes(params)
        model = build_model(synthetic_slice(params, trial), params)
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


def test_downsample_emission_under_ten_seconds():
    start = time.monotonic()
    model = build_model(synthetic_slice(DOWNSAMPLE), DOWNSAMPLE)
    text = render_lp(model)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"emission took {elapsed:.1f}s"
    assert len(model.rows) == count_sizes(DOWNSAMPLE).constraint_total
    assert text.count("\n") > len(model.rows)


def test_trivial_params_sum_rows():
    params = MilpParams(1, 0, 0, 1, 1, 1, time_step=2)
    model = build_model(synthetic_slice(params), params)
    one_rows = [row for row in model.rows if row[0].startswith("occ_one_")]
    assert len(one_rows) == params.time_step


def test_zero_poi_categories_have_zero_counts():
    params = MilpParams(0, 0, 0, 1, 1, 1, time_step=4)
    sizes = count_sizes(params)
    assert sizes.constraints["hotel"] == 0
    assert sizes.constraints["attraction"] == 0
    assert sizes.constraints["restaurant"] == 0
    model = build_model(synthetic_slice(params), params)
    categories = Counter(row[4] for row in model.rows)
    assert "hotel" not in categories and "attraction" not in categories


def test_undeclared_reference_is_build_error_naming_row_and_variable():
    model = MilpModel(
        variables={"x": VarInfo("x", "binary")},
        rows=[("ok", ((1, "x"),), "<=", 1, "query"),
              ("bad", ((1, "x"), (-1, "ghost")), "<=", 0, "query")],
    )
    with pytest.raises(BuildError, match="row bad references undeclared ghost"):
        model.validate_references()


def test_rows_are_immutable():
    params = MilpParams(1, 1, 1, 1, 1, 1, 4)
    rows = build_model(synthetic_slice(params), params).rows
    for row in rows:
        # a plain tuple of atoms: immutable, and untracked by the cycle collector
        assert type(row) is tuple and len(row) == 5
        with pytest.raises(TypeError):
            row[0] = None
    for _ in range(3):      # a collection untracks one level: term, terms, row
        gc.collect()
    assert not any(map(gc.is_tracked, rows))


def test_every_build_validates_references(monkeypatch):
    checked = []
    monkeypatch.setattr(MilpModel, "validate_references", lambda model: checked.append(model))
    params = MilpParams(1, 1, 1, 1, 1, 1, 4)
    model = build_model(synthetic_slice(params), params)
    assert checked == [model]


def test_lp_row_count_equals_size_total(tmp_path):
    params = MilpParams(1, 1, 1, 1, 1, 1, 6)
    path = tmp_path / "toy.lp"
    write_lp(synthetic_slice(params), params, None, path)
    parsed = parse_lp(path.read_text())
    assert len(parsed["rows"]) == count_sizes(params).constraint_total


def test_lp_emission_is_byte_identical(tmp_path):
    params = MilpParams(1, 1, 1, 1, 2, 2, 6)
    for name in ("a.lp", "b.lp"):
        write_lp(synthetic_slice(params), params, None, tmp_path / name)
    assert (tmp_path / "a.lp").read_bytes() == (tmp_path / "b.lp").read_bytes()


def test_lp_empty_objective_header():
    model = MilpModel(
        variables={"x": VarInfo("x", "binary")},
        rows=[("r0", ((1, "x"),), "<=", 1, "query")],
    )
    text = render_lp(model)
    assert "Minimize\n obj: 0\n" in text


def test_lp_reader_roundtrip_matches_model(tmp_path):
    params = MilpParams(1, 2, 1, 1, 2, 2, 6)
    model = build_model(synthetic_slice(params), params)
    parsed = parse_lp(render_lp(model))
    assert len(parsed["rows"]) == len(model.rows)
    # row-by-row: same terms multiset, sense, rhs
    for name, terms, sense, rhs, _ in model.rows:
        got_terms, got_sense, got_rhs = parsed["rows"][name]
        want = tuple(sorted((Decimal(str(c)), v) for c, v in terms if c != 0))
        assert got_terms == want, name
        assert got_sense == sense
        assert got_rhs == Decimal(str(rhs))
    binaries = {i.name for i in model.variables.values() if i.kind == "binary"}
    assert set(parsed["binaries"]) == binaries


def test_unwritable_path_raises(tmp_path):
    params = MilpParams(1, 0, 0, 1, 1, 1, 4)
    from tripsmith.errors import TripsmithError

    with pytest.raises(TripsmithError):
        write_lp(synthetic_slice(params), params, None, tmp_path / "no_dir" / "toy.lp")


# -- micro solver -------------------------------------------------------------------


def test_contradictory_rows_are_infeasible():
    model = MilpModel(
        variables={"u0": VarInfo("u0", "binary"), "u1": VarInfo("u1", "binary")},
        rows=[
            ("sum_one", ((1, "u0"), (1, "u1")), "=", 1, "occupancy"),
            ("u0_zero", ((1, "u0"),), "<=", 0, "occupancy"),
            ("u1_zero", ((1, "u1"),), "<=", 0, "occupancy"),
        ],
    )
    assert micro_solve(model) is None


def test_one_hotel_toy_is_feasible_and_one_hot():
    params = MilpParams(1, 0, 0, 1, 1, 1, time_step=4)
    model = build_model(synthetic_slice(params, 3), params)
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
    model = build_model(synthetic_slice(params), params)
    with pytest.raises(SolveRefusedError):
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
        model = build_model(synthetic_slice(params, trial), params)
        assignment = micro_solve(model)
        if assignment is not None:
            solved += 1
            assert check_assignment(model, assignment) == []
    assert solved >= 10   # most toys of this shape are solvable


def test_check_constants_pin_closed_slots():
    params = MilpParams(0, 1, 0, 1, 1, 1, time_step=6)
    slice_ = synthetic_slice(params, 0)
    slice_.attractions[0]["opentime"] = "08:00"
    slice_.attractions[0]["endtime"] = "12:00"
    model = build_model(slice_, params)
    # 4-hour slots: only slot 2 ([08:00,12:00)) is fully inside the hours
    closed_rows = [row for row in model.rows
                   if row[0].startswith("att_check_0_") and row[3] == 0]
    assert len(closed_rows) == params.time_step - 1
    open_row = next(row for row in model.rows if row[0] == "att_check_0_2")
    assert open_row[1:4] == (((1, f"u_{params.hotel_num}_2"),), "<=", 1)


def test_decoded_assignment_parses_as_plan():
    params = MilpParams(1, 1, 0, 1, 1, 1, time_step=8)
    slice_ = synthetic_slice(params, 1)
    model = build_model(slice_, params)
    assignment = micro_solve(model)
    assert assignment is not None
    plan = decode_assignment(model, assignment, slice_, "Away", "City", people=1)
    text = json.dumps(serialize_plan(plan), sort_keys=True)
    assert json.dumps(serialize_plan(parse_plan(text)), sort_keys=True) == text
    kinds = [act["type"] for day in plan.itinerary for act in day.activities]
    assert kinds.count("train") == 2


def test_budget_query_constraint_row():
    params = MilpParams(1, 1, 1, 1, 1, 1, 6)
    model = build_model(synthetic_slice(params), params, 800)
    query_rows = [row for row in model.rows if row[4] == "query"]
    assert len(query_rows) == 1
    _, _, sense, rhs, _ = query_rows[0]
    assert sense == "<="
    assert rhs == Decimal("800")
