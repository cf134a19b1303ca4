"""The LP writer against the string-building writer it replaced.

`reference_render_lp` is the earlier writer, kept verbatim: it formats every
term anew and joins one big string. The current writer caches int prefixes
per file and writes chunks of lines, and must produce the same bytes on every
model. `write_lp`, which builds a model straight into its file, must write
the bytes of `render_lp(build_model(...))`.
"""

import hashlib
import tracemalloc
from decimal import Decimal

import pytest

from tripsmith.errors import BuildError, InputError
from tripsmith.milp import (
    DOWNSAMPLE,
    MilpModel,
    MilpParams,
    VarInfo,
    build_model,
    count_sizes,
    render_lp,
    slice_from_dataset,
    synthetic_slice,
    write_lp,
)
from tripsmith.milp.build import _Builder

# -- reference writer -----------------------------------------------------------

_SENSE = {"<=": "<=", ">=": ">=", "=": "="}


def _coef(value) -> str:
    if isinstance(value, Decimal):
        text = format(value, "f")
    else:
        text = str(value)
    return text


def _terms(terms) -> str:
    parts = []
    for coef, var in terms:
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        magnitude = -coef if coef < 0 else coef
        parts.append(f"{sign} {_coef(magnitude)} {var}")
    if not parts:
        return "0 " + (terms[0][1] if terms else "zero")
    first = parts[0]
    first = first[2:] if first.startswith("+ ") else "-" + first[2:]
    return " ".join([first] + parts[1:])


def _chunks(items: list[str], size: int):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def reference_render_lp(model: MilpModel, name: str = "itinerary") -> str:
    lines = [f"\\ Problem: {name}", "Minimize"]
    if model.objective:
        lines.append(" obj: " + _terms(model.objective))
    else:
        lines.append(" obj: 0")
    lines.append("Subject To")
    for row_name, terms, sense, rhs, _ in model.rows:
        lines.append(f" {row_name}: {_terms(terms)} {_SENSE[sense]} {_coef(rhs)}")
    integers = [info for info in model.variables.values() if info.kind == "integer"]
    if integers:
        lines.append("Bounds")
        for info in integers:
            lines.append(f" {info.lo} <= {info.name} <= {info.hi}")
    binaries = [info.name for info in model.variables.values() if info.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        lines.extend(" " + " ".join(chunk) for chunk in _chunks(binaries, 8))
    if integers:
        lines.append("Generals")
        lines.extend(" " + " ".join(chunk) for chunk in _chunks([i.name for i in integers], 8))
    lines.append("End")
    return "\n".join(lines) + "\n"


def assert_same_lp(model: MilpModel, name: str = "itinerary") -> str:
    want = reference_render_lp(model, name)
    assert render_lp(model, name) == want
    return want


def assert_stream_matches(db_slice, budget, tmp_path) -> None:
    """write_lp writes render_lp(build_model(...))'s bytes and counts every row it writes."""
    built = render_lp(build_model(db_slice, budget), name="m")
    counts = write_lp(db_slice, budget, tmp_path / "streamed.lp", name="m")
    assert (tmp_path / "streamed.lp").read_bytes() == built.encode("utf-8")
    want = {category: n for category, n in count_sizes(db_slice.params).constraints.items()
            if n}
    if budget is not None:
        want["query"] = 1
    assert counts == want


# -- models ---------------------------------------------------------------------


def _dataset_slice(dataset, days: int, slots_per_day: int):
    return slice_from_dataset(dataset, "Alpha", "Beta", 2, 10, 5, slots_per_day * days, days)


def _dataset_model(dataset, days: int, slots_per_day: int, budget) -> MilpModel:
    return build_model(_dataset_slice(dataset, days, slots_per_day), budget)


def _hand_model(objective, rows) -> MilpModel:
    names = {var for _, terms, _, _, _ in rows for _, var in terms} | {var for _, var in objective}
    variables = {name: VarInfo(name, "binary") for name in sorted(names)}
    variables["n"] = VarInfo("n", "integer", 0, 7, "count")
    return MilpModel(variables=variables, rows=list(rows), objective=tuple(objective))


HAND_ROWS = [
    ("decimal_one", ((Decimal("1.0"), "a"), (1, "b"), (Decimal("1.0"), "c")), "<=",
     Decimal("1.0"), "query"),
    ("decimal_price", ((Decimal("12.50"), "a"), (Decimal("-0.5"), "b")), ">=",
     Decimal("-0.5"), "query"),
    ("negative_first", ((Decimal("-0.5"), "a"), (-1, "b"), (-2, "c")), "=", -1, "query"),
    ("bool_coef", ((True, "a"), (1, "b"), (True, "c")), "<=", True, "query"),
    ("bool_after_int", ((1, "a"), (True, "b"), (-1, "c")), "<=", 1, "query"),
    ("zeros", ((0, "a"), (1, "b"), (Decimal("0.00"), "c"), (-1, "a")), "<=", 0, "query"),
    ("zero_first", ((0, "a"), (-3, "b")), "<=", 0, "query"),
    ("all_zero", ((0, "a"), (Decimal("0"), "b"), (False, "c")), "=", 0, "query"),
    ("big_coefs", ((25, "a"), (-49, "b"), (1000, "c")), "<=", 1049, "query"),
]


@pytest.mark.parametrize("objective", [
    (),
    ((Decimal("120.00"), "a"), (Decimal("1.0"), "b"), (1, "c")),
    ((0, "a"), (False, "b")),
    ((True, "a"), (-1, "b"), (Decimal("-0.5"), "c")),
])
def test_hand_built_models_match_reference(objective):
    assert_same_lp(_hand_model(objective, HAND_ROWS))


def test_int_spelling_does_not_leak_into_equal_values():
    # an int coefficient seen first must not decide how an equal Decimal or bool is spelled
    rows = [("ints", ((1, "a"), (1, "b"), (-1, "c")), "<=", 1, "query"),
            ("others", ((Decimal("1.0"), "a"), (True, "b"), (Decimal("-1.00"), "c")),
             "<=", Decimal("1.0"), "query")]
    text = assert_same_lp(_hand_model((), rows))
    assert " others: 1.0 a + True b - 1.00 c <= 1.0\n" in text


def test_model_with_no_rows_or_terms():
    model = MilpModel(variables={}, rows=[("empty", (), "=", 0, "query")])
    text = assert_same_lp(model, name="bare")
    assert text == "\\ Problem: bare\nMinimize\n obj: 0\nSubject To\n empty: 0 zero = 0\nEnd\n"


def test_downsample_model_matches_reference(tmp_path):
    assert_same_lp(build_model(synthetic_slice(DOWNSAMPLE)))
    assert_stream_matches(synthetic_slice(DOWNSAMPLE), None, tmp_path)


@pytest.mark.parametrize("days, slots_per_day, budget", [
    (1, 24, 800), (2, 12, Decimal("1234.50")), (3, 6, 95),
])
def test_micro_and_mini_models_with_budget_match_reference(
        tmp_path, micro_dataset, mini_dataset, days, slots_per_day, budget):
    for dataset in (micro_dataset, mini_dataset):
        model = _dataset_model(dataset, days, slots_per_day, budget)
        assert [category for *_, category in model.rows].count("query") == 1
        assert_same_lp(model)
        assert_stream_matches(_dataset_slice(dataset, days, slots_per_day), budget, tmp_path)


def test_micro_lp_text_is_pinned(micro_dataset):
    text = render_lp(_dataset_model(micro_dataset, 2, 12, 800), name="micro")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    # as the string-building writer rendered the same model
    assert digest == "fdc6801c322291e9dac3abe4b2b02345c1405a3e142d898b77aa10cb9b6386a5"


@pytest.mark.parametrize("params", [
    MilpParams(1, 1, 1, 1, 1, 1, 4),
    MilpParams(2, 3, 2, 2, 3, 2, 12, days=2),
    MilpParams(0, 0, 0, 1, 1, 1, 4),
    MilpParams(0, 2, 0, 1, 2, 1, 6),
    MilpParams(1, 0, 2, 2, 0, 0, 8, days=2),
    MilpParams(1, 1, 1, 1, 1, 1, 2),
    MilpParams(0, 0, 0, 0, 0, 0, 4),
], ids=["one-each", "two-days", "no-pois", "attractions-only", "no-routes",
        "two-slots", "no-locations"])
@pytest.mark.parametrize("budget", [None, 0, 640, Decimal("1234.50")])
def test_streamed_synthetic_models_match_the_built_ones(tmp_path, params, budget):
    db_slice = synthetic_slice(params, 5)
    assert db_slice.params == params
    assert_stream_matches(db_slice, budget, tmp_path)


def test_streamed_decimal_budget_row_keeps_decimal_spelling(tmp_path):
    params = MilpParams(1, 2, 1, 1, 1, 1, 6)
    db_slice = synthetic_slice(params)
    db_slice.hotels[0]["price"] = Decimal("1.0")
    db_slice.attractions[0]["price"] = Decimal("-0.50")
    db_slice.attractions[1]["price"] = Decimal("1")
    assert_stream_matches(db_slice, Decimal("1.0"), tmp_path)
    text = (tmp_path / "streamed.lp").read_text()
    assert "1.0 hotel_0_0" in text and " - 0.50 attr_0 + 1 attr_1" in text
    assert text.count(" <= 1.0\n") == 1


@pytest.mark.parametrize("fault, error, message", [
    ("undeclared", BuildError, "row trn_ghost references undeclared ghost"),
    ("disk", InputError, "cannot write LP file .*No space left on device"),
    ("miscount", BuildError, "rows per category .* differ from count_sizes"),
    ("undeclared-urban", BuildError, "urban rows reference undeclared y_1_0_2_5$"),
])
def test_a_stream_failing_partway_leaves_no_lp_file(tmp_path, monkeypatch, fault, error,
                                                    message):
    def transit_rows(builder):
        if fault == "disk":
            raise OSError(28, "No space left on device")
        name = "ghost" if fault == "undeclared" else builder.event[0]
        builder.row(f"trn_{name}", [(1, name)], "<=", 0, "transit")

    def build_without_a_y(builder, sink):
        del builder.vars[builder.y[1][0][2][5]]
        build(builder, sink)

    build = _Builder.build
    if fault == "undeclared-urban":
        monkeypatch.setattr(_Builder, "build", build_without_a_y)
    else:
        monkeypatch.setattr(_Builder, "transit_rows", transit_rows)
    params = MilpParams(2, 3, 2, 2, 2, 2, 24)       # urban rows fill several chunks first
    path = tmp_path / "m.lp"
    path.write_text("earlier\n")
    with pytest.raises(error, match=message):
        write_lp(synthetic_slice(params), None, path)
    assert path.read_text() == "earlier\n"
    assert list(tmp_path.iterdir()) == [path]


def test_streamed_write_holds_no_row_list(tmp_path):
    params = MilpParams(1, 2, 1, 1, 2, 2, 24)
    db_slice = synthetic_slice(params)
    peaks = []
    tracemalloc.start()
    try:
        for write in (lambda: render_lp(build_model(db_slice)),
                      lambda: write_lp(db_slice, None, tmp_path / "streamed.lp")):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            write()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    built_peak, streamed_peak = peaks
    assert streamed_peak < built_peak / 2, peaks


def test_write_lp_peak_grows_by_under_256_bytes_a_variable(tmp_path):
    """`MAX_VARIABLES` assumes a model's peak memory grows by about 0.25 KB
    a variable: a model of twice the slots must not cost more per variable."""
    points = []
    for slots in (12, 24):
        params = MilpParams(2, 10, 5, 5, 20, 20, slots)
        db_slice = synthetic_slice(params)
        tracemalloc.start()
        try:
            write_lp(db_slice, None, tmp_path / "model.lp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points.append((count_sizes(params).variable_total, peak))
    (few, low), (many, high) = points
    assert (high - low) / (many - few) < 256, points
