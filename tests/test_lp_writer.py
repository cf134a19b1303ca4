"""The streaming LP writer against the string-building writer it replaced.

`reference_render_lp` is the earlier writer, kept verbatim: it formats every
term anew and joins one big string. The current writer caches int prefixes
per file and streams lines, and must produce the same bytes on every model.
"""

import hashlib
from decimal import Decimal

import pytest

from tripsmith.milp import (
    DOWNSAMPLE,
    MilpModel,
    MilpParams,
    VarInfo,
    build_model,
    emit_lp,
    render_lp,
    slice_from_dataset,
    synthetic_slice,
)

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


def assert_same_lp(model: MilpModel, tmp_path, name: str = "itinerary") -> str:
    want = reference_render_lp(model, name)
    assert render_lp(model, name) == want
    path = emit_lp(model, tmp_path / "model.lp", name=name)
    assert path.read_bytes() == want.encode("utf-8")
    return want


# -- models ---------------------------------------------------------------------


def _dataset_model(dataset, days: int, slots_per_day: int, budget) -> MilpModel:
    slice_ = slice_from_dataset(dataset, "Alpha", "Beta", 2, 10, 5)
    params = MilpParams(
        hotel_num=len(slice_.hotels), attr_num=len(slice_.attractions),
        rest_num=len(slice_.restaurants), station_num=len(slice_.stations),
        go_num=len(slice_.go_routes), back_num=len(slice_.back_routes),
        time_step=slots_per_day * days, days=days,
    )
    return build_model(slice_, params, budget)


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
def test_hand_built_models_match_reference(tmp_path, objective):
    assert_same_lp(_hand_model(objective, HAND_ROWS), tmp_path)


def test_int_spelling_does_not_leak_into_equal_values(tmp_path):
    # an int coefficient seen first must not decide how an equal Decimal or bool is spelled
    rows = [("ints", ((1, "a"), (1, "b"), (-1, "c")), "<=", 1, "query"),
            ("others", ((Decimal("1.0"), "a"), (True, "b"), (Decimal("-1.00"), "c")),
             "<=", Decimal("1.0"), "query")]
    text = assert_same_lp(_hand_model((), rows), tmp_path)
    assert " others: 1.0 a + True b - 1.00 c <= 1.0\n" in text


def test_model_with_no_rows_or_terms(tmp_path):
    model = MilpModel(variables={}, rows=[("empty", (), "=", 0, "query")])
    text = assert_same_lp(model, tmp_path, name="bare")
    assert text == "\\ Problem: bare\nMinimize\n obj: 0\nSubject To\n empty: 0 zero = 0\nEnd\n"


def test_downsample_model_matches_reference(tmp_path):
    assert_same_lp(build_model(synthetic_slice(DOWNSAMPLE), DOWNSAMPLE), tmp_path)


@pytest.mark.parametrize("days, slots_per_day, budget", [
    (1, 24, 800), (2, 12, Decimal("1234.50")), (3, 6, 95),
])
def test_micro_and_mini_models_with_budget_match_reference(
        tmp_path, micro_dataset, mini_dataset, days, slots_per_day, budget):
    for dataset in (micro_dataset, mini_dataset):
        model = _dataset_model(dataset, days, slots_per_day, budget)
        assert [category for *_, category in model.rows].count("query") == 1
        assert_same_lp(model, tmp_path)


def test_micro_lp_text_is_pinned(micro_dataset):
    text = render_lp(_dataset_model(micro_dataset, 2, 12, 800), name="micro")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    # as the string-building writer rendered the same model
    assert digest == "fdc6801c322291e9dac3abe4b2b02345c1405a3e142d898b77aa10cb9b6386a5"
