"""The LP writer against the string-building writer it replaced.

`reference_render_lp` is the earlier writer, kept verbatim: it formats every
term anew and joins one big string. The current writer takes each row as LP
text and writes chunks of lines; the builder's generic speller `_row_text`,
which spells every row but the hot families' f-strings, must spell every
hand-built row and objective as the reference does. The files `write_lp`
writes are pinned by digest, taken when a built model's rows, the current
writer and the reference writer agreed on each of them byte for byte.
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
    count_sizes,
    slice_from_dataset,
    synthetic_slice,
    write_lp,
)
from tripsmith.milp.build import _Builder, _row_text, _Rows
from tripsmith.milp.lp_writer import CHUNK_CHARS, _LpWriter

from .lp_reader import read_model

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
    integers = [(name, info) for name, info in model.variables.items()
                if info.kind == "integer"]
    if integers:
        lines.append("Bounds")
        for name, info in integers:
            lines.append(f" {info.lo} <= {name} <= {info.hi}")
    binaries = [name for name, info in model.variables.items() if info.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        lines.extend(" " + " ".join(chunk) for chunk in _chunks(binaries, 8))
    if integers:
        lines.append("Generals")
        lines.extend(" " + " ".join(chunk) for chunk in _chunks([n for n, _ in integers], 8))
    lines.append("End")
    return "\n".join(lines) + "\n"


def render_lp(model: MilpModel, name: str = "itinerary") -> str:
    """The LP text of `model`, each row spelled by `_row_text` and passed to `_LpWriter.extend`."""
    parts: list[str] = []
    writer = _LpWriter(parts.append, model.variables, model.objective, name)
    for row_name, terms, sense, rhs, category in model.rows:
        writer.extend(category, 1, [_row_text(row_name, terms, sense, rhs)])
    writer.finish()
    return "".join(parts)


def assert_same_lp(model: MilpModel, name: str = "itinerary") -> str:
    want = reference_render_lp(model, name)
    assert render_lp(model, name) == want
    return want


def assert_stream_pinned(db_slice, budget, tmp_path, digest) -> None:
    """write_lp writes bytes of sha256 `digest` and counts every row it writes."""
    counts = write_lp(db_slice, budget, tmp_path / "streamed.lp", name="m")
    assert hashlib.sha256((tmp_path / "streamed.lp").read_bytes()).hexdigest() == digest
    want = {category: n for category, n in count_sizes(db_slice.params).constraints.items()
            if n}
    if budget is not None:
        want["query"] = 1
    assert counts == want


# -- models ---------------------------------------------------------------------


def _dataset_slice(dataset, days: int, slots_per_day: int):
    return slice_from_dataset(dataset, "Alpha", "Beta", 2, 10, 5, slots_per_day * days, days)


def _hand_model(objective, rows) -> MilpModel:
    names = {var for _, terms, _, _, _ in rows for _, var in terms} | {var for _, var in objective}
    variables = {name: VarInfo("binary") for name in sorted(names)}
    variables["n"] = VarInfo("integer", 0, 7, "count")
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


def test_downsample_model_matches_reference():
    """The rows of the published-scale model, read back from the file that
    `write_lp` writes, are spelled by `_row_text` as the reference writer
    spells them."""
    assert_same_lp(read_model(synthetic_slice(DOWNSAMPLE)))


# sha256 of write_lp(<fixture> Alpha -> Beta slice, budget, name="m"), per (days, budget)
FIXTURE_PINS = {
    (1, 800): {
        "micro": "b3587b106e97f098d85b5de902ab43eb3e6257eacd86bd19d1451d73554d4fe8",
        "mini": "468a58f7780e168e1fa4c11a1d2692fec0ffa00a07ae6d463028e9c01595990a"},
    (2, Decimal("1234.50")): {
        "micro": "122936e6177bddfc3daa5567b0b02a8e6acae22dc9c7b1869b9028fd906ce759",
        "mini": "3a1abb4dc08a079b6ef49d11a577dfeaa56c3004a0505f73a248c765df104ced"},
    (3, 95): {
        "micro": "00a1959219dc82e209ad6c34d4e518a84e6f219999934f963cfd9a91b0665e18",
        "mini": "5e77dcfebc62c00cd221a85c61aedf337d90032f1a888165d3ca9cd33587938b"},
}


@pytest.mark.parametrize("days, slots_per_day, budget", [
    (1, 24, 800), (2, 12, Decimal("1234.50")), (3, 6, 95),
])
def test_micro_and_mini_models_with_budget_are_pinned(
        tmp_path, micro_dataset, mini_dataset, days, slots_per_day, budget):
    pins = FIXTURE_PINS[days, budget]
    for fixture, dataset in (("micro", micro_dataset), ("mini", mini_dataset)):
        assert_stream_pinned(_dataset_slice(dataset, days, slots_per_day), budget, tmp_path,
                             pins[fixture])


def test_micro_lp_text_is_pinned(tmp_path, micro_dataset):
    path = tmp_path / "micro.lp"
    write_lp(_dataset_slice(micro_dataset, 2, 12), 800, path, name="micro")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    # as the string-building writer rendered the same model
    assert digest == "fdc6801c322291e9dac3abe4b2b02345c1405a3e142d898b77aa10cb9b6386a5"


SYNTHETIC = {
    "one-each": MilpParams(1, 1, 1, 1, 1, 1, 4),
    "two-days": MilpParams(2, 3, 2, 2, 3, 2, 12, days=2),
    "no-pois": MilpParams(0, 0, 0, 1, 1, 1, 4),
    "attractions-only": MilpParams(0, 2, 0, 1, 2, 1, 6),
    "no-routes": MilpParams(1, 0, 2, 2, 0, 0, 8, days=2),
    "two-slots": MilpParams(1, 1, 1, 1, 1, 1, 2),
    "no-locations": MilpParams(0, 0, 0, 0, 0, 0, 4),
    # every meal window is empty, and the outbound arrival slot 0 drops its term
    "one-slot-a-day": MilpParams(1, 1, 1, 1, 1, 1, 2, days=2),
}
# sha256 of write_lp(synthetic_slice(SYNTHETIC[shape], 5), budget, name="m"), per shape and budget
SYNTHETIC_PINS = {
    "one-each": {
        None: "da88baaaee57550532a13fff9f41c8d83faa6dbfd4870407b4ea02ec4ebc60c0",
        0: "c63b9b78cd1f7e98ce01ee4e9d29950978ff9248b02514c115dc4ed705120910",
        640: "ff443f983d6d83db16213ed1eb95c185ad92f42431906e4bad67ee7817ab04e5",
        Decimal("1234.50"): "2026066d08e1fc6ca7ff4825f4bda1251cd6c9bafa4c2b8a59c8bb5293939646",
    },
    "two-days": {
        None: "c439381002619dc5e6fb2e7ce8d5aec353c138985dc533febe9e4097c6daddc8",
        0: "f0e024a39f53600e30ed204b8f4ec3abe659fa9c67a70b41c624254ea49293fb",
        640: "caa0d4d005c777580f55d54c41b021c9f387931cd4fc6461a51497dd52d8a6fa",
        Decimal("1234.50"): "6c6ff2c176e79918c867ab8db1c93fa5d29dc2eb4a1ed2dd87bba41d9631c3e4",
    },
    "no-pois": {
        None: "5b01b1ed722bfd413c2da735a6eff515c617055677a48ae41e4edfcc2baf945b",
        0: "bd8eaaaec4125f4bd87ebd2a4ba49460e1bdb7a9ab55fd6b29ea72f0df8a8488",
        640: "d84223d00525ca3b803d68bd2c6c5be05e75153ca52bed0fac8f86cfe8b3391b",
        Decimal("1234.50"): "bef45235cbc852b5230fe19ecef8f59e8d41ae689b685734dfe8b2c8d4c4b1cf",
    },
    "attractions-only": {
        None: "09da7f67637e68caa1db9d733f7c33b47450b8d81b5cf939b33ac55a484fcb41",
        0: "c38c24eb6d59a92cf47bddf7ca98d87e089683b483865381e4c48e5314319f87",
        640: "bda923f9531e31c61276cb5fbfe2988ed1832fefa1a6153d98d6001cbc46b10f",
        Decimal("1234.50"): "e393438617d1700046adef4092aa03f3acfb6bb210bba58b67c5e012a6df5428",
    },
    "no-routes": {
        None: "8e1ea86c1afe8846cfdcfa29414bfb716c4acdb3a69a563b030fee63f11e4fc3",
        0: "a1826a1b0b85190d9485eafe2bef22c401aed67b1c8204b1d076e24cfd3a2b61",
        640: "d4d2b76ed0e70012d30470206f9fb967a586805dbb10c804c0775749cfb046e3",
        Decimal("1234.50"): "b4b6bc0a1600de4f6d3d43b1481e3ad7082725448b5a5706de3282ca69f44799",
    },
    "two-slots": {
        None: "0225e61adf6731a271882815955dbaf3aa28498fca970a32651e71e05689ed2e",
        0: "41215c978acf4b2cc4c5610e7ca3d48aea9f873a2cf55d725be31b57b9dccf41",
        640: "6c641c8c6fc7327cab1760151ed1e042f881fb15ab43da1fa3f960f9a8718d7a",
        Decimal("1234.50"): "d112235acde28f95870c4f6b900c75f3de939adfb982bbb7f23e1cf12c1bf74d",
    },
    "no-locations": {
        None: "dc9df39b4b4cc82d54565ef3932a0c66630bca016b94a746f00762cd5ab3d5af",
        0: "d5710cb8fa216f7298342d86773812c62f9be3c1cbb11dc835659becb974093f",
        640: "ddf2adb2be3fd32894cc1e1b919aa52ecddd56328182aa870b1ff6a413ef97a7",
        Decimal("1234.50"): "1d4c49d87e281bfdabc98189ee391fcff75e5bb8df57a95ccf0dfd13f097ea3e",
    },
    "one-slot-a-day": {
        None: "4b38472d4dfbadb553d3cfa532dfc24d06da2a74efee8ffdcb079c28f6229701",
        0: "a6e1f9ad9bab5d2fac858fc6a36b9158cc45df34894276db987b8ecd60a83a9e",
        640: "8286c0a7b68afc28951a487b30373c164de0b0e0029f4c4c04eafd0bcd356539",
        Decimal("1234.50"): "2af0c0a0ae98ddc8a563c352e49cac29247d10ebfce39d50c981f65174d0f2c0",
    },
}


@pytest.mark.parametrize("shape", SYNTHETIC)
@pytest.mark.parametrize("budget", [None, 0, 640, Decimal("1234.50")])
def test_streamed_synthetic_models_are_pinned(tmp_path, shape, budget):
    params = SYNTHETIC[shape]
    db_slice = synthetic_slice(params, 5)
    assert db_slice.params == params
    assert_stream_pinned(db_slice, budget, tmp_path, SYNTHETIC_PINS[shape][budget])


def test_streamed_decimal_budget_row_keeps_decimal_spelling(tmp_path):
    params = MilpParams(1, 2, 1, 1, 1, 1, 6)
    db_slice = synthetic_slice(params)
    db_slice.hotels[0]["price"] = Decimal("1.0")
    db_slice.attractions[0]["price"] = Decimal("-0.50")
    db_slice.attractions[1]["price"] = Decimal("1")
    assert_stream_pinned(db_slice, Decimal("1.0"), tmp_path,
                         "9d2a842e2e5cc3eb3cf61cc38f2114a8050581be55668ea9d9993ebc149c2f01")
    text = (tmp_path / "streamed.lp").read_text()
    assert "1.0 hotel_0_0" in text and " - 0.50 attr_0 + 1 attr_1" in text
    assert text.count(" <= 1.0\n") == 1


@pytest.mark.parametrize("fault, error, message", [
    ("undeclared", BuildError, "transit rows reference undeclared ghost$"),
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
        yield _Rows("transit", 1, [f" trn_{name}: 1 {name} <= 0\n"], ([name],))

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
    """Beyond the builder's declared variables, `write_lp` holds a chunk of
    row text at a time: a model of about three times the rows needs no more
    than CHUNK_CHARS / 2 bytes of it over a smaller one, and less than its file."""
    extras = []
    for params in (MilpParams(1, 2, 1, 1, 2, 2, 24), MilpParams(2, 3, 2, 2, 3, 2, 24, days=2)):
        db_slice = synthetic_slice(params)
        path = tmp_path / "streamed.lp"
        tracemalloc.start()
        try:
            _Builder(db_slice, None).cost_terms()
            declared = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            counts = write_lp(db_slice, None, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extras.append((sum(counts.values()), peak - declared, path.stat().st_size))
    (few, low, _), (many, high, size) = extras
    assert many > 2 * few and high - low < CHUNK_CHARS // 2 and high < size, extras


def test_write_lp_peak_grows_by_under_160_bytes_a_variable(tmp_path):
    """`MAX_VARIABLES` assumes a model's peak memory grows by about 0.16 KB
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
    assert (high - low) / (many - few) < 160, points


def _growing_text(n: int, tag: str) -> str:
    return f" g_{tag}_{n}: 1 v_{tag}_{n} - 1 w_{n} <= 0\n g2_{tag}_{n}: 1 w_{n} >= 0\n"


# the texts grow with their numbers' digits, as a model's rows do with its
# indices, so the batches that follow the first one hold longer texts
HEADER = "\\ Problem: m\nMinimize\n obj: 0\nSubject To\n"


def _growing(instances):
    return (_growing_text(*instance) for instance in instances)


def _extended(instances) -> tuple[str, dict]:
    parts: list[str] = []
    writer = _LpWriter(parts.append, {}, (), "m")
    writer.extend("urban", 2, _growing(instances))
    counts = dict(writer.counts)
    writer.finish()
    text = "".join(parts)
    assert text.startswith(HEADER) and text.endswith("End\n")
    return text[len(HEADER):-len("End\n")], counts


@pytest.mark.parametrize("count", [1, 2, 50_000])
def test_extend_writes_each_text_once_in_order(count):
    instances = [(n, "abc"[n % 3]) for n in range(count)]
    body, counts = _extended(instances)
    assert body == "".join(_growing_text(*i) for i in instances)
    assert counts == {"urban": 2 * count}


def test_extend_batches_hold_about_a_chunk():
    """The first text sets the batch, so each batch holds about
    CHUNK_CHARS characters, and no more than its texts' growth allows."""
    instances = [(n, "abc"[n % 3]) for n in range(50_000)]
    held = []
    writer = _LpWriter([].append, {}, (), "m")
    writer.hold = held.append
    writer.extend("urban", 2, _growing(instances))
    first = len(_growing_text(*instances[0]))
    growth = len(_growing_text(*instances[-1])) / first
    assert len(held) > 2
    assert held[0] == "".join(_growing_text(*i) for i in instances[:CHUNK_CHARS // first])
    assert all(len(text) <= CHUNK_CHARS * growth for text in held), growth


def test_extend_of_no_text_writes_and_counts_nothing():
    parts: list[str] = []
    writer = _LpWriter(parts.append, {}, (), "m")
    lines = list(writer.lines)
    writer.extend("urban", 2, iter(()))
    assert parts == [] and writer.lines == lines and writer.held == 0
    assert writer.counts == {}
