import csv
import importlib
import shutil

import pytest

from tripsmith.cli import main
from tripsmith.dsl import check_syntax
from tripsmith.dsl.syntax import quote
from tripsmith.errors import InputError
from tripsmith.evaluation import RULE_IDS, evaluate_plan
from tripsmith.genquery import (
    CertifiedQuery,
    ConstraintSpec,
    certify,
    context_from_skeleton,
    sample_skeleton,
    skeleton_to_dsl,
    spec_to_dsl,
)
from tripsmith.genquery import skeleton as skeleton_module
from tripsmith.manifest import read_jsonl
from tripsmith.sandbox import load_dataset
from tripsmith.search import FULL_PASS, SearchConfig, SearchOutcome

from .conftest import FIXTURES, build_base_plan, corrupt_plan


def test_easy_has_exactly_one_spec(micro_dataset):
    for seed in range(10):
        skeleton = sample_skeleton(micro_dataset, "easy", seed)
        assert len(skeleton.specs) == 1


@pytest.mark.parametrize("end", ["origin", "target"])
def test_a_lone_end_is_kept_and_the_other_drawn_from_the_rest(synth_dataset, end):
    other = "target" if end == "origin" else "origin"
    drawn = set()
    for seed in range(20):
        skeleton = sample_skeleton(synth_dataset, "easy", seed, **{end: "Arlen"})
        assert getattr(skeleton, end) == "Arlen"
        drawn.add(getattr(skeleton, other))
    assert drawn == {"Brisa", "Corvo"}


@pytest.mark.parametrize("ends, message", [
    ({"origin": "Nope"}, "origin 'Nope' is not a loaded city"),
    ({"origin": "Nope", "target": "Beta"}, "origin 'Nope' is not a loaded city"),
    ({"origin": "Alpha", "target": "Nope"}, "target 'Nope' is not a loaded city"),
    ({"origin": "Alpha", "target": "Alpha"}, "origin and target are both 'Alpha'"),
])
def test_an_unknown_or_repeated_end_is_an_input_error(micro_dataset, ends, message):
    with pytest.raises(InputError, match=message):
        sample_skeleton(micro_dataset, "easy", 0, **ends)


def test_medium_has_three_to_five_specs(micro_dataset):
    for seed in range(10):
        skeleton = sample_skeleton(micro_dataset, "medium", seed)
        assert 3 <= len(skeleton.specs) <= 5


def test_same_seed_same_skeleton(micro_dataset):
    a = sample_skeleton(micro_dataset, "medium", 42)
    b = sample_skeleton(micro_dataset, "medium", 42)
    assert a == b


def test_unknown_difficulty_rejected(micro_dataset):
    with pytest.raises(InputError):
        sample_skeleton(micro_dataset, "impossible", 0)


def test_values_come_from_dataset_vocabulary(micro_dataset):
    db = micro_dataset["Beta"]
    cuisines = {row["cuisinetype"] for row in db.restaurants}
    features = {row["featurehoteltype"] for row in db.hotels}
    attraction_names = {row["name"] for row in db.attractions}
    for seed in range(40):
        skeleton = sample_skeleton(micro_dataset, "easy", seed,
                                   origin="Alpha", target="Beta")
        (spec,) = skeleton.specs
        if spec.kind == "cuisine":
            assert spec.value in cuisines
        elif spec.kind == "hotel_feature":
            assert spec.value in features
        elif spec.kind == "specific_poi":
            assert spec.value in attraction_names


def test_templates_check_clean(micro_dataset):
    for seed in range(30):
        for difficulty in ("easy", "medium"):
            skeleton = sample_skeleton(micro_dataset, difficulty, seed)
            for source in skeleton_to_dsl(skeleton):
                assert check_syntax(source) == [], source


def test_budget_template_inlines_bound(micro_dataset):
    for seed in range(60):
        skeleton = sample_skeleton(micro_dataset, "easy", seed)
        (spec,) = skeleton.specs
        if spec.kind == "budget":
            (source,) = skeleton_to_dsl(skeleton)
            assert f"total_cost <= {spec.value}" in source
            return
    pytest.fail("no budget spec drawn in 60 seeds")


def test_empty_spec_list_gives_no_programs(micro_dataset):
    skeleton = sample_skeleton(micro_dataset, "easy", 0)
    skeleton.specs = []
    assert skeleton_to_dsl(skeleton) == []


def test_certified_witness_revalidates(micro_dataset):
    done = 0
    for seed in range(25):
        skeleton = sample_skeleton(micro_dataset, "easy", seed,
                                   origin="Alpha", target="Beta")
        certified = certify(skeleton, micro_dataset, SearchConfig(budget_seconds=10),
                            uid=f"q{seed}")
        if certified is None:
            continue
        done += 1
        report = evaluate_plan(certified.witness, certified.dsl_sources, micro_dataset)
        assert report.env.overall
        assert all(report.logical)
    assert done >= 20


def test_certify_refuses_a_witness_that_fails_the_env_check(mini_dataset, monkeypatch):
    """The search never runs the env check on its leaves; `certify` runs it on the
    witness, so a witness that breaks any one rule is rejected."""
    witness = []
    monkeypatch.setattr(importlib.import_module("tripsmith.genquery.certify"), "dfs_search",
                        lambda *args, **kwargs: SearchOutcome(FULL_PASS, witness[-1], 1, 0.0))
    skeleton = sample_skeleton(mini_dataset, "easy", 0, origin="Alpha", target="Beta")
    skeleton.specs = []
    cfg = SearchConfig(budget_seconds=10)
    witness.append(build_base_plan(mini_dataset))
    assert certify(skeleton, mini_dataset, cfg) is not None
    for rule in RULE_IDS:
        witness.append(corrupt_plan(mini_dataset, rule))
        assert certify(skeleton, mini_dataset, cfg) is None, rule


def test_hash_in_a_poi_name_is_part_of_the_name(tmp_path):
    root = tmp_path / "micro"
    shutil.copytree(FIXTURES / "micro", root)
    table = root / "Beta" / "attractions.csv"
    table.write_text(table.read_text().replace("Harbor Park,", "Harbor Park #1,"))
    dataset = load_dataset(root)
    skeleton = sample_skeleton(dataset, "easy", 0, origin="Alpha", target="Beta")
    skeleton.specs = [ConstraintSpec("specific_poi", "Harbor Park #1")]
    certified = certify(skeleton, dataset, SearchConfig(budget_seconds=10))
    assert certified is not None
    positions = [act.get("position") for act in certified.witness.all_activities()]
    assert "Harbor Park #1" in positions


@pytest.mark.parametrize("cuisine, args", [
    ('Lanzhou "Hand" Noodles', ("--count", "3", "--seed", "0")),
    ('Lanzhou "Hand" Noodles', ("--count", "3", "--seed", "1")),
    ("Hand\nNoodles", ("--difficulty", "easy", "--count", "1", "--seed", "29")),
], ids=["double-quote-seed-0", "double-quote-seed-1", "line-break"])
def test_generate_spells_a_quoted_value_and_never_draws_a_line_break(tmp_path, cuisine, args):
    """These seeds draw Noodle Corner's cuisine when it is spellable, so a `"` in it
    must be spelled in single quotes; a line break no literal spells is not drawn."""
    root = tmp_path / "micro"
    shutil.copytree(FIXTURES / "micro", root)
    table = root / "Beta" / "restaurants.csv"
    rows = list(csv.reader(table.open(newline="")))
    assert rows[1][:5:4] == ["Noodle Corner", "Noodles"]
    rows[1][4] = cuisine
    with table.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "bench.jsonl"
    assert main(["generate", "--db", str(root), *args, "--out", str(out)]) == 0
    _, records = read_jsonl(out, "benchmark")
    assert len(records) == int(args[args.index("--count") + 1])
    drawn = [spec["value"] for record in records for spec in record["skeleton"]["specs"]]
    assert (cuisine in drawn) is (quote(cuisine) is not None)


@pytest.mark.parametrize("values, kept", [
    (["Plain", "Xi'an"], ["Plain", "Xi'an"]),
    # each spellable, though the two quote marks meet when joined
    (["Xi'an", 'Say "hi"'], ["Xi'an", 'Say "hi"']),
    (["Plain", "Both \"'", "Line\nbreak", "Tab\tbed", "Xi'an"], ["Plain", "Tab\tbed", "Xi'an"]),
], ids=["all", "marks-apart", "some"])
def test_the_sampler_keeps_exactly_the_values_quote_spells(values, kept):
    assert skeleton_module._spellable(values) == kept == [v for v in values if quote(v)]


@pytest.mark.parametrize("kind", ["cuisine", "specific_poi"])
def test_a_template_refuses_a_value_no_literal_spells(kind):
    with pytest.raises(InputError, match="has no string literal in the DSL"):
        spec_to_dsl(ConstraintSpec(kind, "Hand\nNoodles"))


def test_unsatisfiable_cuisine_is_rejected(micro_dataset):
    skeleton = sample_skeleton(micro_dataset, "easy", 1, origin="Alpha", target="Beta")
    skeleton.specs[0].kind = "cuisine"
    skeleton.specs[0].value = "Molecular Sous-Vide"
    assert certify(skeleton, micro_dataset, SearchConfig(budget_seconds=5)) is None


def test_context_from_skeleton_maps_specs(micro_dataset):
    skeleton = sample_skeleton(micro_dataset, "easy", 3, origin="Alpha", target="Beta")
    skeleton.specs = [
        type(skeleton.specs[0])("budget", 4000),
        type(skeleton.specs[0])("cuisine", "Hotpot"),
        type(skeleton.specs[0])("transport_type", "train"),
        type(skeleton.specs[0])("rooms", 1, {"room_type": 2}),
    ]
    ctx = context_from_skeleton(skeleton)
    assert ctx.budget_limit == 4000
    assert ctx.required_terms == ("Hotpot",)
    assert ctx.required_intercity_kind == "train"
    assert ctx.required_rooms == 1 and ctx.required_room_type == 2


def test_certified_query_serialization_roundtrip(micro_dataset):
    skeleton = sample_skeleton(micro_dataset, "easy", 2, origin="Alpha", target="Beta")
    certified = certify(skeleton, micro_dataset, SearchConfig(budget_seconds=10))
    assert certified is not None
    raw = certified.as_dict()
    back = CertifiedQuery.from_dict(raw)
    assert back.skeleton == certified.skeleton
    assert back.dsl_sources == certified.dsl_sources
    assert back.as_dict() == raw


def test_render_query_text_paraphrase_and_fallback(micro_dataset):
    from tripsmith.genquery import render_query_text
    from tripsmith.llm import CallableTransport, TransportError

    skeleton = sample_skeleton(micro_dataset, "easy", 4, origin="Alpha", target="Beta")
    assert render_query_text(skeleton) == skeleton.describe()
    assert render_query_text(
        skeleton, CallableTransport(lambda p: "A cosy weekend away.")
    ) == "A cosy weekend away."

    def boom(prompt):
        raise TransportError("down")

    assert render_query_text(skeleton, CallableTransport(boom)) == skeleton.describe()
