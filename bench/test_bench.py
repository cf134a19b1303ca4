"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import csv
import sys
import types
from collections import Counter

import pytest

import run
import synth
from tracing import Hook, Tracer, self_times
import speed
import workloads
from workloads import NodeCappedRanker, NodeCapReached, certified_queries


@pytest.fixture(scope="module")
def city_root(tmp_path_factory):
    return synth.generate(tmp_path_factory.mktemp("cities"), seed=5)


def test_generator_is_deterministic_per_seed(tmp_path, city_root):
    again = synth.generate(tmp_path / "again", seed=5)
    other = synth.generate(tmp_path / "other", seed=6)
    assert run.tree_digest(again) == run.tree_digest(city_root)
    assert run.tree_digest(other) != run.tree_digest(city_root)


def test_generator_writes_the_promised_shape(city_root):
    from tripsmith.sandbox import intercity_select, load_dataset

    dataset = load_dataset(city_root)
    assert len(dataset.city_names) == 3
    for city in dataset.city_names:
        db = dataset[city]
        assert (len(db.attractions), len(db.restaurants), len(db.hotels)) == (300, 300, 40)
        assert any(row["endtime"] >= "22:00" for row in db.attractions)
        for other in dataset.city_names:
            if other != city:
                routes = intercity_select(dataset.cities, city, other)
                kinds = Counter(route.kind for route in routes)
                assert kinds["train"] > 10 and kinds["airplane"] > 10
    with (city_root / "fares.cfg").open() as fh:
        assert "taxi_per_km" in fh.read()
    with (city_root / dataset.city_names[0] / "intercity.csv").open() as fh:
        assert next(csv.reader(fh))[0] == "ID"


def _certify(dataset, ranker):
    from tripsmith import genquery
    from tripsmith.search import SearchConfig

    skeleton = genquery.sample_skeleton(dataset, "medium", 3)
    return genquery.certify(skeleton, dataset, SearchConfig(budget_seconds=600.0),
                            ranker=ranker)


def test_node_cap_is_deterministic(city_root):
    from tripsmith.sandbox import load_dataset

    dataset = load_dataset(city_root)
    runs = []
    for _ in range(2):
        ranker = NodeCappedRanker(40)
        query = _certify(dataset, ranker)
        runs.append((query.as_dict() if query else None, ranker.expansions, ranker.refused))
    assert runs[0] == runs[1]
    assert runs[0][1] <= 40
    with pytest.raises(NodeCapReached):
        _certify(dataset, NodeCappedRanker(1, abort=True))


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (1, "outer", 0.0, 10.0, -1),
        (2, "inner", 1.0, 3.0, 1),
        (3, "inner", 2.0, 5.0, 1),        # overlaps span 2: another thread
        (4, "inner", 7.0, 8.0, 1),
        (5, "leaf", 7.25, 7.75, 4),
    ]
    times = self_times(spans)
    assert times["outer"] == (1, pytest.approx(10.0 - 4.0 - 1.0))
    assert times["inner"] == (3, pytest.approx(2.0 + 3.0 + 0.5))
    assert times["leaf"] == (1, pytest.approx(0.5))


def test_tracer_records_nesting_and_restores_originals(monkeypatch):
    fake = types.ModuleType("fake_layer")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", fake.__dict__)
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    original = fake.inner
    hooks = (Hook("bench.outer", "fake_layer", "outer"),
             Hook("bench.inner", "fake_layer", "inner"),
             Hook("bench.gone", "fake_layer", "missing"))
    tracer = Tracer(hooks)
    with tracer:
        tracer.enabled = True
        assert fake.outer(1) == 4
    assert fake.inner is original
    assert tracer.absent == ["fake_layer.missing"]
    spans = {name: (sid, parent) for sid, name, _, _, parent in tracer.spans()}
    assert spans["bench.inner"][1] == spans["bench.outer"][0]
    assert spans["bench.outer"][1] == -1


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    pct, value, beyond = run.tail([float(v) for v in range(1, 101)])
    assert (pct, value, beyond) == (90.0, 90.0, 10)


def test_set_up_fills_the_mix_and_counts_failing_skeletons(city_root, monkeypatch):
    from tripsmith import genquery
    from tripsmith.errors import InputError
    from tripsmith.genquery import EASY, MEDIUM
    from tripsmith.sandbox import load_dataset

    dataset = load_dataset(city_root)
    real_certify = genquery.certify
    certified = []

    def certify_failing_first(skeleton, *args, **kwargs):
        certified.append(skeleton)
        if len(certified) == 1:
            raise InputError("minutes out of range: 1440")
        return real_certify(skeleton, *args, **kwargs)

    monkeypatch.setattr(genquery, "certify", certify_failing_first)
    failures = Counter()
    queries = certified_queries(dataset, 7, {(1, EASY): 2, (1, MEDIUM): 1}, failures)
    assert failures == Counter({"InputError": 1})
    # skeletons of a kind outside the mix (here: 2-day trips) are never certified
    assert all(skeleton.days == 1 for skeleton in certified)
    # uids carry the attempt number; even attempts are easy skeletons
    parities = Counter(int(query.uid[1:]) % 2 for query in queries)
    assert parities == Counter({0: 2, 1: 1})


def test_certify_skeletons_fill_the_mix(city_root, tmp_path):
    workload = workloads.CertifySynth(city_root, tmp_path, seed=3)
    kinds = Counter()
    for position in workload.positions:
        skeleton = workloads._skeleton(workload.dataset, 3, position)
        kinds[(skeleton.days, "easy" if position % 2 == 0 else "medium")] += 1
    assert kinds == Counter(workloads.CERTIFY_MIX)
    assert len(set(workload.positions)) == len(workload.positions)


def test_speed_factor_scales_by_the_median_reference_time():
    assert speed.factor([0.02, 0.04, 0.02]) == pytest.approx(speed.NOMINAL_S / 0.02)
