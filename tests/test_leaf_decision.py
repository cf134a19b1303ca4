"""A search leaf is decided by the cheapest tests that can change the outcome.

`_Search.finish_plan` runs the constraint programs alone, in fail-first
order, and drops a leaf once it can neither pass them all nor beat the best
count so far. The reference below is the eager decision it replaced: the
environmental check first, then every program, on every leaf. Both must give
the same outcome (status, plan, nodes expanded, constraints passed) on the
desk fixtures and on the benchmark's synthetic city set, for queries ending
in each status and with a program that raises `DslEvalError`. That the
search may skip the check at all is pinned in `test_env_by_construction`.
"""

from __future__ import annotations

import itertools
import json

import pytest

from tripsmith.dsl import run_program
from tripsmith.evaluation import validate_env
from tripsmith.genquery import sample_skeleton
from tripsmith.genquery.certify import context_from_skeleton
from tripsmith.genquery.templates import skeleton_to_dsl
from tripsmith.plan import serialize_plan
from tripsmith.search import (
    EMPTY,
    ENV_ONLY_BEST,
    FULL_PASS,
    PARTIAL,
    QueryContext,
    SearchConfig,
    dfs,
    dfs_search,
)

from .conftest import NodeCapped

# -- the eager reference ----------------------------------------------------------


def _eager_finish_plan(self, state):
    """Environmental check first, then every program, on every leaf."""
    plan = state.to_plan(self.ctx)
    if not validate_env(plan, self.dataset).overall:
        if self.best_partial is None or state.activity_count > self.best_partial.activity_count:
            self.best_partial = state
        return None
    passes = [run_program(program, plan, self.dataset).passed for program in self.programs]
    if all(passes):
        return plan
    if sum(passes) > self.best_passed:
        self.best_passed = sum(passes)
        self.best_plan = plan
    return None


def _search(sources, dataset, ctx, cap):
    outcome = dfs_search(sources, dataset, NodeCapped(cap), SearchConfig(budget_seconds=600),
                         ctx)
    plan = None if outcome.plan is None else json.dumps(serialize_plan(outcome.plan),
                                                        sort_keys=True)
    return outcome.status, plan, outcome.nodes_expanded, outcome.constraints_passed


def _both(monkeypatch, sources, dataset, ctx, cap=10_000):
    """The outcome of the search, after checking that the eager reference agrees."""
    new = _search(sources, dataset, ctx, cap)
    with monkeypatch.context() as patch:
        patch.setattr(dfs._Search, "finish_plan", _eager_finish_plan)
        old = _search(sources, dataset, ctx, cap)
    assert new == old
    return new


# -- constraint programs ------------------------------------------------------------

FALSE = "return 1 == 2"


def _cuisine(name):
    return ("city = target_city(plan)\n"
            "for act in allactivities(plan):\n"
            "    if activity_type(act) in ['breakfast', 'lunch', 'dinner']:\n"
            f"        if restaurant_type(act, city) == '{name}':\n"
            "            return True\n"
            "return False")


def _cost_at_most(bound):
    return ("total = 0\n"
            "for act in allactivities(plan):\n"
            "    total += activity_cost(act)\n"
            "    total += innercity_transport_cost(activity_transports(act))\n"
            f"return total <= {bound}")


def _attractions_at_least(count):
    return ("count = 0\n"
            "for act in allactivities(plan):\n"
            "    if activity_type(act) == 'attraction':\n"
            "        count += 1\n"
            f"return count >= {count}")


def _raises_on(position):
    """Divides by zero (a DslEvalError, so a failure) on plans visiting `position`."""
    return ("zero = 0\n"
            "for act in allactivities(plan):\n"
            f"    if activity_position(act) == '{position}':\n"
            "        return 1 / zero > 0\n"
            "return True")


def _visits(position):
    return ("for act in allactivities(plan):\n"
            f"    if activity_position(act) == '{position}':\n"
            "        return True\n"
            "return False")


MICRO_CASES = [
    # (days, sources, expected status)
    (1, [_cuisine("Hotpot"), _cost_at_most(5000), _attractions_at_least(1)], FULL_PASS),
    (2, [_attractions_at_least(2), _cuisine("Teahouse"), _cost_at_most(2000)], FULL_PASS),
    (1, [_cuisine("Hotpot"), _cost_at_most(700), _attractions_at_least(2), FALSE],
     ENV_ONLY_BEST),
    (2, [FALSE, _visits("Stone Bridge"), _cuisine("Noodles"), _cost_at_most(1200),
         _attractions_at_least(3)], ENV_ONLY_BEST),
    (1, [_raises_on("Noodle Corner"), _cuisine("Noodles"), _visits("Harbor Park"), FALSE],
     ENV_ONLY_BEST),
    (2, [_raises_on("Hotpot Alley"), _cuisine("Hotpot")], ENV_ONLY_BEST),
]


@pytest.mark.parametrize("days, sources, expected", MICRO_CASES)
def test_leaf_decision_matches_eager_on_micro(monkeypatch, micro_dataset, days, sources,
                                              expected):
    ctx = QueryContext("Alpha", "Beta", days, 2)
    assert _both(monkeypatch, sources, micro_dataset, ctx)[0] == expected


def test_leaf_decision_matches_eager_when_nothing_is_scheduled(monkeypatch, micro_dataset):
    ctx = QueryContext("Alpha", "Beta", 1, 2)
    ctx.required_intercity_kind = "airplane"      # the micro fixture has trains only
    assert _both(monkeypatch, [_cuisine("Hotpot"), FALSE], micro_dataset, ctx)[0] == EMPTY


MINI_CASES = [
    ("Alpha", "Beta", 2, [_cuisine("Hotpot"), _visits("City Museum"), _cost_at_most(3000)],
     FULL_PASS),
    ("Alpha", "Beta", 2, [_visits("Lakeview Tower"), _cuisine("Cantonese"),
                          _attractions_at_least(4), _cost_at_most(1500), FALSE],
     ENV_ONLY_BEST),
]


@pytest.mark.parametrize("origin, target, days, sources, expected", MINI_CASES)
def test_leaf_decision_matches_eager_on_mini(monkeypatch, mini_dataset, origin, target, days,
                                             sources, expected):
    ctx = QueryContext(origin, target, days, 3)
    assert _both(monkeypatch, sources, mini_dataset, ctx, cap=2000)[0] == expected


def _synth_query(dataset, index):
    """Query `index` of a fixed stream of sampled skeletons on the synthetic set."""
    pairs = list(itertools.permutations(dataset.city_names, 2))
    origin, target = pairs[index % len(pairs)]
    skeleton = sample_skeleton(dataset, "medium" if index % 2 else "easy", 300 + index,
                               origin=origin, target=target)
    return skeleton_to_dsl(skeleton), context_from_skeleton(skeleton)


SYNTH_CASES = [
    # (skeleton index, extra programs, node cap, expected status)
    (8, [], 200, FULL_PASS),
    (3, [], 200, ENV_ONLY_BEST),
    (5, [FALSE], 200, ENV_ONLY_BEST),
    (0, [], 10, PARTIAL),       # the cap comes before the first leaf
]


@pytest.mark.parametrize("index, extra, cap, expected", SYNTH_CASES)
def test_leaf_decision_matches_eager_on_a_synthetic_city(monkeypatch, synth_dataset, index,
                                                         extra, cap, expected):
    sources, ctx = _synth_query(synth_dataset, index)
    assert _both(monkeypatch, sources + extra, synth_dataset, ctx, cap=cap)[0] == expected


# -- a leaf runs only the programs that can still matter --------------------------------


def test_programs_run_fail_first_and_stop_once_a_leaf_cannot_matter(monkeypatch,
                                                                    synth_dataset):
    sources, ctx = _synth_query(synth_dataset, 69)
    # the first leaf misses this attraction and a later one visits it: a second best
    sources = sources + [_visits("Jade Harbor Gate")]
    real = dfs.run_program
    searches, runs, results = [], [], []

    def counting(program, plan, dataset):
        runs.append(program)
        return real(program, plan, dataset)

    class Recording(dfs._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.decided = []     # (passes, best count before and after, new best, full pass)
            searches.append(self)

        def finish_plan(self, state):
            plan = state.to_plan(self.ctx)
            passes = sum(real(program, plan, self.dataset).passed for program in self.programs)
            before, best = self.best_passed, self.best_plan
            found = super().finish_plan(state)
            self.decided.append((passes, before, self.best_passed, self.best_plan is not best,
                                 found is not None))
            return found

    monkeypatch.setattr(dfs, "run_program", counting)
    monkeypatch.setattr(dfs, "_Search", Recording)
    for _ in range(2):
        runs.clear()
        outcome = _search(sources, synth_dataset, ctx, 200)
        search = searches[-1]
        order = [next(i for i, p in enumerate(search.programs) if p is q) for q in search.order]
        results.append((outcome, order, search.decided, len(runs)))
    assert results[0] == results[1]
    outcome, order, decided, run_count = results[0]
    assert outcome[0] == ENV_ONLY_BEST
    programs = len(searches[0].programs)
    for passes, before, after, replaced, full in decided:
        assert not full
        # a leaf becomes the best exactly when it passes more programs than the best before it
        assert replaced == (passes > before), (passes, before)
        assert after == max(passes, before), (passes, before, after)
    assert sum(replaced for _, _, _, replaced, _ in decided) >= 2
    # the eager decision ran every program on every leaf
    assert run_count < len(decided) * programs / 2, (run_count, len(decided))
    assert order != sorted(order)                  # a program moved to the front
