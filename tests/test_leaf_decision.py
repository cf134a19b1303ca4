"""A search leaf is decided by the cheapest tests that can change the outcome.

`_Search.finish_plan` runs the constraint programs first, in fail-first
order, drops a leaf once it can neither pass them all nor beat the best
environment-passing count so far, and runs the environmental check only on a
leaf that got that far. The reference below is the eager decision it
replaced: the environmental check first, then every program. Both must give
the same outcome (status, plan, nodes expanded, constraints passed) on the
desk fixtures and on the benchmark's synthetic city set, for queries ending
in each status, with leaves that fail the environmental check and with a
program that raises `DslEvalError`.
"""

from __future__ import annotations

import contextlib
import itertools
import json

import pytest

from tripsmith.dsl import check_source, run_program
from tripsmith.evaluation.env_rules import EnvReport
from tripsmith.genquery import sample_skeleton
from tripsmith.genquery.certify import context_from_skeleton
from tripsmith.genquery.templates import skeleton_to_dsl
from tripsmith.plan import serialize_plan
from tripsmith.search import (
    EMPTY,
    ENV_ONLY_BEST,
    FULL_PASS,
    PARTIAL,
    HeuristicRanker,
    QueryContext,
    SearchConfig,
    dfs,
    dfs_search,
)
from tripsmith.search.rules import FINISH

# -- the eager reference ----------------------------------------------------------


def _eager_finish_plan(self, state):
    """Environmental check first, then every program, on every leaf."""
    plan = state.to_plan(self.ctx)
    if not dfs.validate_env(plan, self.dataset).overall:
        self.note_partial(state)
        return None
    passes = [dfs.run_program(program, plan, self.dataset).passed
              for program in self.programs]
    if all(passes):
        return plan
    if sum(passes) > self.best_env_passed:
        self.best_env_passed = sum(passes)
        self.best_env_plan = plan
    return None


class _Capped:
    """HeuristicRanker that ranks nothing after `cap` expansions, so a search
    on the synthetic city set ends after a fixed amount of work."""

    def __init__(self, cap: int):
        self.cap = cap
        self.calls = 0
        self.inner = HeuristicRanker()

    def rank(self, candidates, state, ctx):
        if self.calls >= self.cap:
            return []
        self.calls += 1
        return self.inner.rank(candidates, state, ctx)


def _search(sources, dataset, ctx, cap, trace=None):
    outcome = dfs_search(sources, dataset, _Capped(cap), SearchConfig(budget_seconds=600),
                         ctx, trace=trace)
    plan = None if outcome.plan is None else json.dumps(serialize_plan(outcome.plan),
                                                        sort_keys=True)
    return outcome.status, plan, outcome.nodes_expanded, outcome.constraints_passed


@contextlib.contextmanager
def _rejecting(monkeypatch, text):
    """The environmental check also fails every plan whose record text contains `text`."""
    if text is None:
        yield
        return
    real = dfs.validate_env

    def check(plan, dataset):
        report = real(plan, dataset)
        if text in json.dumps(serialize_plan(plan)):
            return EnvReport({**report.results, "rejected_by_test": False})
        return report

    with monkeypatch.context() as patch:
        patch.setattr(dfs, "validate_env", check)
        yield


def _both(monkeypatch, sources, dataset, ctx, cap=10_000, reject=None):
    """The outcome of the search, after checking that the eager reference agrees."""
    with _rejecting(monkeypatch, reject):
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
    # (days, sources, env rejects plans containing, expected status)
    (1, [_cuisine("Hotpot"), _cost_at_most(5000), _attractions_at_least(1)], None, FULL_PASS),
    (2, [_attractions_at_least(2), _cuisine("Teahouse"), _cost_at_most(2000)], None, FULL_PASS),
    (1, [_cuisine("Hotpot"), _cost_at_most(700), _attractions_at_least(2), FALSE], None,
     ENV_ONLY_BEST),
    (2, [FALSE, _visits("Stone Bridge"), _cuisine("Noodles"), _cost_at_most(1200),
         _attractions_at_least(3)], None, ENV_ONLY_BEST),
    (1, [_raises_on("Noodle Corner"), _cuisine("Noodles"), _visits("Harbor Park"), FALSE],
     None, ENV_ONLY_BEST),
    (2, [_raises_on("Hotpot Alley"), _cuisine("Hotpot")], None, ENV_ONLY_BEST),
    (1, [_cuisine("Hotpot"), _attractions_at_least(1), FALSE], "Hotpot Alley", ENV_ONLY_BEST),
    (2, [_attractions_at_least(1), _cost_at_most(5000)], "Rest Inn", FULL_PASS),
    (1, [_cuisine("Hotpot"), FALSE], "Beta", PARTIAL),
    (2, [_raises_on("Tea Pavilion"), FALSE], "Alpha", PARTIAL),
]


@pytest.mark.parametrize("days, sources, reject, expected", MICRO_CASES)
def test_leaf_decision_matches_eager_on_micro(monkeypatch, micro_dataset, days, sources,
                                              reject, expected):
    ctx = QueryContext("Alpha", "Beta", days, 2)
    assert _both(monkeypatch, sources, micro_dataset, ctx, reject=reject)[0] == expected


def test_leaf_decision_matches_eager_when_nothing_is_scheduled(monkeypatch, micro_dataset):
    ctx = QueryContext("Alpha", "Beta", 1, 2)
    ctx.required_intercity_kind = "airplane"      # the micro fixture has trains only
    assert _both(monkeypatch, [_cuisine("Hotpot"), FALSE], micro_dataset, ctx)[0] == EMPTY


MINI_CASES = [
    ("Alpha", "Beta", 2, [_cuisine("Hotpot"), _visits("City Museum"), _cost_at_most(3000)],
     None, FULL_PASS),
    ("Alpha", "Beta", 2, [_visits("Lakeview Tower"), _cuisine("Cantonese"),
                          _attractions_at_least(4), _cost_at_most(1500), FALSE],
     None, ENV_ONLY_BEST),
    ("Beta", "Alpha", 2, [_cuisine("Teahouse"), _raises_on("Alpha Park"),
                          _visits("Glass Bridge"), FALSE], "Clocktower Square",
     ENV_ONLY_BEST),
    ("Beta", "Alpha", 1, [_cuisine("Dumplings"), FALSE], "Alpha Station", PARTIAL),
]


@pytest.mark.parametrize("origin, target, days, sources, reject, expected", MINI_CASES)
def test_leaf_decision_matches_eager_on_mini(monkeypatch, mini_dataset, origin, target, days,
                                             sources, reject, expected):
    ctx = QueryContext(origin, target, days, 3)
    status = _both(monkeypatch, sources, mini_dataset, ctx, cap=2000, reject=reject)[0]
    assert status == expected


def _synth_query(dataset, index):
    """Query `index` of a fixed stream of sampled skeletons on the synthetic set."""
    pairs = list(itertools.permutations(dataset.city_names, 2))
    origin, target = pairs[index % len(pairs)]
    skeleton = sample_skeleton(dataset, "medium" if index % 2 else "easy", 300 + index,
                               origin=origin, target=target)
    return skeleton_to_dsl(skeleton), context_from_skeleton(skeleton)


SYNTH_CASES = [
    # (skeleton index, extra programs, env rejects plans containing, expected status)
    (8, [], None, FULL_PASS),
    (1, [], None, ENV_ONLY_BEST),
    (5, [FALSE], None, ENV_ONLY_BEST),
    (1, [], "Jade", ENV_ONLY_BEST),
    (11, [], "Lotus", PARTIAL),
    (0, [], None, PARTIAL),
]


@pytest.mark.parametrize("index, extra, reject, expected", SYNTH_CASES)
def test_leaf_decision_matches_eager_on_a_synthetic_city(monkeypatch, synth_dataset, index,
                                                         extra, reject, expected):
    sources, ctx = _synth_query(synth_dataset, index)
    status = _both(monkeypatch, sources + extra, synth_dataset, ctx, cap=200, reject=reject)[0]
    assert status == expected


# -- the environmental check runs only where it can matter -----------------------------


def test_env_check_runs_only_on_leaves_that_could_change_the_outcome(monkeypatch,
                                                                    synth_dataset):
    sources, ctx = _synth_query(synth_dataset, 5)
    programs = [check_source(source)[0] for source in sources]
    real = dfs.validate_env
    searches = []

    def check(plan, dataset):
        passed = sum(run_program(program, plan, dataset).passed for program in programs)
        report = real(plan, dataset)
        searches[-1].checked.append((passed, report.overall))
        return report

    class Recording(dfs._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.checked = []        # (pass count, env verdict) of each checked leaf
            self.leaves = 0
            searches.append(self)

    def count_leaves(row):
        if row["action"] == FINISH:
            searches[-1].leaves += 1

    monkeypatch.setattr(dfs, "validate_env", check)
    monkeypatch.setattr(dfs, "_Search", Recording)
    runs = []
    for _ in range(2):
        outcome = _search(sources, synth_dataset, ctx, 200, trace=count_leaves)
        search = searches[-1]
        order = [next(i for i, p in enumerate(search.programs) if p is q)
                 for q in search.order]
        runs.append((outcome, order, search.checked, search.leaves))
    assert runs[0] == runs[1]
    outcome, order, checked, leaves = runs[0]
    assert outcome[0] == ENV_ONLY_BEST
    best = -1
    for passed, env_ok in checked:
        # a full pass, or more passes than every environment-passing leaf before it
        assert best == -1 or passed > best, (passed, best)
        if env_ok:
            best = passed
    assert leaves >= 200 and len(checked) <= 5     # the eager decision checked every leaf
    assert order != sorted(order)                  # a program moved to the front
