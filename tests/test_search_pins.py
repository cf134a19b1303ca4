"""Search outcomes on the benchmark's synthetic city set are pinned.

Twelve sampled skeletons (easy and medium, every ordered city pair, one and
two days) are searched with the heuristic ranker behind a node cap, so each
outcome depends on the skeleton and the city set alone, never on the
deadline. Each outcome - status, serialized plan, nodes expanded and
constraints passed - must hash to its pin. A change that alters the search
on purpose updates these pins and says why; a change that only makes the
search cheaper must leave them alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from tripsmith.genquery import sample_skeleton
from tripsmith.genquery.certify import context_from_skeleton
from tripsmith.genquery.templates import skeleton_to_dsl
from tripsmith.plan import serialize_plan
from tripsmith.search import HeuristicRanker, SearchConfig, dfs_search

NODE_CAP = 150
SKELETONS = 12

PINS = {   # sha256 of [status, plan, nodes_expanded, constraints_passed]
    0: "a6e34fdf172724090fa0544bb552fdf37053b1db6624a33a6ddf2568dad9fdcb",   # partial
    1: "b107f8d7b189c8992c6703d857907bf177dcc2c41f1645ac42600c168e3a13d6",   # partial
    2: "449bbd2850714288b235d2abffdbab0c856d7d0c26f54b7ba84d843b79ec5380",   # full_pass
    3: "fc30ee12d524e80860915b13ea482a236feb77cfc7c016842cb4a53aa86ce165",   # partial
    4: "681f6e1903bf207112998302fd9e192eb7ae8e6bd428956f2f5e5c1af733b535",   # partial
    5: "53b81ad4ea679cea2c27147a64244d113cb51b20f840ce922937b4124c62b9fe",   # env_only_best
    6: "3b4441fbe95b3345aaf9cd7cb7c048a64208376db41a03a325cc8e45806c0e58",   # partial
    7: "97cbe5502ce3fdc60e2429319818fff2840cea3d12703b254ca4f9eb9fc48734",   # env_only_best
    8: "f0abf868e99c8410c14be2133d581610c59f904a98e5612d834356284d827359",   # partial
    9: "54a8d3ee9829a86220823ef7cdd4d8a107134c2be9501469f24ea768f76e10a7",   # partial
    10: "93c837ea60ac8cc295ea936318e8f99b7cf2132ee4656decb2f660dc546c7f12",  # full_pass
    11: "1c75ea5ee4658f20ca488d563f2c131db02073a01f2430f44d0e47c631cb7d38",  # env_only_best
}


class _NodeCapped:
    """HeuristicRanker that ranks nothing after `cap` expansions."""

    def __init__(self, cap: int):
        self.cap = cap
        self.calls = 0
        self.inner = HeuristicRanker()

    def rank(self, candidates, state, ctx):
        if self.calls >= self.cap:
            return []
        self.calls += 1
        return self.inner.rank(candidates, state, ctx)


def _outcome(dataset, index: int) -> list:
    pairs = list(itertools.permutations(dataset.city_names, 2))
    origin, target = pairs[index % len(pairs)]
    skeleton = sample_skeleton(dataset, "medium" if index % 2 else "easy", 700 + index,
                               origin=origin, target=target)
    outcome = dfs_search(skeleton_to_dsl(skeleton), dataset, _NodeCapped(NODE_CAP),
                         SearchConfig(budget_seconds=600), context_from_skeleton(skeleton))
    plan = None if outcome.plan is None else serialize_plan(outcome.plan)
    return [outcome.status, plan, outcome.nodes_expanded, outcome.constraints_passed]


def test_synth_search_outcomes_match_their_pins(synth_dataset):
    outcomes = {index: _outcome(synth_dataset, index) for index in range(SKELETONS)}
    digests = {index: hashlib.sha256(json.dumps(outcome).encode()).hexdigest()
               for index, outcome in outcomes.items()}
    assert digests == PINS
    # the pins cover every way a capped search that finds something can end
    assert {outcome[0] for outcome in outcomes.values()} == {"full_pass", "env_only_best",
                                                             "partial"}
