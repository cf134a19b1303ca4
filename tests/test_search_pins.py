"""Search outcomes on the benchmark's synthetic city set are pinned.

Twelve sampled skeletons (easy and medium, every ordered city pair, one and
two days) are searched with the heuristic ranker behind a node cap, so each
outcome depends on the skeleton and the city set alone, never on the
deadline. Each outcome - status, plan record, nodes expanded and constraints
passed - must hash, as JSON text with sorted keys, to its pin. A change that
alters the search on purpose updates these pins and says why; a change that
only makes the search cheaper must leave them alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from tripsmith.genquery import sample_skeleton
from tripsmith.genquery.certify import context_from_skeleton
from tripsmith.genquery.templates import skeleton_to_dsl
from tripsmith.plan import serialize_plan
from tripsmith.search import SearchConfig, dfs_search

from .conftest import NodeCapped

NODE_CAP = 150
SKELETONS = 12

PINS = {   # sha256 of [status, plan, nodes_expanded, constraints_passed]
    0: "daad898f5ff43cdd3201aa55004496b6c8c1377454f187bf4c73383b5fc3ad72",   # partial
    1: "07ceee65a0d9b6fb1a505bb65b3261356e14f28d8f8c093777e745a8b993a76d",   # partial
    2: "6d55f01431f7808c27160307f677962c2faecb2109b64053bb1488c9586a6a64",   # full_pass
    3: "f3b986811e98e4151366a657e7c1f2687f11620c302fa721b9674ee218458577",   # partial
    4: "fe7b8665a7ebdc16e2d04a7b9fb361c439cc2859002531d6db3406b59cd2881c",   # partial
    5: "c00e1126aab5b916dc859262ddff30f08556c37ca74e6d51a32c875edcf6d884",   # env_only_best
    6: "b9f203d527a6f9ecd9f0b78dd8b875433eba0779abe7b055ce5090788ff685fc",   # partial
    7: "1ca66909bfe2827e323a1c973005187d9a35557eaa71a97ce5ef7c790292458b",   # env_only_best
    8: "c4ed83e1a253d6016ccd1092fd0d86678f9565c38c2cb4c4c000dffa7f97f919",   # partial
    9: "5f4611fd5ee8f0df947b29b47dbe55aa1e4d56daad8c43b30e228cbec821853c",   # partial
    10: "0297fc7324624503ed73857dc48459405b9a92595dd3b4f136fc02812746410f",  # full_pass
    11: "4f32889dc37081fa42f73eba7efe7ab6125cb86831884c448097bb76d00efa89",  # env_only_best
}


def _outcome(dataset, index: int) -> list:
    pairs = list(itertools.permutations(dataset.city_names, 2))
    origin, target = pairs[index % len(pairs)]
    skeleton = sample_skeleton(dataset, "medium" if index % 2 else "easy", 700 + index,
                               origin=origin, target=target)
    outcome = dfs_search(skeleton_to_dsl(skeleton), dataset, NodeCapped(NODE_CAP),
                         SearchConfig(budget_seconds=600), context_from_skeleton(skeleton))
    plan = None if outcome.plan is None else serialize_plan(outcome.plan)
    return [outcome.status, plan, outcome.nodes_expanded, outcome.constraints_passed]


def test_synth_search_outcomes_match_their_pins(synth_dataset):
    outcomes = {index: _outcome(synth_dataset, index) for index in range(SKELETONS)}
    digests = {index: hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()
               for index, outcome in outcomes.items()}
    assert digests == PINS
    # the pins cover every way a capped search that finds something can end
    assert {outcome[0] for outcome in outcomes.values()} == {"full_pass", "env_only_best",
                                                             "partial"}
