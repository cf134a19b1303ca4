"""Search outcomes on the benchmark's synthetic city set are pinned.

Twelve sampled skeletons (easy and medium, every ordered city pair, one and
two days) are searched with the heuristic ranker behind a node cap, so each
outcome depends on the skeleton and the city set alone, never on the
deadline; skeleton 0 is searched once more behind a cap too small to reach a
leaf. Each outcome - status, plan record, nodes expanded and constraints
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
EARLY_CAP = 5       # ends skeleton 0 before its first leaf
SKELETONS = 12

PINS = {   # sha256 of [status, plan, nodes_expanded, constraints_passed]
    0: "25650cfa559061941d8fdf8582623167327d3b248a39b31d42398cdc7454f575",   # full_pass
    1: "f19c615b3791dfc37e539347dfac3e659d73b9fdf9bc8360ee8f15075be8c9d8",   # full_pass
    2: "6d55f01431f7808c27160307f677962c2faecb2109b64053bb1488c9586a6a64",   # full_pass
    3: "50c1158ea3977d2958b1773735b05d3d7df10e0843ecab6e47d5b185f9cd6a07",   # full_pass
    4: "824f6a033583a4a5815d243915da57e6871df132adfd3e4b31c4d27e2cd9e49e",   # full_pass
    5: "efa75fca585ec5c57ad1fe465bbfded65f2e667d8cf8d74368bd003401c28fc9",   # full_pass
    6: "c565b12b8b9ef6f5d4fd89e213331737c55527bc3157c32f22afff70f4f070e1",   # full_pass
    7: "bb7557bbeaa67daf2e683e0f11bfc6e3c8313a72855a7c182fc0017fc32c8244",   # env_only_best
    8: "eddbac82b39b1eea478767491c13675b915de2f12c22d8e4b4e2b87fea42d1e4",   # full_pass
    9: "749b03da3cc98982097e912752e68261f50c5e247998d106c2a6210cab663f56",   # full_pass
    10: "0297fc7324624503ed73857dc48459405b9a92595dd3b4f136fc02812746410f",  # full_pass
    11: "abb3938523ec266e559590f263fa00ac655092ca7f0adb9c542971f1040f6286",  # full_pass
    "early": "25230c671653129261395cfd9e264e65e4edfac155df74c0149297576038b0f5",  # partial
}


def _outcome(dataset, index: int, cap: int = NODE_CAP) -> list:
    pairs = list(itertools.permutations(dataset.city_names, 2))
    origin, target = pairs[index % len(pairs)]
    skeleton = sample_skeleton(dataset, "medium" if index % 2 else "easy", 700 + index,
                               origin=origin, target=target)
    outcome = dfs_search(skeleton_to_dsl(skeleton), dataset, NodeCapped(cap),
                         SearchConfig(budget_seconds=600), context_from_skeleton(skeleton))
    plan = None if outcome.plan is None else serialize_plan(outcome.plan)
    return [outcome.status, plan, outcome.nodes_expanded, outcome.constraints_passed]


def test_synth_search_outcomes_match_their_pins(synth_dataset):
    outcomes = {index: _outcome(synth_dataset, index) for index in range(SKELETONS)}
    outcomes["early"] = _outcome(synth_dataset, 0, EARLY_CAP)
    digests = {index: hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()
               for index, outcome in outcomes.items()}
    assert digests == PINS
    # the pins cover every way a capped search that finds something can end
    assert {outcome[0] for outcome in outcomes.values()} == {"full_pass", "env_only_best",
                                                             "partial"}
