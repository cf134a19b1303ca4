"""Depth-first greedy search over itinerary extensions.

Children are explored in ranker order; a branch dies when no candidate can be
scheduled. Completing a plan means placing the return transport, at which
point the full environmental check and every constraint program run; the first
all-green plan is returned immediately. On exhaustion or deadline expiry the
best intermediate wins: an environment-passing plan with the most satisfied
constraints, else the longest partial prefix, else nothing.

The wall-clock budget is tested at node-expansion boundaries only, so the
explored prefix is reproducible; elapsed time is reported but never affects
the result on desk-scale instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..dsl import check_source, run_program
from ..errors import InputError
from ..evaluation import validate_env
from ..plan.model import Plan
from ..timeutil import to_hhmm
from .context import QueryContext
from .ranking import HeuristicRanker, Ranker
from .rules import (
    ACCOMMODATION,
    ATTRACTION,
    FINISH,
    OUTBOUND,
    RETURN,
    next_activity_type,
    outbound_routes,
    return_routes,
)
from .state import (
    SearchConfig,
    SearchState,
    initial_state,
    schedule_hotel,
    schedule_outbound,
    schedule_return,
    schedule_visit,
)

FULL_PASS = "full_pass"
ENV_ONLY_BEST = "env_only_best"
PARTIAL = "partial"
EMPTY = "empty"

MAX_BRANCHING = 10            # ranked candidates tried per expansion


@dataclass
class SearchOutcome:
    status: str
    plan: Plan | None
    nodes_expanded: int
    elapsed_seconds: float
    constraints_passed: int = 0


class _TimeUp(Exception):
    pass


class _Search:
    def __init__(self, programs, dataset, ranker, budget_seconds, ctx, prune_budget,
                 trace=None):
        self.programs = programs
        self.dataset = dataset
        self.ranker = ranker
        self.budget_seconds = budget_seconds
        self.ctx = ctx
        self.prune_budget = prune_budget
        self.trace = trace
        self.db = dataset[ctx.target]
        self.nodes = 0
        self.start = time.monotonic()
        self.best_env_plan: Plan | None = None
        self.best_env_passed = -1
        self.best_partial: SearchState | None = None

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def constraint_passes(self, plan: Plan) -> list[bool]:
        return [run_program(program, plan, self.dataset).passed for program in self.programs]

    def candidates(self, act_type: str, state: SearchState) -> list:
        if act_type == OUTBOUND:
            return list(outbound_routes(self.dataset, self.ctx))
        if act_type == RETURN:
            return list(return_routes(self.dataset, self.ctx))
        if act_type == ATTRACTION:
            return [row for row in self.db.attractions
                    if row["name"] not in state.visited_attractions]
        if act_type == ACCOMMODATION:
            if state.hotel_name:
                return [self.db.record("hotels", state.hotel_name)]
            rows = self.db.hotels
            if self.ctx.required_room_type is not None:
                rows = [row for row in rows if row["numbed"] == self.ctx.required_room_type]
            return list(rows)
        # meals
        return [row for row in self.db.restaurants
                if row["name"] not in state.visited_restaurants]

    def extend(self, act_type: str, state: SearchState, candidate):
        if act_type == OUTBOUND:
            return schedule_outbound(state, candidate, self.ctx)
        if act_type == RETURN:
            return schedule_return(state, candidate, self.db, self.ctx)
        if act_type == ACCOMMODATION:
            return schedule_hotel(state, candidate, self.db, self.ctx)
        return schedule_visit(state, candidate, act_type, self.db, self.ctx)

    def note_partial(self, state: SearchState) -> None:
        if self.best_partial is None or state.activity_count > self.best_partial.activity_count:
            self.best_partial = state

    def finish_plan(self, state: SearchState):
        """Validate a completed plan; a full pass short-circuits the search."""
        plan = state.to_plan(self.ctx)
        env = validate_env(plan, self.dataset)
        if not env.overall:
            self.note_partial(state)
            return None
        passes = self.constraint_passes(plan)
        if all(passes):
            return plan
        if sum(passes) > self.best_env_passed:
            self.best_env_passed = sum(passes)
            self.best_env_plan = plan
        return None

    def dfs(self, state: SearchState):
        if self.elapsed() > self.budget_seconds:
            raise _TimeUp
        self.nodes += 1
        if (
            self.prune_budget
            and self.ctx.budget_limit is not None
            and state.total_cost > self.ctx.budget_limit
        ):
            return None
        act_type = next_activity_type(state, self.dataset, self.ctx)
        if self.trace is not None:
            self.trace({
                "node": self.nodes,
                "action": act_type,
                "day": state.day,
                "clock": to_hhmm(state.clock),
                "position": state.position,
            })
        if act_type == FINISH:
            return self.finish_plan(state)
        self.note_partial(state)
        ranked = self.ranker.rank(self.candidates(act_type, state), state, self.ctx)
        for candidate in ranked[:MAX_BRANCHING]:
            child = self.extend(act_type, state, candidate)
            if child is None:
                continue
            found = self.dfs(child)
            if found is not None:
                return found
        return None

    def outcome(self, found: Plan | None) -> SearchOutcome:
        elapsed = self.elapsed()
        if found is not None:
            return SearchOutcome(FULL_PASS, found, self.nodes, elapsed,
                                 constraints_passed=len(self.programs))
        if self.best_env_plan is not None:
            return SearchOutcome(ENV_ONLY_BEST, self.best_env_plan, self.nodes, elapsed,
                                 constraints_passed=max(self.best_env_passed, 0))
        if self.best_partial is not None and self.best_partial.activity_count > 0:
            return SearchOutcome(PARTIAL, self.best_partial.to_plan(self.ctx),
                                 self.nodes, elapsed)
        return SearchOutcome(EMPTY, None, self.nodes, elapsed)


def dfs_search(
    constraint_sources: list[str],
    dataset,
    ranker: Ranker | None,
    cfg: SearchConfig,
    ctx: QueryContext,
    prune_budget: bool = True,
    trace=None,
) -> SearchOutcome:
    """Search for a plan satisfying the environment and every constraint.

    `trace`, when given, receives one record per expanded node (node id,
    chosen action, day, clock, position).
    """
    cfg.validate()
    programs = []
    for source in constraint_sources:
        program, diagnostics = check_source(source)
        if program is None:
            raise InputError(
                "constraint does not check clean: "
                + "; ".join(d.render() for d in diagnostics)
            )
        programs.append(program)
    search = _Search(programs, dataset, ranker or HeuristicRanker(), cfg.budget_seconds,
                     ctx, prune_budget, trace)
    try:
        found = search.dfs(initial_state())
    except _TimeUp:
        found = None
    return search.outcome(found)


def enumerate_complete_plans(dataset, ctx: QueryContext, limit: int = 100000) -> list[Plan]:
    """Every complete plan reachable by the extension rules, in tree order.

    Exhaustive counterpart of dfs_search used by tests and certification
    audits: no ranking, no branching cap, no deadline, no pruning.
    """
    plans: list[Plan] = []
    search = _Search([], dataset, HeuristicRanker(), math.inf, ctx, prune_budget=False)

    def walk(state: SearchState) -> None:
        if len(plans) >= limit:
            return
        act_type = next_activity_type(state, dataset, ctx)
        if act_type == FINISH:
            plans.append(state.to_plan(ctx))
            return
        for candidate in search.candidates(act_type, state):
            child = search.extend(act_type, state, candidate)
            if child is not None:
                walk(child)

    walk(initial_state())
    return plans
