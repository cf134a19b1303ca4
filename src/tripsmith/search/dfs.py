"""Depth-first greedy search over itinerary extensions.

Children are explored in ranker order; a branch dies when no candidate can be
scheduled. Completing a plan means placing the return transport; the first
plan that passes every constraint program is returned immediately. On
exhaustion or deadline expiry the best intermediate wins: a completed plan
with the most satisfied constraints (the first found among equals), else the
longest partial prefix, else nothing.

A completed plan (a leaf) is env-valid by construction: every loaded route
passes the cross-city rules (the loader refuses one whose stations do not
carry its cities or whose id is not its own), and the `schedule_*` helpers
refuse every extension that breaks an environmental rule. So the 25-rule
check runs only in `certify` and `eval`, and a leaf is decided by its
constraint programs alone.
Once one leaf is decided, a leaf that has failed too many programs to pass
them all, or to beat the best count so far, is dropped before the remaining
programs run. Programs run in fail-first order: the one that last dropped a
leaf moves to the front. A pass count does not depend on that order, and
`run_program` folds every evaluation error into a failure, so the order
changes only what a leaf costs, never its verdict; it follows from the
search's own history, so runs stay deterministic.

Each search computes once what no state changes: the outbound and return
route lists, the latest return departure (which `next_activity_type` gets as
its fourth argument instead of selecting the return routes at every node) and
the hotels of the required room type. Every candidate list but a booked
hotel's one row is a `ranking.TableView`: the rows a filter over its table
would give, in table order, so an LLM ranker's prompt is the filter's. An
attraction or restaurant view leaves out the visited rows by their load-time
positions and ranks from the database's cached orders; a route or hotel view
ranks from orders cached for this search only.

The views are pruned before the `MAX_BRANCHING` cap, so that the cap spends
its width only on candidates some `schedule_*` helper can accept. A return
view leaves out the routes that depart before the clock (a prefix of the
routes, which are sorted by departure), and an attraction or restaurant view
the rows whose closing minute is at or before it: arrival is never earlier
than the clock, and a visit needs a positive duration. The prune is sound, so
it changes which rows the cap keeps, never what a helper accepts.
`enumerate_complete_plans` does not prune, so that tests comparing the search
with it do not rest on the prune.

The wall-clock budget is tested at node-expansion boundaries only, so the
explored prefix is reproducible; elapsed time is reported but never affects
the result on desk-scale instances.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from ..dsl import check_source, run_program
from ..errors import InputError
from ..plan.model import Plan
from ..timeutil import to_hhmm
from .context import QueryContext
from .ranking import MAX_BRANCHING, HeuristicRanker, Ranker, TableOrders, TableView
from .rules import (
    ACCOMMODATION,
    ATTRACTION,
    FINISH,
    OUTBOUND,
    RETURN,
    latest_return,
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

ENUMERATION_LIMIT = 100000    # most plans enumerate_complete_plans returns


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
                 trace=None, prune_closed=True):
        self.programs = programs
        self.order = list(programs)     # fail-first: the last program to drop a leaf leads
        self.dataset = dataset
        self.ranker = ranker
        self.budget_seconds = budget_seconds
        self.ctx = ctx
        self.prune_budget = prune_budget
        self.trace = trace
        self.prune_closed = prune_closed
        self.db = db = dataset[ctx.target]
        # what no state changes, computed once per search
        self.outbound = outbound_routes(dataset, ctx)
        self.returns = return_routes(dataset, ctx)
        self.begins = [route.begin for route in self.returns]
        self.latest = latest_return(self.returns)
        room = ctx.required_room_type
        self.hotels = [row for row in db.hotels if room is None or row["numbed"] == room]
        self.orders = {    # routes and hotels for this search only; POI tables per database
            OUTBOUND: TableOrders(self.outbound),
            RETURN: TableOrders(self.returns),
            ACCOMMODATION: TableOrders(self.hotels),
        }
        for table in ("attractions", "restaurants"):
            if table not in db.order_memo:
                db.order_memo[table] = TableOrders(getattr(db, table))
            self.orders[table] = db.order_memo[table]
        self.nodes = 0
        self.start = time.monotonic()
        self.best_plan: Plan | None = None
        self.best_passed = -1
        self.best_partial: SearchState | None = None

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def candidates(self, act_type: str, state: SearchState) -> Sequence:
        """The candidates for `act_type`, in table order; in a pruning search,
        without those that no `schedule_*` helper accepts at the state's clock."""
        if act_type == OUTBOUND:
            return TableView(self.orders[OUTBOUND])
        if act_type == RETURN:
            # the routes are sorted by departure: those leaving before the clock lead
            gone = bisect_left(self.begins, state.clock) if self.prune_closed else 0
            return TableView(self.orders[RETURN], frozenset(range(gone)))
        if act_type == ATTRACTION:
            return self.unvisited("attractions", state.visited_attractions, state.clock)
        if act_type == ACCOMMODATION:
            if state.hotel_name:
                return [self.db.record("hotels", state.hotel_name)]
            return TableView(self.orders[ACCOMMODATION])
        # meals
        return self.unvisited("restaurants", state.visited_restaurants, state.clock)

    def unvisited(self, table: str, visited: frozenset, clock: int) -> TableView:
        """The table without the visited rows, left out by their positions, and in
        a pruning search without the rows that close at or before `clock`."""
        positions = self.db.positions_by_name[table]
        removed = frozenset(positions[name] for name in visited if name in positions)
        closes = self.db.close_minutes[table] if self.prune_closed else None
        return TableView(self.orders[table], removed, closes, clock)

    def extend(self, act_type: str, state: SearchState, candidate):
        if act_type == OUTBOUND:
            return schedule_outbound(state, candidate, self.ctx)
        if act_type == RETURN:
            return schedule_return(state, candidate, self.db, self.ctx)
        if act_type == ACCOMMODATION:
            return schedule_hotel(state, candidate, self.db, self.ctx)
        return schedule_visit(state, candidate, act_type, self.db, self.ctx)

    def finish_plan(self, state: SearchState):
        """Decide a completed plan; a full pass short-circuits the search.

        The plan can change the outcome only by passing every program, or by
        passing more programs than `best_passed`. Past `allowed` failures
        it can do neither, so it is dropped before the remaining programs run.
        """
        plan = state.to_plan(self.ctx)
        order = self.order
        allowed = len(order) - self.best_passed - 1
        failures = 0
        for index, program in enumerate(order):
            if run_program(program, plan, self.dataset).passed:
                continue
            failures += 1
            if failures > allowed:
                del order[index]
                order.insert(0, program)
                return None
        if not failures:
            return plan
        # at most `allowed` failures: strictly more passes than best_passed
        self.best_passed = len(order) - failures
        self.best_plan = plan
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
        act_type = next_activity_type(state, self.dataset, self.ctx, self.latest)
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
        if self.best_partial is None or state.activity_count > self.best_partial.activity_count:
            self.best_partial = state
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
        if self.best_plan is not None:
            return SearchOutcome(ENV_ONLY_BEST, self.best_plan, self.nodes, elapsed,
                                 constraints_passed=self.best_passed)
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
    trace=None,
) -> SearchOutcome:
    """Search for a plan satisfying every constraint; every plan it builds is env-valid.

    `trace`, when given, receives one record per expanded node (node id,
    chosen action, day, clock, position).
    """
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
                     ctx, prune_budget=True, trace=trace)
    try:
        found = search.dfs(initial_state())
    except _TimeUp:
        found = None
    return search.outcome(found)


def enumerate_complete_plans(dataset, ctx: QueryContext) -> list[Plan]:
    """Every complete plan reachable by the extension rules, in tree order.

    Exhaustive counterpart of dfs_search used by tests and certification
    audits: no ranking, no branching cap, no deadline, no pruning of any kind.
    """
    plans: list[Plan] = []
    search = _Search([], dataset, HeuristicRanker(), math.inf, ctx, prune_budget=False,
                     prune_closed=False)

    def walk(state: SearchState) -> None:
        if len(plans) >= ENUMERATION_LIMIT:
            return
        act_type = next_activity_type(state, dataset, ctx, search.latest)
        if act_type == FINISH:
            plans.append(state.to_plan(ctx))
            return
        for candidate in search.candidates(act_type, state):
            child = search.extend(act_type, state, candidate)
            if child is not None:
                walk(child)

    walk(initial_state())
    return plans
