"""Outside-in layer tracing for the benchmark.

`Tracer.install()` replaces public functions of `tripsmith` at each layer
boundary with wrappers that record one span per call: name, start, end,
parent span and item id. A wrapper is installed under the name the calling
module looks up (for example `tripsmith.search.state.goto`, not only
`tripsmith.sandbox.goto`), so no file of the package changes. Spans stay in
memory, in flat arrays, until the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children may overlap when `plan --jobs 2` runs queries on
two threads, so covered time is the length of the union of the child
intervals, clipped to the parent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Hook:
    """Wrap `owner.attr`, where owner is a module or a class given by dotted path."""

    span: str                 # "<layer>.<function>"
    owner: str                # e.g. "tripsmith.search.state"
    attr: str                 # e.g. "goto"
    observe: object = None    # callable(result) -> {counter: increment}

    @property
    def layer(self) -> str:
        return self.span.split(".", 1)[0]


def _scheduled(result) -> dict:
    return {"search.schedule.accepted": result is not None}


def _env_checked(result) -> dict:
    return {"evaluation.env_pass": bool(result.overall)}


def _model_built(result) -> dict:
    return {"milp.rows": len(result.rows), "milp.variables": len(result.variables)}


def _lp_rendered(result) -> dict:
    # isascii() is O(1): no copy of a large LP text inside the caller's span
    size = len(result) if result.isascii() else len(result.encode("utf-8"))
    return {"milp.lp_bytes": size}


_SCHEDULE = ("schedule_outbound", "schedule_return", "schedule_hotel", "schedule_visit")

# Every boundary the benchmark times. Several hooks may share a span name when
# more than one module imports the same function.
HOOKS = (
    Hook("sandbox.load_dataset", "tripsmith.cli", "load_dataset"),
    Hook("sandbox.goto", "tripsmith.search.state", "goto"),
    Hook("sandbox.goto", "tripsmith.evaluation.env_rules", "goto"),
    Hook("sandbox.goto", "tripsmith.plan.concepts", "goto"),
    Hook("sandbox.nearby", "tripsmith.search.rules", "nearby"),
    Hook("sandbox.intercity_select", "tripsmith.search.rules", "intercity_select"),
    Hook("sandbox.intercity_select", "tripsmith.genquery.skeleton", "intercity_select"),
    Hook("sandbox.intercity_select", "tripsmith.milp.params", "intercity_select"),
    Hook("sandbox.intercity_select", "tripsmith.sandbox", "intercity_select"),
    Hook("sandbox.CityDatabase.record", "tripsmith.sandbox.database.CityDatabase", "record"),
    Hook("search.dfs_search", "tripsmith.genquery.certify", "dfs_search"),
    Hook("search.dfs_search", "tripsmith.cli", "dfs_search"),
    Hook("search.rank", "tripsmith.search.ranking.HeuristicRanker", "rank"),
    Hook("search.next_activity_type", "tripsmith.search.dfs", "next_activity_type"),
    *(Hook(f"search.{name}", "tripsmith.search.dfs", name, _scheduled) for name in _SCHEDULE),
    Hook("evaluation.validate_env", "tripsmith.search.dfs", "validate_env", _env_checked),
    Hook("evaluation.validate_env", "tripsmith.evaluation", "validate_env", _env_checked),
    Hook("evaluation.evaluate_plan", "tripsmith.genquery.certify", "evaluate_plan"),
    Hook("evaluation.evaluate_plan", "tripsmith.cli", "evaluate_plan"),
    Hook("evaluation.score", "tripsmith.cli", "score"),
    Hook("dsl.parse", "tripsmith.search.dfs", "parse"),
    Hook("dsl.parse", "tripsmith.dsl.syntax", "parse"),
    Hook("dsl.check_syntax", "tripsmith.search.dfs", "check_syntax"),
    Hook("dsl.check_syntax", "tripsmith.dsl.interp", "check_syntax"),
    Hook("dsl.evaluate", "tripsmith.search.dfs", "evaluate"),
    Hook("dsl.evaluate", "tripsmith.dsl.interp", "evaluate"),
    Hook("plan.serialize_plan", "tripsmith.genquery.certify", "serialize_plan"),
    Hook("plan.serialize_plan", "tripsmith.cli", "serialize_plan"),
    Hook("plan.plan_from_obj", "tripsmith.genquery.certify", "plan_from_obj"),
    Hook("plan.plan_from_obj", "tripsmith.cli", "plan_from_obj"),
    Hook("genquery.sample_skeleton", "tripsmith.genquery", "sample_skeleton"),
    Hook("genquery.skeleton_to_dsl", "tripsmith.genquery.certify", "skeleton_to_dsl"),
    Hook("genquery.certify", "tripsmith.genquery", "certify"),
    Hook("milp.slice_from_dataset", "tripsmith.cli", "slice_from_dataset"),
    Hook("milp.build_model", "tripsmith.cli", "build_model", _model_built),
    Hook("milp.render_lp", "tripsmith.milp.lp_writer", "render_lp", _lp_rendered),
    Hook("milp.emit_lp", "tripsmith.cli", "emit_lp"),
    Hook("cli.read_jsonl", "tripsmith.cli", "read_jsonl"),
    Hook("cli.write_jsonl", "tripsmith.cli", "write_jsonl"),
    Hook("cli.cmd_plan", "tripsmith.cli", "cmd_plan"),
    Hook("cli.cmd_eval", "tripsmith.cli", "cmd_eval"),
    Hook("cli.cmd_milp", "tripsmith.cli", "cmd_milp"),
)

SPAN_NAMES = tuple(dict.fromkeys(hook.span for hook in HOOKS))
LAYERS = tuple(dict.fromkeys(hook.layer for hook in HOOKS))
ITEM_SPAN = "bench.item"


def _resolve(dotted: str):
    """A module, or a class inside a module, named by a dotted path."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


class Tracer:
    """Span recorder. Spans accumulate across install/uninstall cycles."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.names = [ITEM_SPAN, *dict.fromkeys(hook.span for hook in hooks)]
        self._name_ids = {name: idx for idx, name in enumerate(self.names)}
        self.span_id = array("q")
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []           # hooks whose target no longer exists
        self.installed: set[str] = set()       # span names with at least one live hook
        self.current_item = -1
        self.enabled = False                   # wrappers record only while True
        self._next_id = iter(range(1 << 62)).__next__
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []       # the installing thread's stack
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent_for(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to whatever the installing
        # thread has open, i.e. the command that started the pool.
        return self._root_stack[-1] if self._root_stack else -1

    def span(self, name: str, fn, args=(), kwargs=None, observe=None):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack()
        sid = self._next_id()
        parent = self._parent_for(stack)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.span_id.append(sid)
                self.name_id.append(self._name_ids[name])
                self.start.append(t0)
                self.end.append(t1)
                self.parent.append(parent)
                self.item.append(self.current_item)
        if observe is not None:
            with self._lock:
                for key, inc in observe(result).items():
                    self.counters[key] = self.counters.get(key, 0) + int(inc)
        return result

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.span(name, fn, args, kwargs, observe)

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        self._local.stack = self._root_stack
        self.absent = []
        for hook in self.hooks:
            try:
                owner = _resolve(hook.owner)
            except (ImportError, AttributeError):
                owner = None
            # a class method is wrapped only where the class itself defines it
            original = (vars(owner).get(hook.attr) if isinstance(owner, type)
                        else getattr(owner, hook.attr, None))
            if original is None:
                self.absent.append(f"{hook.owner}.{hook.attr}")
                continue
            self._restore.append((owner, hook.attr, original))
            self.installed.add(hook.span)
            setattr(owner, hook.attr, self._wrap(hook.span, original, hook.observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        """All spans as gzip'd tab-separated rows: id, name, start, end, parent, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\titem\n")
            for k in range(len(self.span_id)):
                fh.write(f"{self.span_id[k]}\t{self.names[self.name_id[k]]}\t"
                         f"{self.start[k]:.9f}\t{self.end[k]:.9f}\t"
                         f"{self.parent[k]}\t{self.item[k]}\n")

    def spans(self) -> list[tuple[int, str, float, float, int]]:
        """(id, name, start, end, parent) per recorded span."""
        return [(self.span_id[k], self.names[self.name_id[k]], self.start[k],
                 self.end[k], self.parent[k]) for k in range(len(self.span_id))]


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds).

    `spans` holds (id, name, start, end, parent) tuples; parent -1 is a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[int, float]] = {}
    for sid, name, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out
