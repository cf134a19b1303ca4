"""The benchmark's trace hooks against the package they wrap.

`bench/tracing.py` names each function it times by a dotted path, and a path
that resolves to nothing is skipped, not refused. A refactor that moves or
deletes a hooked function would silently stop timing its layer, so the paths
that resolve to nothing are pinned here: a new one fails this test.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# hooks on a module that no longer imports the function, or never did
KNOWN_ABSENT = [
    "tripsmith.cli.build_model",
    "tripsmith.cli.emit_lp",
    "tripsmith.dsl.interp.check_syntax",
    "tripsmith.milp.lp_writer.render_lp",
    "tripsmith.plan.concepts.goto",
    "tripsmith.search.dfs.check_syntax",
    "tripsmith.search.dfs.evaluate",
    "tripsmith.search.dfs.parse",
    "tripsmith.search.dfs.validate_env",
]


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves_but_the_known_absent_ones(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        absent = sorted(tracer.absent)
    finally:
        tracer.uninstall()
    assert absent == KNOWN_ABSENT
    # so these spans have no live hook at all, and always read zero
    assert set(tracing.SPAN_NAMES) - tracer.installed == {
        "dsl.check_syntax", "milp.build_model", "milp.emit_lp", "milp.render_lp"}
