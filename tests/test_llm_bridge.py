import json
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest

import tripsmith
from tripsmith.llm import (
    CallableTransport,
    FaultInjectingTransport,
    HttpTransport,
    LlmEndpoint,
    LlmRanker,
    RecordingTransport,
    ReplayTransport,
    TransportError,
    nl2dsl,
    parse_name_list,
    prompt_hash,
)
from tripsmith.search import HeuristicRanker, initial_state
from tripsmith.search.context import QueryContext
from tripsmith.search.ranking import MAX_BRANCHING, TableOrders, TableView

from .conftest import micro_context

RESTAURANTS = [
    {"name": "Hotpot Alley", "cuisinetype": "Hotpot", "price": Decimal(80)},
    {"name": "Noodle Corner", "cuisinetype": "Noodles", "price": Decimal(30)},
    {"name": "Tea Pavilion", "cuisinetype": "Teahouse", "price": Decimal(45)},
    {"name": "Dumpling Den", "cuisinetype": "Dumplings", "price": Decimal(25)},
    {"name": "Grill Yard", "cuisinetype": "Barbecue", "price": Decimal(60)},
]


def ranker_with_reply(reply: str) -> LlmRanker:
    return LlmRanker(CallableTransport(lambda prompt: reply))


def test_reply_parsing_name_list():
    reply = ('Thought: cheap first\n'
             'RestaurantNameList: ["Noodle Corner", "Tea Pavilion"]\n')
    assert parse_name_list(reply) == ["Noodle Corner", "Tea Pavilion"]
    assert parse_name_list("Thought: no list here") is None
    assert parse_name_list("RestaurantNameList: [not python") is None


def test_partial_reply_appends_missing_in_order():
    reply = 'RestaurantNameList: ["Tea Pavilion", "Grill Yard", "Noodle Corner"]'
    ranked = ranker_with_reply(reply).rank(RESTAURANTS, initial_state(), micro_context())
    names = [r["name"] for r in ranked]
    assert names == ["Tea Pavilion", "Grill Yard", "Noodle Corner",
                     "Hotpot Alley", "Dumpling Den"]


def test_hallucinated_names_dropped():
    reply = 'RestaurantNameList: ["Phantom Diner", "Noodle Corner"]'
    ranked = ranker_with_reply(reply).rank(RESTAURANTS, initial_state(), micro_context())
    assert ranked[0]["name"] == "Noodle Corner"
    assert len(ranked) == len(RESTAURANTS)


def test_rank_output_is_always_a_permutation():
    rng = random.Random(2)
    names = [r["name"] for r in RESTAURANTS] + ["Phantom", "Duplicate", "Duplicate"]
    for _ in range(50):
        sample = rng.sample(names, rng.randint(0, len(names)))
        reply = "RestaurantNameList: " + json.dumps(sample)
        ranked = ranker_with_reply(reply).rank(RESTAURANTS, initial_state(),
                                               micro_context())
        assert sorted(map(id, ranked)) == sorted(map(id, RESTAURANTS))


def test_transport_failure_falls_back_to_heuristic():
    def boom(prompt):
        raise TransportError("down")

    ranker = LlmRanker(CallableTransport(boom))
    ctx = micro_context(budget_limit=Decimal(500))
    ranked = ranker.rank(RESTAURANTS, initial_state(), ctx)
    assert ranked == HeuristicRanker().rank(RESTAURANTS, initial_state(), ctx)
    assert len(ranker.degradation_events) == 1


def test_unparseable_reply_falls_back():
    ranker = ranker_with_reply("gibberish with no list")
    ranked = ranker.rank(RESTAURANTS, initial_state(), micro_context())
    assert [r["name"] for r in ranked] == [r["name"] for r in RESTAURANTS]
    assert ranker.degradation_events[0].reason == "unparseable reply"


def test_one_degradation_event_per_injected_fault():
    transport = FaultInjectingTransport()
    ranker = LlmRanker(transport)
    for _ in range(7):
        ranker.rank(RESTAURANTS, initial_state(), micro_context())
    assert transport.faults == 7
    assert len(ranker.degradation_events) == 7


def test_rank_reads_each_prompt_once(monkeypatch):
    from tripsmith.llm import rank as rank_module

    reads = []
    real_files = rank_module.resources.files

    def counting_files(package):
        reads.append(package)
        return real_files(package)

    monkeypatch.setattr(rank_module, "resources", SimpleNamespace(files=counting_files))
    rank_module.load_prompt.cache_clear()
    prompts = []
    ranker = LlmRanker(CallableTransport(lambda prompt: prompts.append(prompt) or "no list"))
    attractions = [{"name": "Tower", "recommendmintime": 1, "price": Decimal(10)}]
    for _ in range(5):
        ranker.rank(RESTAURANTS, initial_state(), micro_context())
        ranker.rank(attractions, initial_state(), micro_context())
    assert len(prompts) == 10
    assert prompts[0] != prompts[1]
    assert reads == ["tripsmith.llm", "tripsmith.llm"]    # one read per prompt file


def test_a_view_prompts_as_its_rows_and_falls_back_to_the_heuristic_prefix(synth_dataset):
    """The search hands rankers views: the model sees exactly the rows of a plain
    list, a reply orders all of them, and the fallback is the heuristic's prefix."""
    origin, target = synth_dataset.city_names[:2]
    db = synth_dataset[target]
    ctx = QueryContext(origin, target, 1, 2, budget_limit=Decimal(5000),
                       required_terms=(db.restaurants[-1]["cuisinetype"],))
    prompts, reply = [], ["no list"]
    ranker = LlmRanker(CallableTransport(lambda prompt: prompts.append(prompt) or reply[0]))
    for rows in (db.attractions, db.restaurants):
        view = TableView(TableOrders(rows), frozenset({0, 3, len(rows) - 1}))
        heuristic = HeuristicRanker().rank(view, initial_state(), ctx)
        assert len(heuristic) == MAX_BRANCHING
        assert ranker.rank(view, initial_state(), ctx) == heuristic
        assert ranker.rank(list(view), initial_state(), ctx)[:MAX_BRANCHING] == heuristic
        assert prompts[-2] == prompts[-1]
    assert len(ranker.degradation_events) == 4
    reply[0] = f'RestaurantNameList: ["{db.restaurants[-3]["name"]}"]'
    view = TableView(TableOrders(db.restaurants), frozenset({0}))
    from_view = ranker.rank(view, initial_state(), ctx)
    assert from_view == ranker.rank(list(view), initial_state(), ctx)
    assert from_view == [view[-3], *view[:-3], *view[-2:]]
    assert prompts[-2] == prompts[-1] and len(ranker.degradation_events) == 4


# -- nl2dsl -----------------------------------------------------------------------


def test_nl2dsl_clean_first_round():
    session = nl2dsl("keep it under 5000", CallableTransport(lambda p: "return True"))
    assert len(session.rounds) == 1
    assert session.clean
    assert session.final_diagnostics == []


def test_nl2dsl_recovers_after_feedback():
    replies = iter(["returnнет", "return True"])

    def reply(prompt):
        return next(replies)

    session = nl2dsl("anything", CallableTransport(reply))
    assert len(session.rounds) == 2
    assert session.clean


def test_nl2dsl_feeds_back_a_reply_nested_past_the_cap():
    replies = iter(["return " + "(" * 400 + "True" + ")" * 400, "return True"])
    session = nl2dsl("anything", CallableTransport(lambda prompt: next(replies)))
    assert [len(r.diagnostics) for r in session.rounds] == [1, 0]
    assert "nested deeper than" in session.rounds[0].diagnostics[0].message
    assert session.clean


def test_nl2dsl_feedback_carries_diagnostics():
    prompts = []

    def reply(prompt):
        prompts.append(prompt)
        return "return activty_cost(plan)" if len(prompts) == 1 else "return True"

    nl2dsl("anything", CallableTransport(reply))
    assert "activty_cost" in prompts[1]      # prior source fed back
    assert "error" in prompts[1]             # with its diagnostics


def test_nl2dsl_gives_up_after_five_rounds():
    session = nl2dsl("anything", CallableTransport(lambda p: "б面 not dsl !!"))
    assert len(session.rounds) == 5
    assert not session.clean
    assert session.final_diagnostics


def test_nl2dsl_endpoint_failure_marks_session():
    def boom(prompt):
        raise TransportError("no network")

    session = nl2dsl("anything", CallableTransport(boom))
    assert session.rounds == []
    assert not session.clean
    assert "no network" in session.error


# -- transports --------------------------------------------------------------------


def test_replay_transport_roundtrip(tmp_path):
    path = tmp_path / "transcript.jsonl"
    recording = RecordingTransport(CallableTransport(lambda p: f"echo:{p[:5]}"), path)
    assert recording.complete("hello world") == "echo:hello"
    replay = ReplayTransport(path)
    assert replay.complete("hello world") == "echo:hello"
    with pytest.raises(TransportError):
        replay.complete("never recorded")


def test_prompt_hash_is_stable():
    assert prompt_hash("abc") == prompt_hash("abc")
    assert prompt_hash("abc") != prompt_hash("abd")


def test_http_transport_retries_then_fails(monkeypatch):
    calls = []

    def fake_urlopen(request, timeout):
        calls.append(request)
        raise OSError("connection refused")

    import urllib.request

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    transport = HttpTransport(LlmEndpoint("http://example.invalid", "m", max_retries=2),
                              sleep=lambda s: None)
    with pytest.raises(TransportError):
        transport.complete("hi")
    assert len(calls) == 3   # initial try + 2 retries


def test_http_transport_never_sends_token_when_unset(monkeypatch):
    seen = {}

    def fake_urlopen(request, timeout):
        seen.update(request.headers)
        raise OSError("stop here")

    import urllib.request

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.delenv("TRIPSMITH_LLM_TOKEN", raising=False)
    transport = HttpTransport(LlmEndpoint("http://example.invalid", "m", max_retries=0))
    with pytest.raises(TransportError):
        transport.complete("hi")
    assert "Authorization" not in seen


def _serving(monkeypatch, body: bytes) -> list:
    """Make every HTTP request answer `body`; returns the list of requests made."""
    import io
    import urllib.request

    calls = []

    def fake_urlopen(request, timeout):
        calls.append(request)
        return io.BytesIO(body)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    return calls


def test_importing_the_cli_loads_no_http_client():
    """Only `HttpTransport.complete` needs urllib.request (and with it http.client
    and ssl), so a command that never posts to an endpoint does not import them."""
    src = str(Path(tripsmith.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import tripsmith.cli; "
             "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_http_transport_returns_the_reply_content(monkeypatch):
    body = {"choices": [{"message": {"role": "assistant", "content": "['Dumpling Den']"}}]}
    _serving(monkeypatch, json.dumps(body).encode("utf-8"))
    transport = HttpTransport(LlmEndpoint("http://example.invalid", "m"))
    assert transport.complete("hi") == "['Dumpling Den']"


@pytest.mark.parametrize("body", [
    b"[1]",
    b'{"choices": "x"}',
    b'{"choices": []}',
    b'{"choices": {"0": 1}}',
    b"[" * 100_000,
    b'{"choices": [{"message": {"content": null}}]}',
    b'{"choices": [{"message": {"content": ["a"]}}]}',
    b"not json",
    b"\xff",
], ids=["list", "choices-text", "no-choice", "choices-object", "deep", "null-content",
        "list-content", "not-json", "not-utf8"])
def test_a_malformed_model_reply_degrades_once(monkeypatch, body):
    calls = _serving(monkeypatch, body)
    transport = HttpTransport(LlmEndpoint("http://example.invalid", "m", max_retries=1),
                              sleep=lambda s: None)
    ranker = LlmRanker(transport)
    ctx = micro_context()
    ranked = ranker.rank(RESTAURANTS, initial_state(), ctx)
    assert ranked == HeuristicRanker().rank(RESTAURANTS, initial_state(), ctx)
    assert len(ranker.degradation_events) == 1
    assert len(calls) == 2      # retried as an unreachable endpoint is
