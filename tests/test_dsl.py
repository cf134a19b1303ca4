import random
from decimal import Decimal

import pytest

from tripsmith.dsl import (
    check_syntax,
    evaluate_source,
    parse,
    pretty,
    run_constraint,
)
from tripsmith.dsl.interp import EvalStats, evaluate
from tripsmith.search import SearchConfig, dfs_search
from tripsmith.errors import DslEvalError
from tripsmith.plan import parse_plan
from tripsmith.dsl import syntax as S

from . import golden_programs as G
from . import oracles
from .conftest import micro_context
from .test_plan_model import MINIMAL, random_plan

DINING = """\
dining = 0
other = 0
for act in allactivities(plan):
    if activity_type(act) in ["breakfast", "lunch", "dinner"]:
        dining += activity_cost(act)
    else:
        other += activity_cost(act)
return dining <= 1000
"""

ARRIVED = """\
ok = True
for act in allactivities(plan):
    if activity_type(act) == "train":
        if intercity_transport_destination(act) == "Beta":
            if activity_end_time(act) > "18:00":
                ok = False
return ok
"""


def test_parse_dining_loop_shape():
    program = parse(DINING)
    kinds = [type(stmt).__name__ for stmt in program.statements]
    assert kinds == ["Assign", "Assign", "For", "Return"]
    loop = program.statements[2]
    assert isinstance(loop.body[0], S.If)
    assert loop.body[0].orelse      # both accumulation branches present
    ret = program.statements[3]
    assert isinstance(ret.value, S.Compare)


def test_parse_trivial_return():
    program = parse("return True")
    assert len(program.statements) == 1


@pytest.mark.parametrize("source", [
    "while True: pass",
    "def f(): return 1",
    "import os",
    "x = lambda: 1",
    "class Foo: pass",
])
def test_disallowed_constructs(source):
    diags = check_syntax(source)
    assert diags and diags[0].severity == "error"
    assert "construct not in DSL" in diags[0].message


def test_checker_clean_on_published_programs():
    for name, source in G.PREFERENCE_PROGRAMS.items():
        assert check_syntax(source) == [], name
    assert check_syntax(G.BUDGET) == []
    assert check_syntax(ARRIVED) == []


def test_checker_unknown_concept_hint():
    diags = check_syntax("return activty_cost(plan)")
    assert len(diags) == 1
    assert "activty_cost" in diags[0].message
    assert "activity_cost" in diags[0].hint


def test_checker_use_before_assign():
    diags = check_syntax("return count + 1")
    assert any("before assignment" in d.message for d in diags)


def test_checker_missing_return():
    diags = check_syntax("x = 1")
    assert any("return" in d.message for d in diags)


def test_checker_arity():
    diags = check_syntax("return activity_cost(plan, plan)")
    assert any("argument" in d.message for d in diags)


def test_diagnostic_render_format():
    diags = check_syntax("return count")
    line = diags[0].render("budget.dsl")
    assert line.startswith("budget.dsl:1:8: error:")


def test_roundtrip_pretty_parse():
    for source in (DINING, ARRIVED, *G.PREFERENCE_PROGRAMS.values(), G.BUDGET):
        program = parse(source)
        assert parse(pretty(program)) == program


def test_budget_program_true_under_5000(mini_dataset):
    plan = parse_plan(MINIMAL)   # 480 total
    assert evaluate_source(G.BUDGET, plan, mini_dataset) is True
    assert oracles.budget_total_reference(plan) == Decimal(480)


def test_attraction_count_empty_plan(mini_dataset):
    plan = parse_plan('{"people_number": 1, "start_city": "A", "target_city": "Beta",'
                      ' "itinerary": []}')
    assert evaluate_source(G.ATTRACTION_COUNT, plan, mini_dataset) == Decimal(0)


def test_food_ratio_minus_one_on_zero_cost(mini_dataset):
    plan = parse_plan('{"people_number": 1, "start_city": "A", "target_city": "Beta",'
                      ' "itinerary": [{"activities": [{"type": "attraction",'
                      ' "position": "City Museum", "cost": 0}]}]}')
    assert evaluate_source(G.FOOD_COST_RATIO, plan, mini_dataset) == Decimal(-1)


def test_division_by_zero_is_error(mini_dataset):
    plan = parse_plan(MINIMAL)
    with pytest.raises(DslEvalError, match="division by zero"):
        evaluate_source("return 1 / 0", plan, mini_dataset)


def test_numbers_are_not_truthy(mini_dataset):
    plan = parse_plan(MINIMAL)
    with pytest.raises(DslEvalError, match="boolean"):
        evaluate_source("x = 1\nif x: x = 2\nreturn True", plan, mini_dataset)
    warnings = check_syntax("if 5: x = 1\nreturn True")
    assert any(d.severity == "warning" for d in warnings)


def test_string_comparison_is_codepoint_order(mini_dataset):
    plan = parse_plan(MINIMAL)
    assert evaluate_source('return "18:30" > "18:00"', plan, mini_dataset) is True
    # the outbound ride reaches Beta at 08:10, well before 18:00
    assert evaluate_source(ARRIVED, plan, mini_dataset) is True
    late = MINIMAL.replace('"end_time": "08:10"', '"end_time": "19:10"')
    assert evaluate_source(ARRIVED, parse_plan(late), mini_dataset) is False


def test_set_operations(mini_dataset):
    plan = parse_plan(MINIMAL)
    source = (
        'a = ["x", "y"]\n'
        'b = ["y", "z"]\n'
        'u = uni(a, b)\n'
        'both = inter(a, b)\n'
        'only = diff(a, b)\n'
        'return "z" in u and "y" in both and "x" in only and not ("y" in only)\n'
    )
    assert evaluate_source(source, plan, mini_dataset) is True


def test_run_constraint_mixed(mini_dataset):
    plan = parse_plan(MINIMAL)
    outcomes = [run_constraint(source, plan, mini_dataset).passed
                for source in (G.BUDGET, "return 1 == 2", "return 5")]
    assert outcomes == [True, False, False]


TOKENIZE_SOURCES = ["return True", "return 1 == 1", G.BUDGET]


@pytest.fixture()
def tokenized(monkeypatch):
    """Every source text handed to the tokenizer, in call order."""
    seen = []
    real = S.tokenize

    def counting(source):
        seen.append(source)
        return real(source)

    monkeypatch.setattr(S, "tokenize", counting)
    return seen


def test_dfs_search_tokenizes_each_source_once(tokenized, micro_dataset):
    dfs_search(TOKENIZE_SOURCES, micro_dataset, None, SearchConfig(budget_seconds=10),
               micro_context())
    assert tokenized == TOKENIZE_SOURCES


def test_run_constraint_tokenizes_its_source_once(tokenized, mini_dataset):
    plan = parse_plan(MINIMAL)
    for source in TOKENIZE_SOURCES:
        run_constraint(source, plan, mini_dataset)
    assert tokenized == TOKENIZE_SOURCES


def test_constraint_eval_error_records_false(mini_dataset):
    plan = parse_plan(MINIMAL)
    outcome = run_constraint("return 1 / 0 == 1", plan, mini_dataset)
    assert outcome.passed is False
    assert outcome.diagnostics and outcome.diagnostics[0].severity == "error"


@pytest.mark.parametrize("source, where, message", [
    ("x = 1\nreturn 1 / 0 == 1", (2, 10), "division by zero"),
    ('x = 2\nreturn poi_distance("Beta", "Nope", "City Museum") > 0', (2, 8),
     "unknown position 'Nope' in Beta"),
    ("return activity_cost(1) > 0", (1, 8), "expected an activity record as argument"),
    ("x = 1\nreturn x +", (2, 11), "expected an expression, found 'NEWLINE'"),
])
def test_constraint_error_diagnostic_position_and_message(mini_dataset, source, where,
                                                          message):
    outcome = run_constraint(source, parse_plan(MINIMAL), mini_dataset)
    [diag] = outcome.diagnostics
    assert (diag.severity, diag.line, diag.col, diag.message) == ("error", *where, message)


def test_non_boolean_return_coerces_false_with_warning(mini_dataset):
    plan = parse_plan(MINIMAL)
    outcome = run_constraint("return 5", plan, mini_dataset)
    assert outcome.passed is False
    assert outcome.diagnostics[0].severity == "warning"


def test_evaluation_is_pure(mini_dataset):
    plan = parse_plan(MINIMAL)
    program = parse(G.FOOD_COST_RATIO)
    values = {evaluate(program, plan, mini_dataset) for _ in range(5)}
    assert len(values) == 1


def test_concept_call_budget_is_quadratic(mini_dataset):
    rng = random.Random(11)
    for _ in range(10):
        plan = random_plan(mini_dataset, rng)
        activity_count = sum(len(day.activities) for day in plan.itinerary)
        stats = EvalStats()
        evaluate(parse(G.AVERAGE_TRANSPORT_TIME), plan, mini_dataset, stats)
        bound = max(activity_count * activity_count, 3 * activity_count + 3)
        assert stats.concept_calls <= bound


GOLDEN_ORACLES = {
    "attraction_count": oracles.attraction_count_reference,
    "average_transport_time": oracles.average_transport_time_reference,
    "restaurant_transport_time": oracles.restaurant_transport_time_reference,
    "food_cost_ratio": oracles.food_cost_ratio_reference,
    "accommodation_cost": oracles.accommodation_cost_reference,
}


def test_golden_corpus_against_oracles(mini_dataset):
    """Each published program equals its direct computation on 20 plans."""
    rng = random.Random(23)
    plans = [random_plan(mini_dataset, rng) for _ in range(20)]
    for name, source in G.PREFERENCE_PROGRAMS.items():
        for plan in plans:
            got = evaluate_source(source, plan, mini_dataset)
            if name == "average_poi_distance":
                want = oracles.average_poi_distance_reference(
                    plan, mini_dataset, "Riverside Pavilion")
            else:
                want = GOLDEN_ORACLES[name](plan)
            assert got == want, (name, got, want)
    for plan in plans:
        got = evaluate_source(G.BUDGET, plan, mini_dataset)
        assert got == (oracles.budget_total_reference(plan) <= 5000)
