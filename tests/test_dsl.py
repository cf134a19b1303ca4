import ast
import functools
import random
import sys
from decimal import Decimal

import pytest

from tripsmith.dsl import (
    check_source,
    check_syntax,
    parse,
    run_constraint,
)
from tripsmith.dsl import check, interp
from tripsmith.dsl.interp import evaluate
from tripsmith.search import FULL_PASS, SearchConfig, dfs_search
from tripsmith.errors import DslEvalError, DslSyntaxError
from tripsmith.plan import (
    CONCEPT_ALIASES,
    CONCEPT_REGISTRY,
    FUNCTIONS,
    ConceptContext,
    concept,
    parse_plan,
)
from tripsmith.dsl import syntax as S

from . import golden_programs as G
from . import oracles
from .conftest import build_base_plan, micro_context
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


def evaluate_checked(source, plan, db):
    """Evaluate `source` as every runner does: only once it checks clean."""
    program, diagnostics = check_source(source)
    assert program is not None, diagnostics
    return evaluate(program, plan, db)


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


def test_budget_program_true_under_5000(mini_dataset):
    plan = parse_plan(MINIMAL)   # 480 total
    assert evaluate_checked(G.BUDGET, plan, mini_dataset) is True
    assert oracles.budget_total_reference(plan) == Decimal(480)


def test_attraction_count_empty_plan(mini_dataset):
    plan = parse_plan('{"people_number": 1, "start_city": "A", "target_city": "Beta",'
                      ' "itinerary": []}')
    assert evaluate_checked(G.ATTRACTION_COUNT, plan, mini_dataset) == Decimal(0)


def test_food_ratio_minus_one_on_zero_cost(mini_dataset):
    plan = parse_plan('{"people_number": 1, "start_city": "A", "target_city": "Beta",'
                      ' "itinerary": [{"activities": [{"type": "attraction",'
                      ' "position": "City Museum", "cost": 0}]}]}')
    assert evaluate_checked(G.FOOD_COST_RATIO, plan, mini_dataset) == Decimal(-1)


def test_division_by_zero_is_error(mini_dataset):
    plan = parse_plan(MINIMAL)
    with pytest.raises(DslEvalError, match="division by zero"):
        evaluate_checked("return 1 / 0", plan, mini_dataset)


def test_numbers_are_not_truthy(mini_dataset):
    plan = parse_plan(MINIMAL)
    with pytest.raises(DslEvalError, match="boolean"):
        evaluate_checked("x = 1\nif x: x = 2\nreturn True", plan, mini_dataset)
    warnings = check_syntax("if 5: x = 1\nreturn True")
    assert any(d.severity == "warning" for d in warnings)


def test_string_comparison_is_codepoint_order(mini_dataset):
    plan = parse_plan(MINIMAL)
    assert evaluate_checked('return "18:30" > "18:00"', plan, mini_dataset) is True
    # the outbound ride reaches Beta at 08:10, well before 18:00
    assert evaluate_checked(ARRIVED, plan, mini_dataset) is True
    late = MINIMAL.replace('"end_time": "08:10"', '"end_time": "19:10"')
    assert evaluate_checked(ARRIVED, parse_plan(late), mini_dataset) is False


@pytest.mark.parametrize("expression, expected", [
    ("True == 1", False),
    ("1 == True", False),
    ("True != 1", True),
    ("True in [1]", False),
    ("1 in [True]", False),
    ("1.0 == 1", True),
    ("1.0 != 1", False),
    ("1.0 in [1]", True),
    ('"1" == 1', False),
    ('"1" != 1', True),
    ('"1" in [1]', False),
    ('1 in ["1"]', False),
    ("[1, 2] == uni([1], [2])", False),
    ("[1, 2] != uni([1], [2])", True),
    ("uni([1], [2]) == uni([2], [1])", True),
    ("[1, 2] == [1, 2]", True),
    ("2 in uni([1], [2])", True),
    ("[1, 2] in [uni([1], [2])]", False),
    # list elements compare by the same rule, at any depth
    ("[1] == [True]", False),
    ("[1] != [True]", True),
    ("[[1], 2] == [[True], 2]", False),
    ("[[1], 2] == [[1.0], 2]", True),
    ("[1] == [1, 1]", False),
    # a set is built with Python hashing, which merges True and 1
    ("uni([True], [1]) == uni([1], [])", True),
])
def test_equality_never_crosses_types(mini_dataset, expression, expected):
    plan = parse_plan(MINIMAL)
    assert evaluate_checked(f"return {expression}", plan, mini_dataset) is expected


def test_hash_inside_a_string_is_text(mini_dataset):
    source = 'return "A #1" == "A #1"'
    assert check_syntax(source) == []
    plan = parse_plan(MINIMAL)
    assert evaluate_checked(source + "  # a comment", plan, mini_dataset) is True
    assert evaluate_checked('x = "#"\n    # indented comment\n\nreturn x == "#"',
                            plan, mini_dataset) is True
    assert check_syntax('return "A #1') != []


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
    assert evaluate_checked(source, plan, mini_dataset) is True


def test_run_constraint_mixed(mini_dataset):
    plan = parse_plan(MINIMAL)
    outcomes = [run_constraint(source, plan, mini_dataset).passed
                for source in (G.BUDGET, "return 1 == 2", "return 5")]
    assert outcomes == [True, False, False]


# every way a program nests: each builds a program returning True at depth k
NESTING_FORMS = {
    "paren": lambda k: "return " + "(" * k + "True" + ")" * k,
    "bracket": lambda k: "return " + "[" * k + "]" * k + " != 1",
    "plus-paren": lambda k: "return " + "1 + (" * k + "1" + ")" * k + " > 0",
    "call": lambda k: "return " + "uni(" * k + "[]" + ", [])" * k + " != 1",
    "not": lambda k: "return " + "not " * (2 * (k // 2)) + "True",
    "minus": lambda k: "return " + "- " * (2 * (k // 2)) + "1 > 0",
    "chain": lambda k: "return " + " + ".join(["1"] * k) + " > 0",
    "conditional": lambda k: "return " + "False if False else " * k + "True",
    "blocks": lambda k: "".join("    " * i + "if True:\n" for i in range(k))
                        + "    " * k + "x = 1\nreturn True\n",
}


def _deepest_accepted(make) -> int:
    depth = 1
    while True:
        try:
            parse(make(depth + 1))
        except DslSyntaxError:
            return depth
        depth += 1


@pytest.mark.parametrize("day", ['"x"', "True", "[1]"])
def test_dayactivities_needs_a_day_number(day, mini_dataset):
    outcome = run_constraint(f"return dayactivities(plan, {day}) == list()",
                             parse_plan(MINIMAL), mini_dataset)
    assert outcome.passed is False
    [diagnostic] = outcome.diagnostics
    assert diagnostic.message.startswith("dayactivities expects a day number, got ")
    assert (diagnostic.line, diagnostic.col) == (1, 8)


@pytest.mark.parametrize("form", NESTING_FORMS)
def test_nesting_past_the_cap_fails_the_check(form, mini_dataset):
    source = NESTING_FORMS[form](400)
    with pytest.raises(DslSyntaxError, match=f"nested deeper than {S.MAX_NESTING} levels"):
        parse(source)
    [diagnostic] = check_syntax(source)
    assert diagnostic.severity == "error" and "nested deeper than" in diagnostic.message
    outcome = run_constraint(source, parse_plan(MINIMAL), mini_dataset)
    assert outcome.passed is False
    assert [d.message for d in outcome.diagnostics] == [diagnostic.message]


@pytest.mark.parametrize("form", NESTING_FORMS)
def test_the_deepest_accepted_program_runs_at_a_search_leaf(form, micro_dataset):
    """Parsing, checking and evaluating (at every leaf of a two-day search)
    the deepest program the parser accepts stays under the default recursion
    limit."""
    depth = _deepest_accepted(NESTING_FORMS[form])
    assert S.MAX_NESTING - 4 <= depth <= S.MAX_NESTING
    source = NESTING_FORMS[form](depth)
    assert check_syntax(source) == []
    outcome = dfs_search([source], micro_dataset, None, SearchConfig(budget_seconds=60),
                         micro_context(days=2))
    assert outcome.status == FULL_PASS


@pytest.mark.parametrize("form", NESTING_FORMS)
def test_the_deepest_accepted_program_parses_in_at_most_350_frames(form):
    """Counted below this test's frame, so the stack a parse needs at the cap
    leaves room under the default recursion limit of 1000."""
    source = NESTING_FORMS[form](_deepest_accepted(NESTING_FORMS[form]))
    here = sys._getframe()
    deepest = 0

    def count(frame, event, arg):
        nonlocal deepest
        depth = 0
        while frame is not here:
            frame, depth = frame.f_back, depth + 1
        deepest = max(deepest, depth)

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        parse(source)
    finally:
        sys.settrace(previous)
    assert 0 < deepest <= 350


# one expression syntax for the DSL and for Python, by a grammar that may chain
# comparisons or put `not` where Python refuses it; such texts are left out
_GROUPING_ATOMS = ("a", "b", "c", "d")
_GROUPING_BINARY = ("or", "and", "==", "!=", "<", ">", "<=", ">=", "in", "+", "-", "*", "/")
_PYTHON_OPERATORS = {
    ast.Or: "or", ast.And: "and", ast.Not: "not", ast.USub: "-", ast.Add: "+", ast.Sub: "-",
    ast.Mult: "*", ast.Div: "/", ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.Gt: ">",
    ast.LtE: "<=", ast.GtE: ">=", ast.In: "in",
}


def _random_expression(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return rng.choice(_GROUPING_ATOMS)
    if roll < 0.6:
        return (f"{_random_expression(rng, depth - 1)} {rng.choice(_GROUPING_BINARY)} "
                f"{_random_expression(rng, depth - 1)}")
    if roll < 0.8:
        return rng.choice(("not ", "-", "+", "- ")) + _random_expression(rng, depth - 1)
    if roll < 0.9:
        return (f"{_random_expression(rng, depth - 1)} if {_random_expression(rng, depth - 1)}"
                f" else {_random_expression(rng, depth - 1)}")
    return f"({_random_expression(rng, depth - 1)})"


def _grouping(node):
    """A DSL expression as nested (operator, operands...) tuples over names."""
    if isinstance(node, S.Name):
        return node.id
    if isinstance(node, (S.BinOp, S.Compare)):
        return (node.op, _grouping(node.left), _grouping(node.right))
    if isinstance(node, S.UnaryOp):
        return (node.op, _grouping(node.operand))
    assert isinstance(node, S.IfExp), node
    return ("if", _grouping(node.cond), _grouping(node.then), _grouping(node.orelse))


def _python_grouping(node):
    """The same tuples from Python's own parse, with unary plus dropped."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.BoolOp):    # Python keeps `a or b or c` as one node
        op = _PYTHON_OPERATORS[type(node.op)]
        return functools.reduce(lambda left, right: (op, left, right),
                                map(_python_grouping, node.values))
    if isinstance(node, ast.BinOp):
        return (_PYTHON_OPERATORS[type(node.op)], _python_grouping(node.left),
                _python_grouping(node.right))
    if isinstance(node, ast.Compare):
        [op], [right] = node.ops, node.comparators
        return (_PYTHON_OPERATORS[type(op)], _python_grouping(node.left), _python_grouping(right))
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.UAdd):
            return _python_grouping(node.operand)
        return (_PYTHON_OPERATORS[type(node.op)], _python_grouping(node.operand))
    assert isinstance(node, ast.IfExp), node
    return ("if", _python_grouping(node.test), _python_grouping(node.body),
            _python_grouping(node.orelse))


def _python_accepts(text):
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return None
    if any(isinstance(node, ast.Compare) and len(node.ops) > 1 for node in ast.walk(tree)):
        return None
    return tree.body


def test_operators_group_as_python_groups_them():
    rng = random.Random(2024)
    compared = 0
    while compared < 1000:
        text = _random_expression(rng, rng.randint(1, 5))
        python = _python_accepts(text)
        if python is None:
            continue
        [statement] = parse(f"return {text}").statements
        assert _grouping(statement.value) == _python_grouping(python), text
        compared += 1


TOKENIZE_SOURCES = ["return True", "return 1 == 1", G.BUDGET]


@pytest.fixture()
def tokenized(monkeypatch):
    """Every source text handed to the tokenizer, in call order, from a cold
    check cache."""
    check._checked.cache_clear()
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


def test_a_second_search_over_the_same_sources_tokenizes_nothing(tokenized, micro_dataset):
    for _ in range(2):
        dfs_search(TOKENIZE_SOURCES, micro_dataset, None, SearchConfig(budget_seconds=10),
                   micro_context())
    plan = parse_plan(MINIMAL)
    for source in TOKENIZE_SOURCES:
        run_constraint(source, plan, micro_dataset)
    assert tokenized == TOKENIZE_SOURCES


def test_each_caller_gets_its_own_diagnostics():
    first = check_syntax("return count")
    first.clear()
    assert len(check_syntax("return count")) == 1


def test_the_check_cache_stays_within_its_bound():
    for index in range(1000):
        check_syntax(f"return {index} == {index}")
    assert check._checked.cache_info().currsize <= check.CHECK_CACHE_SIZE == 128


# (source, message, (line, col)) of refusals the lexer and the statement parser make
SYNTAX_ERRORS = {
    "tab-indent": ("x = 1\n\treturn x", "tab characters are not allowed; indent with spaces",
                   (2, 1)),
    # a tab is refused where indentation is measured, after any spaces; elsewhere it is
    # a character like another (see test_a_tab_in_a_string_literal_is_part_of_its_text)
    "tab-after-spaces": ("if True:\n  \treturn True", "tab characters are not allowed; indent "
                         "with spaces", (2, 3)),
    "tab-between-tokens": ("return\t1 == 1", "unexpected character '\\t'", (1, 7)),
    "unmatched-unindent": ("if True:\n    x = 1\n  return x",
                           "unindent does not match any outer level", (3, 3)),
    "empty-program": ("# nothing\n\n", "empty program", (1, 1)),
    # a comment-only line opens no block, so the next line is no INDENT
    "empty-block": ("if True:\n    # nothing\nreturn True", "expected 'INDENT', found 'return'",
                    (3, 1)),
    "stray-keyword": ("else:\n    return True", "unexpected keyword 'else'", (1, 1)),
    "method-not-append": ("x = list()\nx.extend(1)\nreturn True",
                          "construct not in DSL: method call .extend()", (2, 3)),
    "token-after-statement": ("return 1 2", "unexpected '2' after statement", (1, 10)),
    "chained-comparison": ("return 1 < 2 < 3", "unexpected '<' after statement", (1, 14)),
    "bad-number": ("return 1.2.3 > 0", "bad number literal '1.2.3'", (1, 8)),
    "unterminated-string": ('return "abc', "unterminated string literal", (1, 8)),
    # a number is ASCII digits only
    "superscript-digit": ("return 1 == \u00b2", "unexpected character '\u00b2'", (1, 13)),
    "arabic-indic-digit": ("return 1 == \u0663", "unexpected character '\u0663'", (1, 13)),
    "digit-after-a-number": ("return 1\u00b2 == 1", "unexpected character '\u00b2'", (1, 9)),
}


@pytest.mark.parametrize("name", SYNTAX_ERRORS)
def test_every_syntax_error_keeps_its_message_and_place(name):
    source, message, where = SYNTAX_ERRORS[name]
    with pytest.raises(DslSyntaxError) as raised:
        parse(source)
    assert (str(raised.value), (raised.value.line, raised.value.col)) == (message, where)
    [diagnostic] = check_syntax(source)
    assert (diagnostic.message, (diagnostic.line, diagnostic.col)) == (message, where)


def test_a_tab_in_a_string_literal_is_part_of_its_text():
    assert check_syntax('return "a\tb" == "c"') == []
    [statement] = parse('return "a\tb"').statements
    assert statement.value == S.Str("a\tb")


@pytest.mark.parametrize("text", ["Noodles", 'Lanzhou "Hand" Noodles', "Xi'an Style", "A #1", "",
                                  "Tab\there"])
def test_quote_spells_a_text_that_reads_back(text):
    literal = S.quote(text)
    [statement] = parse(f"return {literal}").statements
    assert statement.value == S.Str(text)
    assert literal[0] == ('"' if '"' not in text else "'")


@pytest.mark.parametrize("text", ["Say \"Xi'an\"", "Hand\nNoodles", "Hand\r\n", "A\u2028B"])
def test_quote_refuses_a_text_no_literal_spells(text):
    assert S.quote(text) is None


def test_trip_and_leg_concepts_read_the_plan(mini_dataset):
    plan = build_base_plan(mini_dataset)
    acts = plan.all_activities()
    legs = [act.get("transports", []) for act in acts]
    source = (
        "starts = list()\n"
        "ends = list()\n"
        "for act in allactivities(plan):\n"
        "    starts.append(innercity_transport_start_time(activity_transports(act)))\n"
        "    ends.append(innercity_transport_end_time(activity_transports(act)))\n"
        "return [day_count(plan), people_count(plan), start_city(plan), starts, ends]\n"
    )
    assert evaluate_checked(source, plan, mini_dataset) == [
        Decimal(2), Decimal(plan.people_number), "Alpha",
        [leg[0]["start_time"] if leg else "" for leg in legs],
        [leg[-1]["end_time"] if leg else "" for leg in legs],
    ]
    assert any(legs) and not all(legs)


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
    ("x = 1\nreturn uni(x, list())", (2, 8), "set operand must be a list or set, got number"),
    ("return uni(allactivities(plan), list())", (1, 8),
     "set elements must be scalars, got record"),
])
def test_constraint_error_diagnostic_position_and_message(mini_dataset, source, where,
                                                          message):
    outcome = run_constraint(source, parse_plan(MINIMAL), mini_dataset)
    [diag] = outcome.diagnostics
    assert (diag.severity, diag.line, diag.col, diag.message) == ("error", *where, message)


@pytest.mark.parametrize("source", [
    "return uni(list())",
    "return list(1)",
    "return diff(list(), list(), list())",
])
def test_unchecked_builtin_arity_is_eval_error(mini_dataset, source):
    with pytest.raises(DslEvalError, match="expects") as raised:
        evaluate(parse(source), parse_plan(MINIMAL), mini_dataset)
    assert (raised.value.line, raised.value.col) == (1, 8)


def _arity_errors(source):
    return [d for d in check_syntax(source) if "argument" in d.message]


def test_function_table_and_checker_agree_on_every_name():
    assert len(FUNCTIONS) == len(CONCEPT_REGISTRY) + len(CONCEPT_ALIASES) + 4
    context = ConceptContext(parse_plan(MINIMAL), None)

    def call(name, count):
        return f"return {name}({', '.join(['plan'] * count)})"

    for name, (_, lo, hi) in FUNCTIONS.items():
        assert _arity_errors(call(name, lo)) == [], name
        bad_counts = [hi + 1] + ([lo - 1] if lo > 0 else [])
        for count in bad_counts:
            [diag] = _arity_errors(call(name, count))
            assert diag.severity == "error" and name in diag.message
            with pytest.raises(DslEvalError, match=f"{name} expects"):
                concept(name, [Decimal(1)] * count, context)
    [diag] = check_syntax("return no_such_function(plan)")
    assert "unknown concept function" in diag.message
    with pytest.raises(DslEvalError, match="unknown concept function"):
        concept("no_such_function", [], context)


def test_checker_and_concept_spell_an_arity_mismatch_alike():
    context = ConceptContext(parse_plan(MINIMAL), None)
    checked = 0
    for name, (_, lo, hi) in FUNCTIONS.items():
        for count in [hi + 1] + ([lo - 1] if lo > 0 else []):
            [diag] = _arity_errors(f"return {name}({', '.join(['plan'] * count)})")
            with pytest.raises(DslEvalError) as raised:
                concept(name, [Decimal(1)] * count, context)
            assert str(raised.value) == diag.message, name
            want = f"{lo}" if lo == hi else f"{lo} to {hi}"
            assert diag.message == f"{name} expects {want} argument(s), got {count}"
            checked += 1
    assert checked > len(FUNCTIONS)


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


@pytest.fixture
def concept_calls(monkeypatch):
    """The names of the functions programs call, counted through the
    `FUNCTIONS` entries that each call site binds when its program compiles."""
    calls = []

    def counting(name, impl):
        def call(*args):
            calls.append(name)
            return impl(*args)
        return call

    for name, (impl, lo, hi) in FUNCTIONS.items():
        monkeypatch.setitem(FUNCTIONS, name, (counting(name, impl), lo, hi))
    return calls


@pytest.fixture
def checker_runs(monkeypatch):
    """The programs `evaluate` has handed to the checker's gate."""
    runs = []
    real = interp.check_program

    def counting(program):
        runs.append(program)
        return real(program)

    monkeypatch.setattr(interp, "check_program", counting)
    return runs


def test_concept_call_budget_is_quadratic(mini_dataset, concept_calls):
    program = parse(G.AVERAGE_TRANSPORT_TIME)
    rng = random.Random(11)
    for _ in range(10):
        plan = random_plan(mini_dataset, rng)
        activity_count = sum(len(day.activities) for day in plan.itinerary)
        concept_calls.clear()
        evaluate(program, plan, mini_dataset)
        bound = max(activity_count * activity_count, 3 * activity_count + 3)
        assert 0 < len(concept_calls) <= bound


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
            got = evaluate_checked(source, plan, mini_dataset)
            if name == "average_poi_distance":
                want = oracles.average_poi_distance_reference(
                    plan, mini_dataset, "Riverside Pavilion")
            else:
                want = GOLDEN_ORACLES[name](plan)
            assert got == want, (name, got, want)
    for plan in plans:
        got = evaluate_checked(G.BUDGET, plan, mini_dataset)
        assert got == (oracles.budget_total_reference(plan) <= 5000)


def test_evaluate_gives_a_parsed_program_the_value_of_the_checked_one(mini_dataset,
                                                                      checker_runs):
    rng = random.Random(31)
    plans = [random_plan(mini_dataset, rng) for _ in range(10)]
    for source in (G.BUDGET, *G.PREFERENCE_PROGRAMS.values()):
        parsed, (checked, _) = parse(source), check_source(source)
        for plan in plans:
            assert (evaluate(parsed, plan, mini_dataset)
                    == evaluate(checked, plan, mini_dataset)), source
        assert sum(run is parsed for run in checker_runs) == 1, source


def test_a_program_from_check_source_is_checked_once(monkeypatch, mini_dataset):
    """`check_source` runs the checker; `evaluate` trusts the program it returns."""
    check._checked.cache_clear()
    runs = []
    real = check.check_program

    def counting(program):
        runs.append(program)
        return real(program)

    for module in (check, interp):
        monkeypatch.setattr(module, "check_program", counting)
    program, _ = check_source("return day_count(plan) == 1")
    assert evaluate(program, parse_plan(MINIMAL), mini_dataset) is True
    assert runs == [program]


# every error `evaluate` raises: (source, message, (line, col)); the programs
# are parsed but not checked, so the checker's refusals (CHECKER_REFUSALS)
# reach `evaluate` too and are raised at entry
RUNTIME_ERRORS = {
    "unassigned-name": ("return y", "variable 'y' used before assignment", (1, 8)),
    "unassigned-accumulator": ("x += 1\nreturn True", "variable 'x' used before assignment",
                               (1, 1)),
    "unassigned-append": ("xs.append(1)\nreturn True", "variable 'xs' used before assignment",
                          (1, 1)),
    "accumulate-text": ('x = "a"\nx += 1\nreturn True',
                        "operator '+=' needs numbers, got text", (2, 1)),
    "accumulate-list": ("x = 1\nx += list()\nreturn True",
                        "operator '+=' needs numbers, got list", (2, 1)),
    "append-number": ("x = 1\nx.append(2)\nreturn True",
                      "append target must be a list, got number", (2, 1)),
    "if-number": ("if 1:\n    x = 1\nreturn True", "if condition must be a boolean, got number",
                  (1, 1)),
    "not-number": ("return not 1", "operand of 'not' must be a boolean, got number", (1, 8)),
    "and-left": ("return 1 and True", "operand of 'and' must be a boolean, got number",
                 (1, 10)),
    "and-right": ("return True and 1", "operand of 'and' must be a boolean, got number",
                  (1, 13)),
    "or-left": ('return "x" or True', "operand of 'or' must be a boolean, got text", (1, 12)),
    "or-right": ("return False or list()", "operand of 'or' must be a boolean, got list",
                 (1, 14)),
    "conditional-test": ("return 1 if 2 else 3",
                         "conditional-expression test must be a boolean, got number", (1, 10)),
    "plus-text": ('return "a" + 1', "operator '+' needs numbers, got text", (1, 12)),
    "times-right-text": ('return 2 * "a"', "operator '*' needs numbers, got text", (1, 10)),
    "minus-bool": ("return 2 - True", "operator '-' needs numbers, got boolean", (1, 10)),
    "divide-list": ("return list() / 2", "operator '/' needs numbers, got list", (1, 15)),
    "negate-text": ('return -"a"', "operator '-' needs numbers, got text", (1, 8)),
    "divide-by-zero": ("x = 1\nreturn x / 0", "division by zero", (2, 10)),
    "order-mixed": ('return 1 < "a"', "cannot order number and text with '<'", (1, 10)),
    "order-booleans": ("return True >= False", "cannot order boolean and boolean with '>='",
                       (1, 13)),
    "in-number": ("return 1 in 2", "right operand of 'in' must be a list or set, got number",
                  (1, 10)),
    "for-text": ('for x in "ab":\n    y = x\nreturn True',
                 "loop collection must be a list or set, got text", (1, 1)),
    "concept-error": ("x = 1\nreturn activity_cost(x) > 0",
                      "expected an activity record as argument", (2, 8)),
    "fractional-day": ("days = dayactivities(plan, 1.5)\nreturn True",
                       "dayactivities expects a whole day number, got 1.5", (1, 8)),
    "argument-error-keeps-its-place": ("return activity_cost(1 / 0)", "division by zero",
                                       (1, 24)),
    "unknown-function": ("return nope(1 / 0)", "unknown concept function 'nope'", (1, 8)),
    "unknown-function-called": ("return nope(1)", "unknown concept function 'nope'", (1, 8)),
    "nested-in-loop": ("for act in allactivities(plan):\n    if activity_cost(act) > 0:\n"
                       "        return act + 1\nreturn True",
                       "operator '+' needs numbers, got record", (3, 20)),
    "no-return": ("x = 1", "program can finish without reaching a return", (1, 1)),
    "no-return-on-a-branch": ("if False:\n    return True",
                              "program can finish without reaching a return", (1, 1)),
}
CHECKER_REFUSALS = ("unassigned-name", "unassigned-accumulator", "unassigned-append",
                    "unknown-function", "unknown-function-called", "no-return",
                    "no-return-on-a-branch")


@pytest.mark.parametrize("name", RUNTIME_ERRORS)
def test_every_runtime_error_keeps_its_message_and_place(mini_dataset, name):
    source, message, where = RUNTIME_ERRORS[name]
    with pytest.raises(DslEvalError) as raised:
        evaluate(parse(source), parse_plan(MINIMAL), mini_dataset)
    assert (str(raised.value), (raised.value.line, raised.value.col)) == (message, where)


@pytest.mark.parametrize("name", CHECKER_REFUSALS)
def test_a_refused_program_raises_at_entry(mini_dataset, concept_calls, checker_runs, name):
    """No part of it runs, not even a concept call on the line before its
    fault, and the checker runs once however often it is evaluated."""
    source, message, (line, col) = RUNTIME_ERRORS[name]
    program = parse("acts = allactivities(plan)\n" + source)
    for _ in range(2):
        with pytest.raises(DslEvalError) as raised:
            evaluate(program, parse_plan(MINIMAL), mini_dataset)
        assert (str(raised.value), raised.value.line, raised.value.col) == (message, line + 1, col)
    assert concept_calls == [] and len(checker_runs) == 1
