import random
from decimal import Decimal
from fractions import Fraction

import pytest

from tripsmith.errors import InputError
from tripsmith.evaluation import (
    ENV_RULE_COUNT,
    RULE_IDS,
    EvalReport,
    aggregate_rankings,
    all_false_report,
    evaluate_plan,
    preference_ranking,
    preference_value,
    score,
    validate_env,
)
from tripsmith.evaluation.env_rules import EnvReport
from tripsmith.plan.model import plan_from_obj, serialize_plan

from . import golden_programs as G
from . import oracles
from .conftest import PEOPLE, build_base_plan, corrupt_plan


def test_rule_inventory_is_25():
    assert ENV_RULE_COUNT == 25
    groups = {}
    for rule in RULE_IDS:
        groups.setdefault(rule.split(".")[1], []).append(rule)
    assert {k: len(v) for k, v in groups.items()} == {
        "cross_city": 4, "inner_city": 3, "attractions": 5,
        "restaurants": 6, "accommodation": 4, "time": 2, "space": 1,
    }


def test_base_plan_passes_everything(mini_dataset):
    report = validate_env(build_base_plan(mini_dataset), mini_dataset)
    assert report.failed_rules() == []
    assert report.overall


@pytest.mark.parametrize("rule", RULE_IDS)
def test_each_corruption_flips_exactly_its_rule(mini_dataset, rule):
    plan = corrupt_plan(mini_dataset, rule)
    report = validate_env(plan, mini_dataset)
    assert report.failed_rules() == [rule]


def test_lunch_in_window_passes(mini_dataset):
    plan = build_base_plan(mini_dataset)
    lunch = plan.itinerary[0].activities[3]
    assert lunch["type"] == "lunch"
    assert "11:00" <= lunch["start_time"] and lunch["end_time"] <= "14:00"
    assert validate_env(plan, mini_dataset).results["env.restaurants.meal_window"]


def test_taxi_car_rule_needs_two_cars_for_five(mini_dataset):
    plan = corrupt_plan(mini_dataset, "env.inner_city.cost")
    assert plan.people_number == 5
    report = validate_env(plan, mini_dataset)
    assert report.results["env.inner_city.cost"] is False


def test_multi_day_without_hotel_fails(mini_dataset):
    plan = corrupt_plan(mini_dataset, "env.accommodation.required")
    report = validate_env(plan, mini_dataset)
    assert report.results["env.accommodation.required"] is False


def test_a_visit_clocked_in_non_ascii_digits_has_no_duration(mini_dataset):
    plan = build_base_plan(mini_dataset)
    visit = next(act for act in plan.itinerary[0].activities if act["type"] == "attraction")
    arabic_indic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    visit["start_time"] = visit["start_time"].translate(arabic_indic)
    visit["end_time"] = visit["end_time"].translate(arabic_indic)
    assert validate_env(plan, mini_dataset).failed_rules() == ["env.time.duration"]


def test_repeated_attraction_fails(mini_dataset):
    plan = corrupt_plan(mini_dataset, "env.attractions.no_repeat")
    report = validate_env(plan, mini_dataset)
    assert report.results["env.attractions.no_repeat"] is False


# -- metrics -------------------------------------------------------------------


def _env(flags: list[bool]) -> EnvReport:
    return EnvReport({rule: flag for rule, flag in zip(RULE_IDS, flags)})


def make_report(delivered: bool, env_flags: list[bool], logical: list[bool]) -> EvalReport:
    if not delivered:
        return EvalReport.undelivered(len(logical))
    return EvalReport(delivered=True, env=_env(env_flags), logical=list(logical))


def random_reports(rng: random.Random, constant_constraints: bool = True):
    plans = rng.randint(1, 12)
    c = rng.randint(1, 5)
    reports = []
    raw = []
    for _ in range(plans):
        cp = c if constant_constraints else rng.randint(1, 5)
        delivered = rng.random() > 0.15
        if delivered:
            env = [rng.random() > 0.2 for _ in range(ENV_RULE_COUNT)]
            logical = [rng.random() > 0.3 for _ in range(cp)]
        else:
            env = [False] * ENV_RULE_COUNT
            logical = [False] * cp
        reports.append(make_report(delivered, env, logical))
        raw.append((delivered, env, logical))
    return reports, raw


def test_score_matches_reference_formulas():
    rng = random.Random(5)
    for _ in range(100):
        reports, raw = random_reports(rng, constant_constraints=rng.random() < 0.5)
        summary = score(reports)
        want = oracles.metrics_reference(raw)
        for key, value in want.items():
            assert getattr(summary, key) == value, key


def test_bound_chain_on_constant_constraint_sets():
    rng = random.Random(9)
    for _ in range(100):
        reports, _ = random_reports(rng, constant_constraints=True)
        s = score(reports)
        assert s.epr_macro <= s.epr_micro
        assert s.lpr_macro <= s.lpr_micro
        assert s.fpr <= s.epr_macro
        assert s.fpr <= s.lpr_macro
        assert s.c_lpr <= s.lpr_micro


def test_clpr_worked_example():
    p1 = make_report(True, [True] * 25, [True, True, False])
    p2 = make_report(True, [True] * 24 + [False], [True, True, True])
    summary = score([p1, p2])
    assert summary.c_lpr == Fraction(2, 6)


def test_all_pass_saturates():
    reports = [make_report(True, [True] * 25, [True, True])] * 3
    summary = score(reports)
    for key in ("dr", "epr_micro", "epr_macro", "lpr_micro", "lpr_macro",
                "c_lpr", "fpr"):
        assert getattr(summary, key) == 1


def test_single_undelivered_plan_zeroes_everything():
    summary = score([make_report(False, [], [False, False])])
    for key in ("dr", "epr_micro", "epr_macro", "lpr_micro", "lpr_macro",
                "c_lpr", "fpr"):
        assert getattr(summary, key) == 0


def test_empty_report_set_is_an_error():
    with pytest.raises(InputError, match="empty report set"):
        score([])
    with pytest.raises(InputError, match="no plan has logical constraints"):
        score([make_report(True, [True] * 25, [])])


def test_score_is_permutation_invariant():
    rng = random.Random(3)
    reports, _ = random_reports(rng)
    shuffled = list(reports)
    rng.shuffle(shuffled)
    assert score(reports) == score(shuffled)


def test_single_plan_micro_equals_plan_fraction():
    report = make_report(True, [True] * 20 + [False] * 5, [True, False])
    summary = score([report])
    assert summary.epr_micro == Fraction(20, 25)
    assert summary.lpr_micro == Fraction(1, 2)


def test_undelivered_keeps_constraints_in_denominator():
    ok = make_report(True, [True] * 25, [True, True])
    missing = make_report(False, [], [False, False])
    summary = score([ok, missing])
    assert summary.lpr_micro == Fraction(2, 4)
    assert summary.c_lpr == Fraction(2, 4)


def test_all_false_report_shape():
    report = all_false_report()
    assert not report.overall
    assert len(report.results) == 25


# -- evaluate_plan glue -----------------------------------------------------------


def test_evaluate_plan_full(mini_dataset):
    plan = build_base_plan(mini_dataset)
    report = evaluate_plan(plan, [G.BUDGET, "return 1 == 2"], mini_dataset,
                           preference_sources={"attractions": G.ATTRACTION_COUNT})
    assert report.delivered
    assert report.env.overall
    assert report.logical == [True, False]
    assert report.preference_values["attractions"] == Decimal(4)


def test_transfer_past_midnight_fails_info_rule_without_raising(mini_dataset):
    # the sandbox walk from Beta Airport leaving 23:50 would arrive at 26:52
    plan = build_base_plan(mini_dataset)
    hotel = plan.itinerary[0].activities[7]
    hotel["transports"] = [{
        "mode": "walk", "start": "Beta Airport", "end": "Harbor Hotel",
        "start_time": "23:50", "end_time": "23:59", "distance": Decimal("1.000"),
        "price": Decimal("0"), "tickets": PEOPLE, "cost": Decimal("0"),
    }]
    report = validate_env(plan, mini_dataset)
    assert report.results["env.inner_city.info"] is False
    assert report.notes["env.inner_city.info"] == "a walk leaving 23:50 arrives after 23:59"
    scored = evaluate_plan(plan, [G.BUDGET], mini_dataset)
    assert scored.delivered and not scored.env.overall


def test_transfer_through_a_made_up_station_fails_only_the_info_rule(mini_dataset):
    # the walk-metro-walk into Old Town Wall rerouted through Beta Airport:
    # every leg keeps the sandbox's distance, price and times, not its endpoints
    plan = build_base_plan(mini_dataset)
    legs = plan.itinerary[0].activities[4]["transports"]
    legs[0]["end"] = legs[1]["start"] = "Beta Airport"
    for checked in (plan, plan_from_obj(serialize_plan(plan))):
        report = validate_env(checked, mini_dataset)
        assert report.failed_rules() == ["env.inner_city.info"]
        assert report.notes == {
            "env.inner_city.info": "leg endpoints must match the sandbox transfer"}


def test_evaluate_plan_undelivered(mini_dataset):
    report = evaluate_plan(None, ["return True"], mini_dataset)
    assert not report.delivered
    assert report.logical == [False]
    assert not report.env.overall


# -- preference scoring and ranking ------------------------------------------------


def test_preference_value_counts_attractions(mini_dataset):
    plan = build_base_plan(mini_dataset)
    got = preference_value(plan, G.ATTRACTION_COUNT, mini_dataset)
    assert got == oracles.attraction_count_reference(plan) == Decimal(4)


def test_preference_value_accommodation_cost(mini_dataset):
    plan = build_base_plan(mini_dataset)
    assert preference_value(plan, G.ACCOMMODATION_COST, mini_dataset) == Decimal(400)
    no_hotel = corrupt_plan(mini_dataset, "env.accommodation.required")
    assert preference_value(no_hotel, G.ACCOMMODATION_COST, mini_dataset) == Decimal(0)


@pytest.mark.parametrize("source, message", [
    ("return activty_cost(plan)", "unknown concept function"),
    ("return count", "used before assignment"),
    ("return (", "expected an expression"),
])
def test_preference_value_refuses_an_unclean_program(mini_dataset, source, message):
    plan = build_base_plan(mini_dataset)
    with pytest.raises(InputError, match="does not check clean") as info:
        preference_value(plan, source, mini_dataset)
    assert message in str(info.value)


def test_preference_minus_one_sentinel(mini_dataset):
    from tripsmith.plan import parse_plan

    empty = parse_plan('{"people_number": 1, "start_city": "A", "target_city": "Beta",'
                       ' "itinerary": []}')
    got = preference_value(empty, G.AVERAGE_TRANSPORT_TIME, mini_dataset)
    assert got == Decimal(-1)


def test_ranking_worked_pair():
    ranks = preference_ranking(
        {"baseline": [Decimal("0.79")], "guided": [Decimal("0.83")]}, "maximize"
    )
    assert ranks == {"baseline": Fraction(2), "guided": Fraction(1)}


def test_ranking_minimize_direction():
    ranks = preference_ranking(
        {"baseline": [Decimal("28.0")], "guided": [Decimal("29.7")]}, "minimize"
    )
    assert ranks == {"baseline": Fraction(1), "guided": Fraction(2)}


def test_ranking_tie_shares_mean():
    ranks = preference_ranking(
        {"a": [Decimal(5)], "b": [Decimal(5)]}, "maximize"
    )
    assert ranks == {"a": Fraction(3, 2), "b": Fraction(3, 2)}


def test_ranking_matches_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(30):
        methods = [f"m{i}" for i in range(rng.randint(2, 4))]
        queries = rng.randint(1, 6)
        values = {m: [Decimal(rng.randint(0, 5)) for _ in range(queries)]
                  for m in methods}
        for direction in ("maximize", "minimize"):
            got = preference_ranking(values, direction)
            totals = {m: Fraction(0) for m in methods}
            for q in range(queries):
                per_query = [values[m][q] for m in methods]
                ranks = oracles.ranks_reference(per_query, direction == "maximize")
                for m, r in zip(methods, ranks):
                    totals[m] += r
            want = {m: totals[m] / queries for m in methods}
            assert got == want


def test_ranking_rejects_mismatched_sets():
    with pytest.raises(InputError):
        preference_ranking({"a": [Decimal(1)], "b": []}, "maximize")
    with pytest.raises(InputError):
        preference_ranking({"a": [Decimal(1)]}, "upward")


def test_aggregate_rankings_mean():
    merged = aggregate_rankings([
        {"a": Fraction(1), "b": Fraction(2)},
        {"a": Fraction(2), "b": Fraction(1)},
    ])
    assert merged == {"a": Fraction(3, 2), "b": Fraction(3, 2)}
