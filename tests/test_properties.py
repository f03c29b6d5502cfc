"""Property tests on no-transient instances (hypothesis, derandomized)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from opinionbudget.chain_analysis import analyze, evaluate_plan
from opinionbudget.decompose import decompose
from opinionbudget.knapsack import solve_by_classes
from opinionbudget.model import confidence_matrix, load_instance, save_instance, validate

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def no_transient_raw(draw):
    """Disjoint dense classes of 1-4 agents: every agent is recurrent."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    n = sum(sizes)
    agents = [f"v{i}" for i in range(n)]
    edges, start = [], 0
    for size in sizes:
        block = range(start, start + size)
        edges += [{"from": agents[i], "to": agents[j], "w": draw(st.floats(0.1, 1.0))}
                  for i in block for j in block]
        start += size
    return {
        "agents": agents,
        "edges": edges,
        "opinions": draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        "costs": draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n)),
        "threshold": draw(st.floats(0.05, 1.0)),
        "budget": draw(st.floats(0.0, 60.0)),
    }


def _analysis(instance):
    cm = confidence_matrix(instance)
    return analyze(cm, decompose(cm), instance.true_opinions)


@PROPERTY_SETTINGS
@given(no_transient_raw())
def test_solve_count_is_what_evaluate_plan_reports(raw):
    instance = validate(raw)
    analysis = _analysis(instance)
    plan, selection = solve_by_classes(instance, analysis)
    assert len(plan.supporters) == selection.total_value
    assert len(evaluate_plan(instance, analysis, plan.payments).supporters) == selection.total_value


@PROPERTY_SETTINGS
@given(no_transient_raw(), st.lists(st.floats(0.0, 80.0), min_size=2, max_size=5))
def test_count_is_monotone_in_the_budget(raw, budgets):
    instance = validate(raw)
    analysis = _analysis(instance)
    counts = [len(solve_by_classes(instance, analysis, budget=b)[0].supporters) for b in sorted(budgets)]
    assert counts == sorted(counts)


@PROPERTY_SETTINGS
@given(no_transient_raw())
def test_save_then_load_returns_an_equal_instance(tmp_path_factory, raw):
    instance = validate(raw)
    path = tmp_path_factory.mktemp("round_trip") / "instance.json"
    save_instance(instance, path)
    back = load_instance(path)
    assert back.agents == instance.agents
    assert back.weights == instance.weights
    assert back.true_opinions.tobytes() == instance.true_opinions.tobytes()
    assert back.costs.tobytes() == instance.costs.tobytes()
    assert (back.threshold, back.budget) == (instance.threshold, instance.budget)
