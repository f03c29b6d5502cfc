"""Property tests (hypothesis, derandomized): the knapsack path on instances
without transient states, the MILP path on instances with them."""

import numpy as np
from hypothesis import given, settings, strategies as st

from opinionbudget.chain_analysis import analyze, evaluate_plan, expressed_opinions, is_supporter, iterate_dynamics
from opinionbudget.decompose import decompose
from opinionbudget.knapsack import solve_by_classes
from opinionbudget.milp import budget_sweep, build_milp, solve_milp
from opinionbudget.model import confidence_matrix, load_instance, save_instance, validate

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)
#: The MILP instances need more draws: most small ones end with no supporter or all of them.
MILP_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=100)


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


@st.composite
def transient_raw(draw):
    """One to three dense classes of 1-3 agents, then transient agents: n <= 10.

    Each transient agent trusts some agent of lower index, so the lowest
    member of any strongly connected set of transients has an edge leaving
    the set; it may also trust any other transient agent.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    recurrent = sum(sizes)
    n = recurrent + draw(st.integers(1, 10 - recurrent))
    agents = [f"v{i}" for i in range(n)]
    weight = st.floats(0.1, 1.0)
    edges, start = [], 0
    for size in sizes:
        block = range(start, start + size)
        edges += [(i, j) for i in block for j in block]
        start += size
    for t in range(recurrent, n):
        lower = draw(st.integers(0, t - 1))
        others = draw(st.sets(st.integers(recurrent, n - 1), max_size=2)) - {t, lower}
        edges += [(t, t), (t, lower), *((t, o) for o in sorted(others))]
    return {
        "agents": agents,
        "edges": [{"from": agents[i], "to": agents[j], "w": draw(weight)} for i, j in edges],
        "opinions": draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        "costs": draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n)),
        "threshold": draw(st.floats(0.4, 0.9)),
        "budget": draw(st.floats(0.0, 8.0)),
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
@given(no_transient_raw(), st.lists(st.floats(0.0, 80.0), min_size=1, max_size=5))
def test_sweep_rows_are_the_class_knapsack(raw, budgets):
    instance = validate(raw)
    analysis = _analysis(instance)
    grid = sorted(budgets)
    curve = budget_sweep(instance, grid)
    for b, solution in zip(grid, curve.solutions):
        plan = solve_by_classes(instance, analysis, budget=b)[0]
        assert solution.plan.payments.tobytes() == plan.payments.tobytes()
        assert solution.plan.supporters == plan.supporters
        assert (solution.supporter_count, solution.optimality, solution.node_count) == (
            len(plan.supporters), "proven", 0)
    counts = [solution.supporter_count for solution in curve.solutions]
    assert counts == sorted(counts)


@PROPERTY_SETTINGS
@given(no_transient_raw())
def test_save_then_load_returns_an_equal_instance(tmp_path_factory, raw):
    instance = validate(raw)
    path = tmp_path_factory.mktemp("round_trip") / "instance.json"
    save_instance(instance, path)
    back = load_instance(path)
    assert back.agents == instance.agents
    order = np.lexsort((instance.targets, instance.sources))  # the file lists edges by (source, target)
    for column in ("sources", "targets", "weights"):
        assert getattr(back, column).tobytes() == getattr(instance, column)[order].tobytes()
    assert back.true_opinions.tobytes() == instance.true_opinions.tobytes()
    assert back.costs.tobytes() == instance.costs.tobytes()
    assert (back.threshold, back.budget) == (instance.threshold, instance.budget)


@MILP_SETTINGS
@given(transient_raw())
def test_milp_supporters_are_what_power_iteration_gives(raw):
    instance = validate(raw)
    cm = confidence_matrix(instance)
    analysis = analyze(cm, decompose(cm), instance.true_opinions)
    assert analysis.decomposition.transient
    solution = solve_milp(build_milp(instance, analysis))
    final, _ = iterate_dynamics(cm, expressed_opinions(instance, solution.plan.payments))
    iterated = tuple(a for a, s in zip(instance.agents, is_supporter(final, instance.threshold)) if s)
    assert solution.plan.supporters == iterated
    assert solution.supporter_count == len(iterated)


@MILP_SETTINGS
@given(transient_raw(), st.data())
def test_milp_answer_does_not_depend_on_agent_order(raw, data):
    # payments are not compared: the lexicographic tie rule follows agent order
    order = data.draw(st.permutations(range(len(raw["agents"]))))
    permuted = {**raw, **{key: [raw[key][i] for i in order] for key in ("agents", "opinions", "costs")}}
    first, second = (
        solve_milp(build_milp(instance, _analysis(instance)), round_dollars=False)
        for instance in (validate(raw), validate(permuted))
    )
    assert first.supporter_count == second.supporter_count
    assert abs(first.plan.total_spend - second.plan.total_spend) <= 1e-9


@MILP_SETTINGS
@given(transient_raw(), st.lists(st.floats(0.0, 40.0), min_size=2, max_size=4))
def test_milp_count_is_monotone_in_the_budget(raw, budgets):
    instance = validate(raw)
    analysis = _analysis(instance)
    counts = [solve_milp(build_milp(instance, analysis, budget=b)).supporter_count for b in sorted(budgets)]
    assert counts == sorted(counts)
