"""Branch-and-bound supporter maximization against the enumeration oracle."""

import json
from dataclasses import replace

import numpy as np
import pytest

from opinionbudget import milp as milp_module
from opinionbudget.chain_analysis import analyze, asymptotic_opinions, evaluate_plan
from opinionbudget.cli import main
from opinionbudget.decompose import decompose
from opinionbudget.knapsack import solve_by_classes
from opinionbudget.milp import (
    TooLarge,
    _finish,
    _node_program,
    _units,
    brute_force_oracle,
    budget_sweep,
    build_milp,
    solve_milp,
)
from opinionbudget.model import confidence_matrix, validate

from conftest import PAPER_EXAMPLE, full_hitting, highs_per_agent_optimum, random_instance, random_raw, tiled_paper


def nonzero_payments(instance, plan):
    return {
        instance.agents[i]: float(p)
        for i, p in enumerate(plan.payments) if p > 1e-9
    }


def test_lower_bound_paper(paper_instance, paper_analysis):
    mi = build_milp(paper_instance, paper_analysis)
    assert abs(mi.lower_bound - 9.6 / 39) <= 1e-12
    # the minimum is attained by the second class's members
    mins = np.flatnonzero(np.abs(mi.baseline - mi.lower_bound) <= 1e-12)
    assert set(mins) == {8, 9, 10, 11}
    assert not mi.degenerate


def test_degenerate_threshold_below_lower_bound(paper_instance, paper_analysis):
    # threshold below L ~ 0.246: everyone is already a supporter
    inst = replace(paper_instance, threshold=0.2, budget=0.0)
    cm = confidence_matrix(inst)
    an = analyze(cm, decompose(cm), inst.true_opinions)
    mi = build_milp(inst, an)
    assert mi.degenerate
    sol = solve_milp(mi)
    assert sol.supporter_count == 12
    assert sol.plan.total_spend == 0.0
    assert sol.optimality == "proven"
    ref = brute_force_oracle(inst, an)
    assert ref.supporter_count == 12
    assert ref.plan.total_spend == 0.0
    assert ref.optimality == "proven"


def test_paper_budget_309(paper_instance, paper_analysis):
    sol = solve_milp(build_milp(paper_instance, paper_analysis, budget=309.0))
    assert sol.supporter_count == 12
    assert sol.optimality == "proven"
    pays = nonzero_payments(paper_instance, sol.plan)
    assert set(pays) == {"a", "j"}
    assert abs(pays["a"] - 210.0) <= 0.01
    assert abs(pays["j"] - 99.0) <= 0.01


def test_paper_budget_117(paper_instance, paper_analysis):
    sol = solve_milp(build_milp(paper_instance, paper_analysis, budget=117.0))
    assert sol.supporter_count == 6
    assert sol.plan.supporters == ("g", "h", "i", "j", "k", "l")
    pays = nonzero_payments(paper_instance, sol.plan)
    assert set(pays) == {"j"} and abs(pays["j"] - 117.0) <= 0.01


def test_payment_residue_is_not_reported(paper_instance, paper_analysis):
    # a degenerate basic payment can end at a float residue such as 7e-16
    mi = build_milp(paper_instance, paper_analysis, budget=117.0)
    j = paper_instance.index("j")
    pay = np.zeros(len(mi.pay_agents))
    pay[np.flatnonzero(mi.pay_agents == j)] = 117.0
    pay[0] = 7e-16
    sol = _finish(mi, pay, 0, True, round_dollars=False)
    assert nonzero_payments(paper_instance, sol.plan) == {"j": 117.0}
    assert sol.plan.payments[mi.pay_agents[0]] == 0.0


def test_paper_budget_zero(paper_instance, paper_analysis):
    sol = solve_milp(build_milp(paper_instance, paper_analysis, budget=0.0))
    assert sol.supporter_count == 0
    assert sol.plan.total_spend == 0.0


def test_exact_payments_mode(paper_instance, paper_analysis):
    sol = solve_milp(build_milp(paper_instance, paper_analysis, budget=117.0),
                     round_dollars=False)
    pays = nonzero_payments(paper_instance, sol.plan)
    # cheapest certificate for 6 supporters: lift the second class's consensus
    # until agent g's hitting mixture (1/3, 2/3) reaches 1/2
    needed_consensus = (0.5 - (19.3 / 47) / 3) * 1.5
    expected = (needed_consensus - 9.6 / 39) * 390
    assert abs(pays["j"] - expected) <= 1e-6
    assert sol.supporter_count == 6


def test_oracle_paper_rows(paper_instance, paper_analysis):
    sol = brute_force_oracle(paper_instance, paper_analysis, budget=169.0)
    assert sol.supporter_count == 7
    pays = nonzero_payments(paper_instance, sol.plan)
    assert set(pays) == {"j"} and abs(pays["j"] - 169.0) <= 0.01

    sol = brute_force_oracle(paper_instance, paper_analysis, budget=293.0)
    assert sol.supporter_count == 8
    pays = nonzero_payments(paper_instance, sol.plan)
    assert abs(pays["a"] - 113.0) <= 0.01
    assert abs(pays["j"] - 180.0) <= 0.01


def test_oracle_huge_budget_buys_everyone(paper_instance, paper_analysis):
    recurrent = [i for members in paper_analysis.decomposition.classes for i in members]
    caps = sum(
        paper_instance.costs[i] * (1 - paper_instance.true_opinions[i]) for i in recurrent
    )
    sol = brute_force_oracle(paper_instance, paper_analysis, budget=float(caps))
    assert sol.supporter_count == 12


def test_oracle_rejects_large_instances():
    rng = np.random.default_rng(103)
    inst = random_instance(rng, n_min=16, n_max=16)
    cm = confidence_matrix(inst)
    an = analyze(cm, decompose(cm), inst.true_opinions)
    with pytest.raises(TooLarge):
        brute_force_oracle(inst, an)


def test_solver_matches_oracle_on_random_instances():
    rng = np.random.default_rng(107)
    for _ in range(25):
        inst = random_instance(rng, n_max=9)
        cm = confidence_matrix(inst)
        an = analyze(cm, decompose(cm), inst.true_opinions)
        mi = build_milp(inst, an)
        sol = solve_milp(mi)
        ref = brute_force_oracle(inst, an)
        assert sol.supporter_count == ref.supporter_count
        assert sol.optimality == "proven"


def test_matches_knapsack_without_transients():
    rng = np.random.default_rng(109)
    from test_knapsack import no_transient_instance
    for _ in range(15):
        inst = no_transient_instance(rng)
        cm = confidence_matrix(inst)
        an = analyze(cm, decompose(cm), inst.true_opinions)
        plan, _ = solve_by_classes(inst, an)
        sol = solve_milp(build_milp(inst, an))
        assert sol.supporter_count == len(plan.supporters)


def test_indicator_equivalence(paper_instance, paper_analysis):
    # the linearization must reproduce the plain threshold indicator
    for budget in (0.0, 99.0, 117.0, 293.0, 309.0):
        sol = solve_milp(build_milp(paper_instance, paper_analysis, budget=budget))
        limits = asymptotic_opinions(paper_analysis, sol.plan.expressed_opinions)
        implied = {
            paper_instance.agents[i]
            for i in range(12) if limits[i] >= 0.5 - 1e-9
        }
        assert implied == set(sol.plan.supporters)


def test_transient_payments_never_help(paper_instance, paper_analysis):
    sol = solve_milp(build_milp(paper_instance, paper_analysis, budget=117.0))
    base_supporters = set(sol.plan.supporters)
    # push spare dollars onto a transient agent: nothing changes
    payments = sol.plan.payments.copy()
    payments[paper_instance.index("d")] += 50.0
    plan = evaluate_plan(paper_instance, paper_analysis, payments, budget=200.0)
    assert set(plan.supporters) == base_supporters


def test_node_limit_yields_heuristic(paper_instance, paper_analysis):
    sol = solve_milp(build_milp(paper_instance, paper_analysis, budget=293.0), node_limit=1)
    assert sol.optimality == "heuristic"
    assert sol.plan.total_spend <= 293.0 + 1e-6


def test_sweep_paper_budgets(paper_instance):
    curve = budget_sweep(paper_instance, [99, 114, 117, 169, 293, 309])
    assert [sol.supporter_count for sol in curve.solutions] == [4, 5, 6, 7, 8, 12]
    rows = curve.rows()
    assert rows[0][0] == 99.0 and rows[0][1] == 4


def test_sweep_requires_sorted_budgets(paper_instance):
    with pytest.raises(ValueError):
        budget_sweep(paper_instance, [100, 50])
    with pytest.raises(ValueError):
        budget_sweep(paper_instance, [-1.0])


def test_sweep_repeated_budgets_identical(paper_instance):
    curve = budget_sweep(paper_instance, [117, 117])
    first, second = curve.solutions
    assert first.supporter_count == second.supporter_count
    assert np.array_equal(first.plan.payments, second.plan.payments)


def test_sweep_counts_nondecreasing_random():
    rng = np.random.default_rng(113)
    for _ in range(10):
        inst = random_instance(rng, n_max=8)
        budgets = np.sort(rng.uniform(0, 30, 4))
        curve = budget_sweep(inst, budgets)
        counts = [sol.supporter_count for sol in curve.solutions]
        assert counts == sorted(counts)


@pytest.mark.parametrize("budget,count,per_agent_nodes", [(99, 4, 82), (169, 7, 250), (293, 13, 488)])
def test_tiled_paper_branches_on_units(budget, count, per_agent_nodes):
    inst = tiled_paper(2)
    cm = confidence_matrix(inst)
    mi = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions), budget=budget)
    sol = solve_milp(mi)
    assert sol.supporter_count == count
    assert sol.optimality == "proven"
    # one indicator per agent took this many nodes: a class is one decision now
    assert sol.node_count < per_agent_nodes
    assert highs_per_agent_optimum(mi) == count


def test_exact_linking_rows_tiled_four_copies(paper_instance, paper_analysis):
    # a unit's indicator asks payments for exactly its own gap to the threshold
    mi = build_milp(paper_instance, paper_analysis)
    units = _units(paper_analysis.decomposition)
    q, k = len(mi.pay_agents), len(units)
    lp = _node_program(mi, units, np.zeros(k), np.ones(k), np.zeros(q + k))
    for u, unit in enumerate(units):
        gap = max(mi.threshold - mi.baseline[unit[0]], 0.0)
        assert np.array_equal(lp.rows[1 + u, q:], gap * np.eye(k)[u])
        assert lp.rhs[1 + u] == 0.0

    # the global constant L = min baseline in every row took 822 nodes here
    inst = tiled_paper(4)
    cm = confidence_matrix(inst)
    mi = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions), budget=1072.0)
    sol = solve_milp(mi)
    assert sol.optimality == "proven"
    assert sol.supporter_count == highs_per_agent_optimum(mi) == 42
    assert sol.node_count <= 150


def test_tiled_paper_three_copies_matches_highs():
    inst = tiled_paper(3)
    cm = confidence_matrix(inst)
    mi = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions), budget=779.0)
    sol = solve_milp(mi)
    assert sol.optimality == "proven"
    assert sol.supporter_count == highs_per_agent_optimum(mi) == 30


def test_classes_never_split_random():
    rng = np.random.default_rng(127)
    for _ in range(30):
        inst = validate(random_raw(rng, n_min=4, n_max=12))
        cm = confidence_matrix(inst)
        an = analyze(cm, decompose(cm), inst.true_opinions)
        sol = solve_milp(build_milp(inst, an))
        supporters = set(sol.plan.supporters)
        for members in an.decomposition.classes:
            won = {inst.agents[i] in supporters for i in members}
            assert len(won) == 1


def test_tiled_paper_node_pivots(monkeypatch):
    # children start from the parent's optimal basis: 2,884 pivots when every
    # node LP was solved cold
    pivots = []
    solve = milp_module.solve_lp

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(milp_module, "solve_lp", counting)
    inst = tiled_paper(2)
    cm = confidence_matrix(inst)
    an = analyze(cm, decompose(cm), inst.true_opinions)
    sols = [solve_milp(build_milp(inst, an, budget=b)) for b in (99, 169, 293)]
    assert [sol.supporter_count for sol in sols] == [4, 7, 13]
    assert all(sol.optimality == "proven" for sol in sols)
    assert len(pivots) == sum(sol.node_count for sol in sols) + 3  # + one seed LP each
    assert sum(pivots) <= 1000


def test_optimal_above_oracle_limit_matches_highs():
    rng = np.random.default_rng(139)
    checked = 0
    for _ in range(100):
        inst = validate(random_raw(rng, n_min=16, n_max=40))
        cm = confidence_matrix(inst)
        mi = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions))
        if mi.degenerate:
            continue
        sol = solve_milp(mi, round_dollars=False)
        assert sol.optimality == "proven"
        assert sol.supporter_count == highs_per_agent_optimum(mi)
        checked += 1
    assert checked >= 80


def test_relabeling_agents_changes_nothing():
    # payments are not compared: the lexicographic tie rule follows agent order
    rng = np.random.default_rng(151)
    for _ in range(100):
        raw = random_raw(rng, n_min=4, n_max=20)
        order = rng.permutation(len(raw["agents"]))
        relabeled = {
            **raw,
            "agents": [raw["agents"][i] for i in order],
            "edges": raw["edges"][::-1],
            "opinions": [raw["opinions"][i] for i in order],
            "costs": [raw["costs"][i] for i in order],
        }
        sols = []
        for inst in (validate(raw), validate(relabeled)):
            cm = confidence_matrix(inst)
            mi = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions))
            sols.append(solve_milp(mi, round_dollars=False))
        first, second = sols
        assert first.supporter_count == second.supporter_count
        assert abs(first.plan.total_spend - second.plan.total_spend) <= 1e-9


def test_rates_are_hitting_times_stationary_mass_per_dollar(paper_instance, paper_analysis):
    rng = np.random.default_rng(71)
    cases = [(paper_instance, paper_analysis)]
    for inst in [tiled_paper(3)] + [random_instance(rng, n_min=4, n_max=30) for _ in range(40)]:
        cm = confidence_matrix(inst)
        cases.append((inst, analyze(cm, decompose(cm), inst.true_opinions)))
    for inst, an in cases:
        mi = build_milp(inst, an)
        d = an.decomposition
        assert mi.pay_agents.tolist() == sorted(i for members in d.classes for i in members)
        assert not mi.pay_agents.flags.writeable
        expected = np.zeros((inst.n, len(mi.pay_agents)))
        for col, a in enumerate(mi.pay_agents.tolist()):
            expected[:, col] = full_hitting(d, an.hitting)[d.class_of[a]] * an.pi[a] / inst.costs[a]
            assert mi.caps[col] == inst.costs[a] * (1.0 - inst.true_opinions[a])
        assert np.array_equal(mi.rates, expected)


def test_plan_below_certified_count_is_a_solver_failure(paper_instance, paper_analysis,
                                                        monkeypatch, capsys):
    # rounding up only adds payments, so the reported plan never loses a certified supporter
    def drop_one(*args, **kwargs):
        plan = evaluate_plan(*args, **kwargs)
        return replace(plan, supporters=plan.supporters[1:])

    monkeypatch.setattr(milp_module, "evaluate_plan", drop_one)
    with pytest.raises(RuntimeError, match="6 certified"):
        solve_milp(build_milp(paper_instance, paper_analysis, budget=117.0))
    with pytest.raises(RuntimeError, match="6 certified"):
        brute_force_oracle(paper_instance, paper_analysis, budget=117.0)
    assert main(["solve", str(PAPER_EXAMPLE), "--budget", "117"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "solver_failure"


def test_every_node_payments_are_judged_as_a_plan():
    # counting supporters only at integral nodes stopped at 11 and 9 here
    rng = np.random.default_rng(160)
    raws = [random_raw(rng, 40, 60, budget_scale=0.05) for _ in range(12)]
    sols = []
    for raw in (raws[4], raws[8]):
        inst = validate(raw)
        cm = confidence_matrix(inst)
        mi = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions))
        sols.append((inst.n, solve_milp(mi, node_limit=200), highs_per_agent_optimum(mi)))
    (_, fifth, fifth_best), (n, ninth, ninth_best) = sols
    assert fifth.supporter_count == fifth_best == 15
    assert n == 52 and ninth_best == 23
    assert ninth.optimality == "heuristic" and ninth.supporter_count >= 20
