"""Branch-and-bound supporter maximization against the enumeration oracle."""

import inspect
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from opinionbudget import lp as lp_module
from opinionbudget import milp as milp_module
from opinionbudget.chain_analysis import analyze, asymptotic_opinions, evaluate_plan
from opinionbudget.cli import main
from opinionbudget.decompose import decompose
from opinionbudget.knapsack import solve_by_classes
from opinionbudget.milp import (
    INT_TOL,
    SPEND_TOL,
    TooLarge,
    _branch_and_bound,
    _branch_var,
    _finish,
    _lex_smaller,
    _min_spend_for_set,
    _node_program,
    _won,
    brute_force_oracle,
    budget_sweep,
    build_milp,
    solve_milp,
)
from opinionbudget.model import confidence_matrix, validate

from conftest import (PAPER_EXAMPLE, classes_raw, full_hitting, highs_per_agent_optimum, random_instance,
                      random_raw, tiled_paper)


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
    q, k = len(mi.pay_agents), len(mi.sizes)
    lp = _node_program(mi, np.zeros(k), np.ones(k), np.zeros(q + k))
    for u in range(k):
        gap = max(mi.threshold - mi.base[u], 0.0)
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
    # 42 nodes, each with one LP, plus one seed LP per budget; the depth-first
    # search took 95 nodes, 21 of them settled by price without an LP
    assert sum(sol.node_count for sol in sols) == 42
    assert len(pivots) == 42 + 3 == 45
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


def test_build_milp_holds_one_dense_rates_array():
    # dense classes plus one transient agent: lift is (units x recurrent
    # agents), and build_milp scales its class one-hots in place into it
    raw = classes_raw(np.random.default_rng(13), 1200, budget=300.0)
    raw["agents"].append("t")
    raw["edges"] += [{"from": "t", "to": "t", "w": 1.0}, {"from": "t", "to": "v0", "w": 1.0}]
    raw["opinions"].append(0.5)
    raw["costs"].append(1.0)
    inst = validate(raw)
    cm = confidence_matrix(inst)
    an = analyze(cm, decompose(cm), inst.true_opinions)
    assert an.decomposition.transient == (1200,)
    tracemalloc.start()
    try:
        mi = build_milp(inst, an)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mi.lift.shape == (len(an.decomposition.classes) + 1, 1200) and mi.lift.flags.c_contiguous
    dense = mi.lift.nbytes
    assert peak <= 1.5 * dense, f"peak {peak / dense:.2f} dense arrays"


def test_unit_rows_are_the_rows_of_their_first_member(paper_instance, paper_analysis):
    # the solver reads one row per class / transient agent; each is, bit for
    # bit, the per-agent row of the unit's first member
    rng = np.random.default_rng(79)
    cases = [(paper_instance, paper_analysis)]
    for inst in [tiled_paper(3)] + [random_instance(rng, n_min=4, n_max=30) for _ in range(40)]:
        cm = confidence_matrix(inst)
        cases.append((inst, analyze(cm, decompose(cm), inst.true_opinions)))
    for inst, an in cases:
        mi = build_milp(inst, an)
        d = an.decomposition
        units = list(d.classes) + [(t,) for t in d.transient]
        first = [u[0] for u in units]
        assert mi.lift.tobytes() == mi.rates[first].tobytes()
        assert mi.base.tobytes() == mi.baseline[first].tobytes()
        assert mi.sizes.tolist() == [len(u) for u in units]
        assert not (mi.sizes.flags.writeable or mi.base.flags.writeable or mi.lift.flags.writeable)


def _reference_branch_var(z, zlo, zup):
    best, best_frac = None, milp_module.INT_TOL
    for i in range(len(z)):
        if zlo[i] == zup[i]:
            continue
        frac = abs(z[i] - round(z[i]))
        if frac > best_frac:
            best, best_frac = i, frac
    return best


def _reference_lex_smaller(a, b):
    for x, y in zip(a, b):
        if x < y - SPEND_TOL or x > y + SPEND_TOL:
            return x < y
    return False


def test_branch_var_and_lex_order_match_the_loops():
    # ties, fixed indicators, halves (round half to even) and gaps on both
    # sides of the tolerances
    rng = np.random.default_rng(163)
    for _ in range(3000):
        k = int(rng.integers(1, 12))
        z = rng.choice([0.0, 1.0, 0.5, 0.25, 0.75, 1e-7, 1 - 1e-7, 1e-5, 0.3], size=k)
        z = np.where(rng.integers(3, size=k) == 0, rng.uniform(0, 1, k), z)
        zlo = (rng.integers(4, size=k) == 0).astype(float)
        zup = np.where(rng.integers(4, size=k) == 0, zlo, 1.0)
        assert _branch_var(z, zlo, zup) == _reference_branch_var(z, zlo, zup)

        # offsets of exactly SPEND_TOL: "|a - b| > SPEND_TOL" rounds differently there
        a = rng.choice([0.0, 1.0, 2.5, 3.0, 0.1, 7.3], size=k)
        b = a + rng.choice([0.0, 0.5e-9, 1e-9, -1e-9, 2e-9, -2e-9, -1.0, 1.0], size=k)
        assert _lex_smaller(a, b) == _reference_lex_smaller(a, b)
        assert _lex_smaller(b, a) == _reference_lex_smaller(b, a)


def test_tiled_paper_solves_cold_only_where_no_parent_exists(monkeypatch):
    # every warm node, infeasible ones included, is settled on the warm path
    # with the carried inverse, the pass-1 root starts from its crash basis
    # and the pass-2 root from the pass-1 root's optimum: only the pass-2
    # seed of each budget starts from the slack basis
    colds = []
    install = lp_module._Simplex._install_start_basis
    monkeypatch.setattr(lp_module._Simplex, "_install_start_basis",
                        lambda self: colds.append(1) or install(self))
    inst = tiled_paper(2)
    cm = confidence_matrix(inst)
    an = analyze(cm, decompose(cm), inst.true_opinions)
    sols = [solve_milp(build_milp(inst, an, budget=b)) for b in (99, 169, 293)]
    assert [sol.supporter_count for sol in sols] == [4, 7, 13]
    assert len(colds) == 3 * 1


def _depth_first(program, q, visit, node_limit, boxes=None, **_):
    """The search without price fixing or a start for the root: depth-first,
    1-branch first, every child warm from its parent."""
    stack = [(math.inf, program.lower, program.upper, None)]
    nodes = 0
    while stack:
        if nodes >= node_limit:
            return nodes, [(bound, lower, upper) for bound, lower, upper, _ in reversed(stack)]
        _, lower, upper, start = stack.pop()
        nodes += 1
        res = milp_module.solve_lp(replace(program, lower=lower, upper=upper), start)
        if res.status != "optimal":
            continue
        var = _branch_var(res.x[q:], lower[q:], upper[q:])
        if visit(res, lower, upper, var is None) or var is None:
            continue
        if boxes is None:
            children = milp_module._children(lower, upper, q + var)
        else:
            children = []
            for lo, up in reversed(boxes):
                held = np.all(lo[q:] - INT_TOL <= res.x[q:]) and np.all(res.x[q:] <= up[q:] + INT_TOL)
                children += milp_module._children(lo, up, q + var) if held else [(lo, up)]
            boxes = None
        stack.extend((res.objective, lo, up, res.basis) for lo, up in children)
    return nodes, []


def _root_restart_reference(mi, node_limit=milp_module.DEFAULT_NODE_LIMIT, search=_branch_and_bound):
    """The two passes with pass 2 searched from its root: (count, seed spend, payments, nodes)."""
    q, k, sizes = len(mi.pay_agents), len(mi.sizes), mi.sizes
    free = np.zeros(k), np.ones(k)
    won = _won(mi, np.zeros(q))
    best = {"count": int(sizes @ won), "won": won}

    def visit_count(res, *_):
        if (count := int(sizes @ (won := _won(mi, res.x[:q])))) > best["count"]:
            best.update(count=count, won=won)
        return math.floor(res.objective + INT_TOL) <= best["count"]

    count_lp = _node_program(mi, *free, np.concatenate([np.zeros(q), sizes]))
    nodes = search(count_lp, q, visit_count, node_limit)[0]
    seed = _min_spend_for_set(mi, best["won"])
    best.update(spend=-seed.objective, pay=seed.x[:q])

    def visit_spend(res, *_):
        spend, pay = -res.objective, res.x[:q]
        cheaper = spend < best["spend"] - SPEND_TOL or (
            spend <= best["spend"] + SPEND_TOL and _lex_smaller(pay, best["pay"]))
        if cheaper and sizes @ _won(mi, pay) >= best["count"]:
            best.update(spend=spend, pay=pay)
        return spend > best["spend"] + SPEND_TOL

    spend_lp = _node_program(mi, *free, np.concatenate([-np.ones(q), np.zeros(k)]), min_count=best["count"])
    nodes += search(spend_lp, q, visit_spend, node_limit - nodes)[0]
    return best["count"], -seed.objective, best["pay"], nodes


def _random_milps(seed, draws, budget_scales):
    rng = np.random.default_rng(seed)
    for scale in budget_scales:
        for _ in range(draws):
            inst = validate(random_raw(rng, 16, 40, budget_scale=scale))
            cm = confidence_matrix(inst)
            yield build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions))


def test_resumed_pass_two_matches_a_root_restart():
    # pass 2 searches only pass 1's tied and unexplored boxes: no plan with
    # the optimal count lies anywhere else.  A kept box costs one LP that a
    # restart may never solve (2 of these draws take one node more); over
    # all draws the resumed search solves about a third fewer LPs.
    ours = theirs = 0
    for mi in _random_milps(167, 60, (1.0, 0.2)):
        sol = solve_milp(mi, round_dollars=False)
        count, _, pay, nodes = _root_restart_reference(mi)
        ref = _finish(mi, pay, nodes, True, False, count)
        assert sol.optimality == "proven"
        assert sol.supporter_count == ref.supporter_count == count
        assert sol.plan.supporters == ref.plan.supporters
        assert abs(sol.plan.total_spend - ref.plan.total_spend) <= 1e-9
        assert sol.node_count <= nodes + 1
        ours, theirs = ours + sol.node_count, theirs + nodes
    assert ours <= 0.7 * theirs  # 1,330 against 2,094


def test_tiled_paper_resumed_pass_two_nodes():
    # 38 + 58 + 48 = 144 nodes when pass 2 restarted from its root
    inst = tiled_paper(2)
    cm = confidence_matrix(inst)
    an = analyze(cm, decompose(cm), inst.true_opinions)
    sols = [solve_milp(build_milp(inst, an, budget=b)) for b in (99, 169, 293)]
    assert [sol.supporter_count for sol in sols] == [4, 7, 13]
    assert sum(sol.node_count for sol in sols) <= 100


def test_node_limited_runs_keep_the_pass_one_count_and_the_seed_spend():
    # against the depth-first search at the same limit: a higher count in 26
    # of these 360 runs and a lower one in none; 68 runs end heuristic, not 99
    limits = (1, 2, 3, 5, 8, 13, 21, 40, 80, 200)
    checked = 0
    for mi in _random_milps(173, 12, (1.0, 0.2, 0.05)):
        for limit in limits:
            sol = solve_milp(mi, node_limit=limit, round_dollars=False)
            count, seed_spend, _, _ = _root_restart_reference(mi, limit, _depth_first)
            assert sol.supporter_count >= count
            if sol.supporter_count == count:
                assert sol.plan.total_spend <= seed_spend + SPEND_TOL
            assert sol.node_count <= limit
            checked += sol.optimality == "heuristic"
    assert checked >= 20


def test_node_limited_pass_one_hands_its_stack_to_pass_two(monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        nodes, left = _branch_and_bound(*args, **kwargs)
        boxes = inspect.signature(_branch_and_bound).bind(*args, **kwargs).arguments.get("boxes")
        calls.append((boxes, left))
        return nodes, left

    monkeypatch.setattr(milp_module, "_branch_and_bound", recording)
    inst = tiled_paper(2)
    cm = confidence_matrix(inst)
    mi = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions), budget=169.0)
    sol = solve_milp(mi, node_limit=10)
    assert sol.optimality == "heuristic" and sol.node_count == 10
    (none, unexplored), (boxes, _) = calls
    assert none is None and unexplored
    # the unexplored boxes follow the tied ones, in the order pass 1 would have popped them
    assert all(a is c and b is d for (a, b), (_, c, d) in zip(boxes[-len(unexplored):], unexplored))


def test_node_limited_runs_bound_the_optimum():
    # count_bound is the count found, or the best parent bound among pass 1's open nodes
    inst = tiled_paper(2)
    cm = confidence_matrix(inst)
    tiled = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions), budget=169.0)
    sol = solve_milp(tiled, node_limit=10)
    assert sol.optimality == "heuristic"
    assert sol.supporter_count <= highs_per_agent_optimum(tiled) == 7 <= sol.count_bound
    heuristic = 0
    for mi in _random_milps(173, 8, (0.2, 0.05)):
        if mi.degenerate:
            continue
        best = highs_per_agent_optimum(mi)
        for limit in (1, 3, 8, 21, 80):
            sol = solve_milp(mi, node_limit=limit)
            assert sol.supporter_count <= best <= sol.count_bound
            if sol.optimality == "proven":
                assert sol.count_bound == sol.supporter_count
            heuristic += sol.optimality == "heuristic"
    assert heuristic >= 10


def test_hard_draws_prove_the_highs_optimum():
    # the five n = 80 draws and the first n = 120 draw of one seed; the
    # depth-first search needed 14,056 nodes to prove the last one
    rng = np.random.default_rng([7, 100])
    raws = [random_raw(rng, n, n, 0.05) for n in (80,) * 5 + (120,)]
    for raw, best in zip(raws, (19, 23, 80, 59, 40, 72)):
        inst = validate(raw)
        cm = confidence_matrix(inst)
        mi = build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions))
        sol = solve_milp(mi, node_limit=6000)
        assert sol.optimality == "proven"
        assert sol.supporter_count == highs_per_agent_optimum(mi) == best


def test_sweep_builds_the_milp_data_once(paper_instance, paper_analysis, monkeypatch):
    builds = []
    build = milp_module.build_milp
    monkeypatch.setattr(milp_module, "build_milp",
                        lambda *args, **kwargs: builds.append(1) or build(*args, **kwargs))
    budgets = [0.0, 99.0, 117.0, 169.0, 293.0, 309.0]
    for round_dollars in (True, False):
        builds.clear()
        curve = budget_sweep(paper_instance, budgets, round_dollars=round_dollars)
        assert len(builds) == 1
        for b, sol in zip(budgets, curve.solutions):
            ref = solve_milp(build(paper_instance, paper_analysis, budget=b), round_dollars=round_dollars)
            assert (sol.supporter_count, sol.optimality, sol.node_count) == (
                ref.supporter_count, ref.optimality, ref.node_count)
            assert sol.plan.to_dict() == ref.plan.to_dict()
            assert np.array_equal(sol.plan.payments, ref.plan.payments)
    # a bad row still raises the budget check's error
    with pytest.raises(ValueError, match="budget inf must be nonnegative and finite"):
        budget_sweep(paper_instance, [1.0, float("inf")])


def _tiled_milps():
    for copies, budgets in ((2, (99, 169, 293)), (3, (779,)), (4, (1072,))):
        inst = tiled_paper(copies)
        cm = confidence_matrix(inst)
        an = analyze(cm, decompose(cm), inst.true_opinions)
        yield from (build_milp(inst, an, budget=b) for b in budgets)


def _pretest_corpus():
    yield from _tiled_milps()
    yield from _random_milps(181, 15, (1.0, 0.2, 0.05))


def _price_fixed_statuses(monkeypatch, mis):
    """solve_lp's status on every box that price fixing rules out: a node's
    box with one unit it fixes to 0 set to 1 instead and the node's other
    free indicators left free."""
    statuses = []

    def checking(program, q, *args, fix=None, **kwargs):
        def check(zlo, zup):
            out = fix(zlo, zup)
            for u in np.flatnonzero(out):
                lower = np.concatenate([program.lower[:q], zlo])
                lower[q + u] = 1.0
                box = replace(program, lower=lower, upper=np.concatenate([program.upper[:q], zup]))
                statuses.append(milp_module.solve_lp(box).status)
            return out

        return _branch_and_bound(program, q, *args, fix=check, **kwargs)

    monkeypatch.setattr(milp_module, "_branch_and_bound", checking)
    for mi in mis:
        solve_milp(mi)
    return statuses


def test_price_fixed_units_cannot_be_won(monkeypatch):
    statuses = _price_fixed_statuses(monkeypatch, _pretest_corpus())
    assert len(statuses) >= 50  # 256 here
    assert set(statuses) == {"infeasible"}


def test_inflated_prices_fix_a_winnable_unit(monkeypatch):
    # the soundness check above catches prices only 1% too high
    prices = milp_module._unit_prices
    monkeypatch.setattr(milp_module, "_unit_prices", lambda *args: 1.01 * prices(*args))
    assert "optimal" in _price_fixed_statuses(monkeypatch, _pretest_corpus())


def test_price_fixing_and_best_bound_keep_every_count_and_spend(monkeypatch):
    # against the depth-first search without price fixing and root starts
    ours = theirs = 0
    for mi in _pretest_corpus():
        with monkeypatch.context() as patch:
            patch.setattr(milp_module, "_branch_and_bound", _depth_first)
            ref = solve_milp(mi, round_dollars=False)
        sol = solve_milp(mi, round_dollars=False)
        assert (sol.supporter_count, sol.optimality) == (ref.supporter_count, ref.optimality)
        assert abs(sol.plan.total_spend - ref.plan.total_spend) <= 1e-9
        ours, theirs = ours + sol.node_count, theirs + ref.node_count
    assert ours < theirs  # 435 against 612


@pytest.mark.parametrize("budget,paid,supporters,spend", [
    (99, {"j0": 99.0}, ["i0", "j0", "k0", "l0"], 99.0),
    (169, {"j1": 169.0}, ["e1", "g1", "h1", "i1", "j1", "k1", "l1"], 169.0),
    (293, {"j0": 117.0, "j1": 169.0},
     ["g0", "h0", "i0", "j0", "k0", "l0", "e1", "g1", "h1", "i1", "j1", "k1", "l1"], 286.0),
])
def test_tiled_paper_plans_are_pinned(budget, paid, supporters, spend):
    # the copies tie on spend, and the lexicographic tie-break compares only the
    # node optima the search visits: a change to the tree can pay the same $99
    # to j1 instead of j0
    inst = tiled_paper(2)
    cm = confidence_matrix(inst)
    sol = solve_milp(build_milp(inst, analyze(cm, decompose(cm), inst.true_opinions), budget=budget))
    assert sol.plan.to_dict() == {"payments": {a: paid.get(a, 0.0) for a in inst.agents},
                                  "supporters": supporters, "total_spend": spend}
