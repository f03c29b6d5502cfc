"""Greedy per-class pricing against brute force and its structural properties."""

import itertools

import numpy as np
import pytest

from opinionbudget.class_budget import (
    InfeasibleThreshold,
    TargetOutOfRange,
    _influence_order,
    class_cost_curve,
    min_budget_for_class,
    min_budget_stack,
)
from opinionbudget.lp import LinearProgram, solve_lp

from conftest import random_class

# paper classes with per-unit costs (10x the listed per-0.1 dollars)
PI_1 = np.array([20, 15, 12]) / 47
X_1 = np.array([0.5, 0.3, 0.4])
C_1 = np.array([1000.0, 800.0, 1200.0])
PI_2 = np.array([5, 20, 10, 4]) / 39
X_2 = np.array([0.8, 0.1, 0.2, 0.4])
C_2 = np.array([600.0, 200.0, 900.0, 700.0])


def lp_min_budget(pi, opinions, costs, threshold):
    """Independent minimizer: one-constraint LP with payment caps."""
    nk = len(pi)
    rows = np.array([pi / costs])
    rhs = np.array([threshold - float(np.dot(pi, opinions))])
    lp = LinearProgram(
        objective=-np.ones(nk),
        rows=rows,
        senses=(">=",),
        rhs=rhs,
        lower=np.zeros(nk),
        upper=costs * (1.0 - opinions),
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    return -res.objective, res.x


def test_paper_class_two():
    res = min_budget_for_class(PI_2, X_2, C_2, 0.5)
    assert res.critical_item == 1  # agent j
    assert abs(res.payments[1] - 99.0) <= 1e-9
    assert np.max(np.abs(np.delete(res.payments, 1))) == 0.0
    assert abs(res.total - 99.0) <= 1e-9
    assert res.feasible


def test_paper_class_one():
    res = min_budget_for_class(PI_1, X_1, C_1, 0.5)
    assert res.critical_item == 0  # agent a
    assert abs(res.payments[0] - 210.0) <= 1e-9
    assert abs(res.total - 210.0) <= 1e-9


def test_already_satisfied_class():
    res = min_budget_for_class(PI_1, np.array([0.9, 0.9, 0.9]), C_1, 0.5)
    assert res.total == 0.0
    assert res.critical_item is None
    assert np.array_equal(res.payments, np.zeros(3))


def test_threshold_above_one_rejected():
    with pytest.raises(InfeasibleThreshold):
        min_budget_for_class(PI_1, X_1, C_1, 1.5)


def test_maximality_consensus_equals_target():
    rng = np.random.default_rng(61)
    for _ in range(50):
        e, opinions, costs = random_class(rng)
        from opinionbudget.chain_analysis import stationary_distribution
        pi = stationary_distribution(e)
        threshold = float(rng.uniform(0.05, 1.0))
        res = min_budget_for_class(pi, opinions, costs, threshold)
        if res.total > 0:
            achieved = float(np.dot(pi, opinions + res.payments / costs))
            assert abs(achieved - threshold) <= 1e-9
        assert (res.payments >= 0).all()
        assert (res.payments <= costs * (1 - opinions) + 1e-9).all()


def test_greedy_matches_lp_brute_force():
    rng = np.random.default_rng(67)
    from opinionbudget.chain_analysis import stationary_distribution
    for _ in range(60):
        e, opinions, costs = random_class(rng)
        pi = stationary_distribution(e)
        threshold = float(rng.uniform(0.05, 1.0))
        res = min_budget_for_class(pi, opinions, costs, threshold)
        lp_total, _ = lp_min_budget(pi, opinions, costs, threshold)
        assert abs(res.total - lp_total) <= 1e-6


def test_scale_invariance():
    rng = np.random.default_rng(71)
    from opinionbudget.chain_analysis import stationary_distribution
    for _ in range(25):
        e, opinions, costs = random_class(rng, n_max=5)
        pi = stationary_distribution(e)
        threshold = float(rng.uniform(0.3, 1.0))
        lam = float(rng.uniform(0.1, 10.0))
        base = min_budget_for_class(pi, opinions, costs, threshold)
        scaled = min_budget_for_class(pi, opinions, lam * costs, threshold)
        assert np.max(np.abs(scaled.payments - lam * base.payments)) <= 1e-6 * max(1.0, lam)
        assert abs(scaled.total - lam * base.total) <= 1e-6 * max(1.0, lam)
        assert scaled.critical_item == base.critical_item


def test_tie_broken_by_original_index():
    # identical pi/c ratios: the earlier agent is paid first
    pi = np.array([0.5, 0.5])
    costs = np.array([2.0, 2.0])
    opinions = np.array([0.0, 0.0])
    res = min_budget_for_class(pi, opinions, costs, 0.75)
    assert res.payments[0] == 2.0  # paid to opinion 1
    assert res.critical_item == 1


def test_cost_curve_paper_values():
    curve = class_cost_curve(PI_2, X_2, C_2, [0.5])
    assert abs(curve[0] - 99.0) <= 1e-9
    base = float(np.dot(PI_2, X_2))
    assert class_cost_curve(PI_2, X_2, C_2, [base])[0] == 0.0
    full = class_cost_curve(PI_2, X_2, C_2, [1.0])[0]
    assert abs(full - 1440.0) <= 1e-6


def test_cost_curve_full_payment_matches_grid_search():
    # brute force over a payment grid: only the all-caps corner reaches 1
    caps = C_2 * (1.0 - X_2)
    best = np.inf
    for fractions in itertools.product(np.linspace(0, 1, 9), repeat=4):
        p = caps * np.array(fractions)
        consensus = float(np.dot(PI_2, X_2 + p / C_2))
        if consensus >= 1.0 - 1e-12:
            best = min(best, p.sum())
    assert abs(best - 1440.0) <= 1e-9


def test_cost_curve_convex_nondecreasing():
    rng = np.random.default_rng(73)
    from opinionbudget.chain_analysis import stationary_distribution
    for _ in range(20):
        e, opinions, costs = random_class(rng)
        pi = stationary_distribution(e)
        base = float(np.dot(pi, opinions))
        targets = np.linspace(base, 1.0, 12)
        curve = class_cost_curve(pi, opinions, costs, targets)
        assert (np.diff(curve) >= -1e-9).all()
        second = np.diff(curve, 2)
        assert (second >= -1e-6).all()


def test_cost_curve_target_out_of_range():
    base = float(np.dot(PI_2, X_2))
    with pytest.raises(TargetOutOfRange):
        class_cost_curve(PI_2, X_2, C_2, [base - 0.01])
    with pytest.raises(TargetOutOfRange):
        class_cost_curve(PI_2, X_2, C_2, [1.01])


def reference_greedy(pi, opinions, costs, threshold):
    """The per-class greedy loop, one scalar step at a time: (payments, critical, total)."""
    nk = len(pi)
    payments = np.zeros(nk)
    if np.dot(pi, opinions) >= threshold:
        return payments, None, 0.0
    order = _influence_order(pi, costs)
    paid_mass = 0.0
    rest = float(np.dot(pi[order], opinions[order]))
    critical_pos = nk - 1
    for pos, j in enumerate(order):
        before_paid, before_rest = paid_mass, rest
        paid_mass += pi[j]
        rest -= pi[j] * opinions[j]
        if paid_mass + rest >= threshold:
            critical_pos = pos
            paid_mass, rest = before_paid, before_rest
            break
    else:
        paid_mass -= pi[order[-1]]
        rest += pi[order[-1]] * opinions[order[-1]]
    for pos in range(critical_pos):
        j = order[pos]
        payments[j] = costs[j] * (1.0 - opinions[j])
    s = order[critical_pos]
    top_up = (costs[s] / pi[s]) * (threshold - paid_mass - rest)
    payments[s] = min(max(top_up, 0.0), costs[s] * (1.0 - opinions[s]))
    return payments, s, float(payments.sum())


def tie_heavy_stack(rng, count, m):
    """Classes whose pi, opinions and costs come from small pools, so that
    pi/c ratios tie and greedy prefixes land exactly on the threshold."""
    pi = rng.choice([1.0, 2.0, 3.0, 4.0], (count, m))
    pi /= pi.sum(axis=1, keepdims=True)
    opinions = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], (count, m))
    costs = rng.choice([1.0, 2.0, 4.0], (count, m))
    return pi, opinions, costs


def random_stack(rng, count, m):
    pi = rng.uniform(0.05, 1.0, (count, m))
    pi /= pi.sum(axis=1, keepdims=True)
    return pi, rng.uniform(0.0, 1.0, (count, m)), rng.uniform(0.5, 10.0, (count, m))


def test_stacked_pricing_matches_the_scalar_loop_bitwise():
    rng = np.random.default_rng(131)
    for m in range(1, 8):
        for threshold in (0.25, 0.5, 0.6, 0.75, 0.9, 1.0, float(rng.uniform(0.05, 1.0))):
            for stack in (tie_heavy_stack, random_stack):
                pi, opinions, costs = stack(rng, 40, m)
                payments, critical = min_budget_stack(pi, opinions, costs, threshold)
                for r in range(len(pi)):
                    ref_pay, ref_crit, ref_total = reference_greedy(pi[r], opinions[r], costs[r], threshold)
                    assert payments[r].tobytes() == ref_pay.tobytes()
                    assert (None if critical[r] < 0 else critical[r]) == ref_crit
                    single = min_budget_for_class(pi[r], opinions[r], costs[r], threshold)
                    assert single.payments.tobytes() == ref_pay.tobytes()
                    assert single.critical_item == ref_crit
                    assert single.total.hex() == ref_total.hex()
