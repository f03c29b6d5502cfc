"""Greedy per-class pricing against brute force and its structural properties."""

import itertools

import numpy as np
import pytest

from opinionbudget import class_budget
from opinionbudget.class_budget import (
    InfeasibleThreshold,
    TargetOutOfRange,
    _greedy_order,
    _influence_order,
    class_cost_curve,
    min_budget_for_class,
    min_budget_stack,
)
from opinionbudget.chain_analysis import consensus_stack
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


def test_nan_threshold_rejected():
    # not (threshold <= 1 + tol): NaN would otherwise price as feasible NaN payments
    with pytest.raises(InfeasibleThreshold):
        min_budget_for_class(np.array([0.5, 0.5]), np.array([0.2, 0.4]), np.array([3.0, 5.0]), float("nan"))


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


def test_cost_curve_nan_target_out_of_range():
    with pytest.raises(TargetOutOfRange):
        class_cost_curve(PI_2, X_2, C_2, [float("nan")])


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


def reference_stack_walk(pi, opinions, costs, threshold):
    """The stacked greedy as one elementwise step per member position: (payments, critical)."""
    count, m = pi.shape
    payments = np.zeros((count, m))
    critical = np.full(count, -1)
    need = np.flatnonzero(~(consensus_stack(pi, opinions) >= threshold))
    if not need.size:
        return payments, critical
    order = np.array([_influence_order(pi[r], costs[r]) for r in need.tolist()], dtype=np.intp)
    rows = np.arange(need.size)
    p, x, c = (a[need[:, None], order] for a in (pi, opinions, costs))
    paid = np.zeros(need.size)
    rest = consensus_stack(p, x)
    crit = np.full(need.size, m - 1)
    crit_paid, crit_rest = np.empty(need.size), np.empty(need.size)
    searching = np.ones(need.size, dtype=bool)
    for pos in range(m):
        before_paid, before_rest = paid, rest
        paid = paid + p[:, pos]
        rest = rest - p[:, pos] * x[:, pos]
        hit = searching & (paid + rest >= threshold)
        crit[hit] = pos
        crit_paid[hit], crit_rest[hit] = before_paid[hit], before_rest[hit]
        searching &= ~hit
    crit_paid[searching] = paid[searching] - p[searching, -1]
    crit_rest[searching] = rest[searching] + p[searching, -1] * x[searching, -1]
    cap = c * (1.0 - x)
    paid_sorted = np.where(np.arange(m) < crit[:, None], cap, 0.0)
    top_up = (c[rows, crit] / p[rows, crit]) * (threshold - crit_paid - crit_rest)
    top_up = np.where(0.0 > top_up, 0.0, top_up)
    paid_sorted[rows, crit] = np.where(cap[rows, crit] < top_up, cap[rows, crit], top_up)
    payments[need[:, None], order] = paid_sorted
    critical[need] = order[rows, crit]
    return payments, critical


def test_running_sums_match_the_stepwise_walk():
    # the running sums add and subtract in the walk's own order, so every bit agrees
    rng = np.random.default_rng(137)
    cases = [(stack(rng, 30, m), t) for m in (1, 2, 3, 5, 8, 13, 40)
             for stack in (tie_heavy_stack, random_stack)
             for t in (0.25, 0.5, 0.75, 0.9, 1.0, float(rng.uniform(0.05, 1.0)))]
    cases += [(random_stack(rng, 1, 2000), t) for t in (0.3, 0.6, 0.95, 1.0)]  # one 2,000-member class
    for (pi, opinions, costs), threshold in cases:
        payments, critical = min_budget_stack(pi, opinions, costs, threshold)
        ref_payments, ref_critical = reference_stack_walk(pi, opinions, costs, threshold)
        assert np.array_equal(payments, ref_payments)
        assert np.array_equal(critical, ref_critical)


def near_tie_stack(rng, count, m):
    """Rows whose pi/c ratios lie 0-8 ulp apart, so rounded cross-products may tie."""
    ratio = rng.uniform(0.01, 2.0, (count, 1)) * (1.0 + np.finfo(float).eps * rng.integers(0, 9, (count, m)))
    costs = rng.uniform(0.5, 10.0, (count, m))
    return ratio * costs, costs


def adversarial_stack(rng, count, m):
    """Rows of every kind the array sort must hand to the comparator, among plain ones.

    Exact ties, proportional pairs (pi and c both scaled by k), ratios a few
    ulp apart, subnormal and huge magnitudes, tiny negative pi (the
    stationary solve allows -1e-12), and plain random rows.
    """
    kind = np.arange(count) % 6
    pi, costs = random_stack(rng, count, m)[::2]
    ties = tie_heavy_stack(rng, count, m)
    pi[kind == 0], costs[kind == 0] = ties[0][kind == 0], ties[2][kind == 0]
    rows = np.flatnonzero(kind == 1)
    source = rng.integers(0, m, (rows.size, m))
    k = rng.choice([1.0, 0.1, 3.0, 7.3, 1e-3], (rows.size, m))
    pi[rows] = k * np.take_along_axis(pi[rows], source, axis=1)
    costs[rows] = k * np.take_along_axis(costs[rows], source, axis=1)
    pi[kind == 2], costs[kind == 2] = near_tie_stack(rng, int((kind == 2).sum()), m)
    rows = np.flatnonzero(kind == 3)
    pi[rows] *= rng.choice([1e-310, 1e-300, 1.0, 1e300], (rows.size, 1))
    costs[rows] *= rng.choice([1e-300, 1.0, 1e10, 1e300], (rows.size, 1))
    rows = np.flatnonzero(kind == 4)
    pi[rows, rng.integers(0, m, rows.size)] = -1e-12
    return pi, costs


def test_greedy_order_is_the_comparator_order(monkeypatch):
    calls = []

    def counted(pi, costs):
        calls.append(len(pi))
        return _influence_order(pi, costs)

    monkeypatch.setattr(class_budget, "_influence_order", counted)
    rng = np.random.default_rng(139)
    rows = 0
    for m in (1, 2, 3, 4, 6, 9, 16, 40):
        pi, costs = adversarial_stack(rng, 120, m)
        with np.errstate(over="ignore"):  # the comparator's products of huge rows overflow
            order = _greedy_order(pi, costs)
            for r in range(len(pi)):
                assert order[r].tolist() == _influence_order(pi[r], costs[r]), (m, r)
        rows += len(pi)
    assert 0 < len(calls) < rows  # the comparator settles some rows, the array sort the rest


def test_greedy_order_needs_its_gap(monkeypatch):
    # with no margin, a ratio order a few ulp apart can disagree with the
    # rounded cross-products, and the comparator's index tie-break
    monkeypatch.setattr(class_budget, "_RATIO_GAP", 0.0)
    rng = np.random.default_rng(149)
    pi, costs = near_tie_stack(rng, 400, 5)
    order = _greedy_order(pi, costs)
    assert any(order[r].tolist() != _influence_order(pi[r], costs[r]) for r in range(len(pi)))


def test_near_tie_pricing_matches_the_stepwise_walk():
    rng = np.random.default_rng(151)
    for m in (1, 2, 3, 5, 8, 13):
        pi, costs = adversarial_stack(rng, 60, m)
        keep = np.flatnonzero(np.arange(60) % 6 != 3)  # magnitudes whose top-ups overflow
        pi, costs = pi[keep], costs[keep]
        opinions = rng.uniform(0.0, 1.0, pi.shape)
        for threshold in (0.25, 0.5, 0.9, 1.0):
            payments, critical = min_budget_stack(pi, opinions, costs, threshold)
            ref_payments, ref_critical = reference_stack_walk(pi, opinions, costs, threshold)
            assert payments.tobytes() == ref_payments.tobytes()
            assert np.array_equal(critical, ref_critical)
