"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``pytest -s``
to see them while the suite runs).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from opinionbudget.chain_analysis import analyze, iterate_dynamics, stationary_distribution
from opinionbudget.class_budget import min_budget_for_class
from opinionbudget.decompose import decompose, submatrix
from opinionbudget.knapsack import KnapsackItem, knapsack_exact, knapsack_fptas
from opinionbudget.milp import brute_force_oracle, budget_sweep, build_milp, solve_milp
from opinionbudget.model import confidence_matrix

from conftest import dense, full_hitting, random_class, random_instance
from test_class_budget import lp_min_budget
from test_knapsack import enumerate_best, random_items


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL: {description}")
        raise
    print(f"criterion {number}: PASS: {description}")


SWEEP_BUDGETS = (99.0, 114.0, 117.0, 169.0, 293.0, 309.0)
SWEEP_COUNTS = (4, 5, 6, 7, 8, 12)
SWEEP_SUPPORTERS = (
    ("i", "j", "k", "l"),
    ("h", "i", "j", "k", "l"),
    ("g", "h", "i", "j", "k", "l"),
    ("e", "g", "h", "i", "j", "k", "l"),
    ("e", "f", "g", "h", "i", "j", "k", "l"),
    ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"),
)
SWEEP_PAYMENTS = (
    {"j": 99.0},
    {"j": 114.0},
    {"j": 117.0},
    {"j": 169.0},
    {"a": 113.0, "j": 180.0},
    {"a": 210.0, "j": 99.0},
)


def test_criterion_1_decomposition(paper_instance, paper_matrix):
    with criterion(1, "exact transient/ergodic partition of the 12-agent instance in < 1 ms"):
        decompose(paper_matrix)  # warm-up
        start = time.perf_counter()
        d = decompose(paper_matrix)
        elapsed = time.perf_counter() - start
        names = lambda idx: [paper_instance.agents[i] for i in idx]
        assert names(d.transient) == ["d", "e", "f", "g", "h"]
        assert [names(c) for c in d.classes] == [["a", "b", "c"], ["i", "j", "k", "l"]]
        assert elapsed < 1e-3, f"decomposition took {elapsed * 1e3:.3f} ms"


def test_criterion_2_stationary_distributions(paper_matrix, paper_decomposition):
    with criterion(2, "stationary vectors (20,15,12)/47 and (5,20,10,4)/39 within 1e-9"):
        pi1 = stationary_distribution(submatrix(paper_matrix, paper_decomposition, 0))
        pi2 = stationary_distribution(submatrix(paper_matrix, paper_decomposition, 1))
        assert np.max(np.abs(pi1 - np.array([20, 15, 12]) / 47)) <= 1e-9
        assert np.max(np.abs(pi2 - np.array([5, 20, 10, 4]) / 39)) <= 1e-9


def test_criterion_3_hitting_probabilities(paper_analysis):
    with criterion(3, "hitting vectors to both classes within 1e-9, complementary"):
        h1, h2 = full_hitting(paper_analysis.decomposition, paper_analysis.hitting)
        expected = np.array([1, 1, 1, 17 / 18, 2 / 3, 5 / 6, 1 / 3, 7 / 24, 0, 0, 0, 0])
        assert np.max(np.abs(h1 - expected)) <= 1e-9
        assert np.max(np.abs(h2 - (1.0 - expected))) <= 1e-9


def test_criterion_4_optimal_payments_table(paper_instance):
    with criterion(4, "payments table at budgets 99..309: counts, sets, payments to $0.01, < 5 s"):
        start = time.perf_counter()
        curve = budget_sweep(paper_instance, SWEEP_BUDGETS)
        elapsed = time.perf_counter() - start
        for sol, count, supporters, payments in zip(
            curve.solutions, SWEEP_COUNTS, SWEEP_SUPPORTERS, SWEEP_PAYMENTS
        ):
            assert sol.supporter_count == count
            assert sol.plan.supporters == supporters
            assert sol.optimality == "proven"
            for i, agent in enumerate(paper_instance.agents):
                expected = payments.get(agent, 0.0)
                assert abs(sol.plan.payments[i] - expected) <= 0.01, (
                    f"budget {sol.plan.total_spend}: payment of {agent}"
                )
        assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"


def test_criterion_5_dynamics_oracle():
    with criterion(5, "closed-form limits match power iteration within 1e-7 on 200 instances"):
        rng = np.random.default_rng(2024_05)
        worst = 0.0
        for _ in range(200):
            inst = random_instance(rng, n_max=12)
            cm = confidence_matrix(inst)
            an = analyze(cm, decompose(cm), inst.true_opinions)
            x, _ = iterate_dynamics(cm, inst.true_opinions, max_steps=100_000, tol=1e-12)
            worst = max(worst, float(np.max(np.abs(x - an.asymptotic))))
        assert worst <= 1e-7, f"worst gap {worst:.3e}"


def test_criterion_6_greedy_class_budget_optimality():
    with criterion(6, "greedy class pricing matches brute force within 1e-6 on 100 classes"):
        rng = np.random.default_rng(2024_06)
        for _ in range(100):
            e, opinions, costs = random_class(rng, n_max=6)
            pi = stationary_distribution(e)
            threshold = float(rng.uniform(0.05, 1.0))
            greedy = min_budget_for_class(pi, opinions, costs, threshold)
            reference, _ = lp_min_budget(pi, opinions, costs, threshold)
            assert abs(greedy.total - reference) <= 1e-6
            if greedy.total > 0:
                achieved = float(np.dot(pi, opinions + greedy.payments / costs))
                assert abs(achieved - threshold) <= 1e-9


def test_criterion_7_knapsack():
    with criterion(7, "exact DP equals enumeration (<= 16 items); FPTAS within (1 - eps)"):
        rng = np.random.default_rng(2024_07)
        for size in list(range(1, 17)) + [12] * 14:
            items = random_items(rng, size)
            budget = float(rng.uniform(0, sum(it.weight for it in items)))
            value, weight, sel = enumerate_best(items, budget)
            sol = knapsack_exact(items, budget)
            assert sol.total_value == value
            assert abs(sol.total_weight - weight) <= 1e-9
            assert tuple(sorted(sol.selected)) == sel
        for _ in range(100):
            items = random_items(rng, 50)
            budget = float(rng.uniform(0, sum(it.weight for it in items)))
            exact = knapsack_exact(items, budget).total_value
            for eps in (0.5, 0.1, 0.01):
                approx = knapsack_fptas(items, budget, eps)
                assert approx.total_value >= math.ceil((1 - eps) * exact)
                assert approx.total_weight <= budget + 1e-9


def test_criterion_8_milp_vs_oracle():
    with criterion(8, "branch-and-bound equals enumeration oracle on 100 instances, < 2 s each"):
        rng = np.random.default_rng(2024_08)
        for trial in range(100):
            inst = random_instance(rng, n_max=10)
            cm = confidence_matrix(inst)
            an = analyze(cm, decompose(cm), inst.true_opinions)
            start = time.perf_counter()
            sol = solve_milp(build_milp(inst, an))
            elapsed = time.perf_counter() - start
            ref = brute_force_oracle(inst, an)
            assert sol.supporter_count == ref.supporter_count, f"trial {trial}"
            assert sol.optimality == "proven"
            assert elapsed < 2.0, f"trial {trial} took {elapsed:.2f} s"


def test_criterion_9_limit_matrix_identity():
    with criterion(9, "A^10000 columns equal hitting x stationary within 1e-8 on 50 instances"):
        rng = np.random.default_rng(2024_09)
        worst = 0.0
        for _ in range(50):
            inst = random_instance(rng, n_max=12)
            cm = confidence_matrix(inst)
            d = decompose(cm)
            an = analyze(cm, d, inst.true_opinions)
            a_inf = np.linalg.matrix_power(dense(cm), 10_000)
            for k, members in enumerate(d.classes):
                for j in members:
                    expected = full_hitting(d, an.hitting)[k] * an.pi[j]
                    worst = max(worst, float(np.max(np.abs(a_inf[:, j] - expected))))
        assert worst <= 1e-8, f"worst entry gap {worst:.3e}"


def test_criterion_10_budget_monotonicity():
    with criterion(10, "supporter counts nondecreasing in the budget on 100 random pairs"):
        rng = np.random.default_rng(2024_10)
        for _ in range(100):
            inst = random_instance(rng, n_max=9)
            cm = confidence_matrix(inst)
            an = analyze(cm, decompose(cm), inst.true_opinions)
            caps = float(np.sum(inst.costs * (1 - inst.true_opinions)))
            b1, b2 = sorted(rng.uniform(0, caps, size=2))
            low = solve_milp(build_milp(inst, an, budget=float(b1)))
            high = solve_milp(build_milp(inst, an, budget=float(b2)))
            assert low.supporter_count <= high.supporter_count
