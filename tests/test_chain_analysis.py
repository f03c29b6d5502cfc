"""Stationary vectors, hitting probabilities, consensi, and the dynamics oracle."""

import numpy as np
import pytest

from opinionbudget.chain_analysis import (
    NonConvergence,
    SingularSystem,
    analyze,
    asymptotic_opinions,
    consensus_opinion,
    consensus_stack,
    evaluate_plan,
    hitting_probabilities,
    iterate_dynamics,
    stationary_distribution,
)
from opinionbudget.decompose import Decomposition, decompose, submatrix
from opinionbudget.model import ConfidenceMatrix, confidence_matrix

from conftest import random_class, random_instance

PI_1 = np.array([20, 15, 12]) / 47
PI_2 = np.array([5, 20, 10, 4]) / 39
H_1 = np.array([1, 1, 1, 17 / 18, 2 / 3, 5 / 6, 1 / 3, 7 / 24, 0, 0, 0, 0])


def test_stationary_paper_classes(paper_matrix, paper_decomposition):
    pi1 = stationary_distribution(submatrix(paper_matrix, paper_decomposition, 0))
    pi2 = stationary_distribution(submatrix(paper_matrix, paper_decomposition, 1))
    assert np.max(np.abs(pi1 - PI_1)) <= 1e-9
    assert np.max(np.abs(pi2 - PI_2)) <= 1e-9


def test_stationary_singleton():
    assert np.array_equal(stationary_distribution(np.array([[1.0]])), [1.0])


def test_stationary_residual_random_classes():
    rng = np.random.default_rng(41)
    for _ in range(50):
        e, _, _ = random_class(rng)
        pi = stationary_distribution(e)
        assert np.max(np.abs(pi @ e - pi)) <= 1e-10
        assert abs(pi.sum() - 1.0) <= 1e-9
        assert (pi >= 0).all()


def test_stationary_rejects_reducible_block():
    # two disconnected absorbing blocks: eigenvalue 1 has multiplicity 2
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularSystem):
        stationary_distribution(e)


def test_hitting_paper_values(paper_matrix, paper_decomposition):
    h1 = hitting_probabilities(paper_matrix, paper_decomposition)[0]
    h2 = hitting_probabilities(paper_matrix, paper_decomposition)[1]
    assert np.max(np.abs(h1 - H_1)) <= 1e-9
    assert np.max(np.abs(h2 - (1.0 - H_1))) <= 1e-9


def test_hitting_no_transients_is_indicator():
    a = np.eye(3)
    d = decompose(ConfidenceMatrix(a))
    h = hitting_probabilities(ConfidenceMatrix(a), d)[1]
    assert np.array_equal(h, [0.0, 1.0, 0.0])


def test_hitting_rows_sum_to_one():
    rng = np.random.default_rng(43)
    for _ in range(40):
        inst = random_instance(rng)
        cm = confidence_matrix(inst)
        d = decompose(cm)
        total = sum(hitting_probabilities(cm, d)[k] for k in range(len(d.classes)))
        assert np.max(np.abs(total - 1.0)) <= 1e-9


def test_consensus_paper_zero_payments(paper_analysis):
    assert abs(paper_analysis.consensus[0] - 19.3 / 47) <= 1e-12
    assert abs(paper_analysis.consensus[1] - 9.6 / 39) <= 1e-12


def test_consensus_uniform_opinions_is_fixed_point():
    rng = np.random.default_rng(47)
    for _ in range(20):
        e, _, _ = random_class(rng)
        pi = stationary_distribution(e)
        v = float(rng.uniform(0, 1))
        assert abs(consensus_opinion(pi, np.full(len(pi), v)) - v) <= 1e-12


def test_asymptotic_paper_agent_h(paper_analysis):
    # mixture of the two consensi through agent h's hitting probabilities
    expected = (7 / 24) * (19.3 / 47) + (17 / 24) * (9.6 / 39)
    assert abs(paper_analysis.asymptotic[7] - expected) <= 1e-12


def test_asymptotic_constant_opinions(paper_analysis, paper_instance):
    x = asymptotic_opinions(paper_analysis, np.full(12, 0.42))
    assert np.max(np.abs(x - 0.42)) <= 1e-12


def test_payment_to_j_tips_agent_h(paper_instance, paper_analysis):
    # paying 114 dollars moves j's opinion by 0.57 and lifts h just past 1/2
    payments = np.zeros(12)
    payments[9] = 114.0
    expressed = paper_instance.true_opinions + payments / paper_instance.costs
    x = asymptotic_opinions(paper_analysis, expressed)
    assert x[7] >= 0.5
    assert abs(x[7] - 0.5011798) <= 1e-6
    plan = evaluate_plan(paper_instance, paper_analysis, payments, budget=114)
    assert plan.supporters == ("h", "i", "j", "k", "l")


def test_iterate_matches_closed_form_on_paper(paper_matrix, paper_instance, paper_analysis):
    x, steps = iterate_dynamics(paper_matrix, paper_instance.true_opinions, tol=1e-12)
    assert np.max(np.abs(x - paper_analysis.asymptotic)) <= 1e-8
    assert steps < 10_000


def test_iterate_constant_vector_converges_in_one_step(paper_matrix):
    x, steps = iterate_dynamics(paper_matrix, np.full(12, 0.3))
    assert steps == 1
    assert np.max(np.abs(x - 0.3)) <= 1e-12


def test_iterate_nonconvergence(paper_matrix, paper_instance):
    with pytest.raises(NonConvergence):
        iterate_dynamics(paper_matrix, paper_instance.true_opinions, max_steps=3, tol=1e-12)


def test_iterate_rejects_bad_tol(paper_matrix, paper_instance):
    with pytest.raises(ValueError):
        iterate_dynamics(paper_matrix, paper_instance.true_opinions, tol=0.0)


def test_limit_matrix_identity_paper(paper_matrix, paper_analysis):
    # columns of A^l converge to h_i^(k) pi_j^(k) for j recurrent
    a_inf = np.linalg.matrix_power(paper_matrix.matrix, 10_000)
    d = paper_analysis.decomposition
    for k, members in enumerate(d.classes):
        for pos, j in enumerate(members):
            expected = paper_analysis.hitting[k] * paper_analysis.pi[k][pos]
            assert np.max(np.abs(a_inf[:, j] - expected)) <= 1e-8
    # transient columns vanish
    for t in d.transient:
        assert np.max(np.abs(a_inf[:, t])) <= 1e-8


def test_oracle_equivalence_random():
    rng = np.random.default_rng(53)
    for _ in range(40):
        inst = random_instance(rng)
        cm = confidence_matrix(inst)
        an = analyze(cm, decompose(cm), inst.true_opinions)
        x, _ = iterate_dynamics(cm, inst.true_opinions, tol=1e-12)
        assert np.max(np.abs(x - an.asymptotic)) <= 1e-7


def test_monotone_in_recurrent_opinions():
    rng = np.random.default_rng(59)
    for _ in range(25):
        inst = random_instance(rng)
        cm = confidence_matrix(inst)
        d = decompose(cm)
        an = analyze(cm, d, inst.true_opinions)
        recurrent = [i for members in d.classes for i in members]
        j = int(rng.choice(recurrent))
        bumped = inst.true_opinions.copy()
        bumped[j] = min(1.0, bumped[j] + float(rng.uniform(0, 1 - bumped[j] + 1e-12)))
        x0 = asymptotic_opinions(an, inst.true_opinions)
        x1 = asymptotic_opinions(an, bumped)
        assert (x1 - x0 >= -1e-12).all()


def test_evaluate_plan_rejects_overspend(paper_instance, paper_analysis):
    payments = np.zeros(12)
    payments[9] = 500.0
    with pytest.raises(ValueError):
        evaluate_plan(paper_instance, paper_analysis, payments, budget=100.0)


def test_evaluate_plan_rejects_opinion_above_one(paper_instance, paper_analysis):
    payments = np.zeros(12)
    payments[9] = 300.0  # cap for j is 180
    with pytest.raises(ValueError):
        evaluate_plan(paper_instance, paper_analysis, payments, budget=1000.0)


def _per_class_hitting(cm, d, k):
    """Reference: one linear solve per class, as the hitting vectors were first computed."""
    a = cm.matrix
    h = np.zeros(cm.n)
    members = np.asarray(d.classes[k])
    h[members] = 1.0
    if d.transient:
        t = np.asarray(d.transient)
        h[t] = np.linalg.solve(np.eye(len(t)) - a[np.ix_(t, t)], a[np.ix_(t, members)].sum(axis=1))
    return h


def test_hitting_matrix_matches_per_class_solves():
    rng = np.random.default_rng(61)
    sizes = [(4, 16)] * 30 + [(16, 60)] * 10 + [(300, 400)] * 3
    for n_min, n_max in sizes:
        inst = random_instance(rng, n_min=n_min, n_max=n_max)
        cm = confidence_matrix(inst)
        d = decompose(cm)
        h = hitting_probabilities(cm, d)
        assert h.shape == (len(d.classes), inst.n)
        assert not h.flags.writeable
        for k in range(len(d.classes)):
            assert np.max(np.abs(h[k] - _per_class_hitting(cm, d, k))) <= 1e-12
            # recurrent columns are exact class indicators
            for i, klass in enumerate(d.class_of):
                if klass is not None:
                    assert h[k, i] == (1.0 if klass == k else 0.0)


def test_analyze_solves_the_transient_system_once(monkeypatch):
    rng = np.random.default_rng(67)
    solves = []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(np.shape(b))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    checked = 0
    while checked < 5:
        inst = random_instance(rng, n_min=20, n_max=40)
        cm = confidence_matrix(inst)
        d = decompose(cm)
        if not d.transient or len(d.classes) < 3:
            continue
        solves.clear()
        analyze(cm, d, inst.true_opinions)
        # one stationary solve per class size, one hitting solve for all classes
        sizes = set(d.sizes)
        assert len(solves) == len(sizes) + 1
        assert solves.count((d.n_transient, len(d.classes))) == 1
        assert sorted(shape for shape in solves if len(shape) == 3) == sorted(
            (d.sizes.count(m), m, 1) for m in sizes
        )
        checked += 1


def block_chain(rng, transients):
    """Matrix of disjoint irreducible classes of 1-40 agents, some sizes
    repeated, plus ``transients`` agents that feed into them; agents are
    shuffled so class members are not contiguous."""
    sizes = [int(m) for m in rng.integers(1, 41, int(rng.integers(2, 7)))]
    sizes += [sizes[0]] * int(rng.integers(1, 4)) + [1, 1]
    n_rec = sum(sizes)
    n = n_rec + transients
    a = np.zeros((n, n))
    start = 0
    for m in sizes:
        block = rng.uniform(0.1, 1.0, (m, m)) * (rng.random((m, m)) < 0.3)
        block[np.arange(m), np.arange(m)] = rng.uniform(0.1, 1.0, m)
        block[np.arange(m), (np.arange(m) + 1) % m] += rng.uniform(0.1, 1.0, m)  # a cycle
        a[start:start + m, start:start + m] = block
        start += m
    for t in range(n_rec, n):
        a[t, t] = rng.uniform(0.1, 1.0)
        a[t, int(rng.integers(0, n_rec))] = rng.uniform(0.1, 1.0)
        a[t, rng.integers(n_rec, n, 2)] += rng.uniform(0.1, 1.0, 2)
    a /= a.sum(axis=1, keepdims=True)
    perm = rng.permutation(n)
    return ConfidenceMatrix(a[np.ix_(perm, perm)].copy()), sorted(sizes)


def test_batched_stationary_matches_single_solves_bitwise():
    rng = np.random.default_rng(109)
    for trial in range(24):
        cm, sizes = block_chain(rng, transients=0 if trial % 2 else int(rng.integers(1, 30)))
        d = decompose(cm)
        assert sorted(d.sizes) == sizes
        an = analyze(cm, d, rng.uniform(0.0, 1.0, cm.n))
        for k in range(len(d.classes)):
            single = stationary_distribution(submatrix(cm, d, k))
            assert an.pi[k].tobytes() == single.tobytes()


def test_analyze_rejects_a_class_that_is_not_closed():
    # {0, 1} and {4} are closed; {2, 3} leaks into 4 but is declared a class
    a = np.array([
        [0.5, 0.5, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.4, 0.3, 0.3],
        [0.0, 0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    cm = ConfidenceMatrix(a)
    d = Decomposition((), ((0, 1), (2, 3), (4,)), (0, 0, 1, 1, 2))
    with pytest.raises(ValueError, match="class 1 is not closed"):
        analyze(cm, d, np.zeros(5))


def test_batched_consensi_and_limits_match_per_class_products_bitwise():
    rng = np.random.default_rng(113)
    for trial in range(24):
        cm, _ = block_chain(rng, transients=0 if trial % 2 else int(rng.integers(1, 30)))
        d = decompose(cm)
        an = analyze(cm, d, rng.uniform(0.0, 1.0, cm.n))
        for x in (rng.uniform(0.0, 1.0, cm.n), rng.choice([0.0, 0.5, 1.0], cm.n)):
            cons = [float(np.dot(an.pi[k], x[np.asarray(m)])) for k, m in enumerate(d.classes)]
            limits = asymptotic_opinions(an, x)
            assert limits.tobytes() == (np.asarray(cons) @ an.hitting).tobytes()
            redone = analyze(cm, d, x)
            assert np.array(redone.consensus).tobytes() == np.array(cons).tobytes()
            assert redone.asymptotic.tobytes() == limits.tobytes()


def test_consensus_stack_matches_a_dot_per_row_bitwise():
    rng = np.random.default_rng(127)
    for m in [*range(1, 33), 47, 64, 100, 129, 200]:
        pi, x = rng.uniform(0.0, 1.0, (2, 30, m))
        stacked = consensus_stack(pi, x)
        assert stacked.tobytes() == np.array([np.dot(p, v) for p, v in zip(pi, x)]).tobytes()
