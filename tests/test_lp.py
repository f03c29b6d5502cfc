"""Bounded-variable simplex against a basic-solution enumeration oracle."""

import itertools

import numpy as np
import pytest

from opinionbudget.lp import LinearProgram, NumericalFailure, solve_lp
from opinionbudget.milp import build_milp, _node_program, _units


def vertex_oracle(lp):
    """Enumerate basic feasible points: n active constraints among rows and bounds."""
    n = len(lp.objective)
    cons = [(lp.rows[r], lp.rhs[r]) for r in range(len(lp.senses))]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lower[j]):
            cons.append((e, lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            cons.append((e, lp.upper[j]))
    best = None
    for combo in itertools.combinations(range(len(cons)), n):
        mat = np.array([cons[i][0] for i in combo])
        rhs = np.array([cons[i][1] for i in combo])
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if (x < lp.lower - 1e-8).any() or (x > lp.upper + 1e-8).any():
            continue
        lhs = lp.rows @ x
        feasible = True
        for r, sense in enumerate(lp.senses):
            err = lhs[r] - lp.rhs[r]
            if (sense == "<=" and err > 1e-8) or (sense == ">=" and err < -1e-8) \
                    or (sense == "=" and abs(err) > 1e-8):
                feasible = False
                break
        if feasible:
            value = float(lp.objective @ x)
            if best is None or value > best:
                best = value
    return best


def test_trivial_box_program():
    lp = LinearProgram(
        np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), ("<=",),
        np.array([1.0]), np.zeros(2), np.ones(2),
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert abs(res.objective - 1.0) <= 1e-9


def test_infeasible_box():
    lp = LinearProgram(
        np.array([1.0]), np.array([[1.0]]), (">=",),
        np.array([2.0]), np.array([0.0]), np.array([1.0]),
    )
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(
        np.array([1.0]), np.zeros((0, 1)), (),
        np.array([]), np.array([0.0]), np.array([np.inf]),
    )
    assert solve_lp(lp).status == "unbounded"


def test_equality_and_free_variables():
    lp = LinearProgram(
        np.array([1.0, 1.0]),
        np.array([[1.0, 2.0], [1.0, -1.0]]), ("=", ">="),
        np.array([4.0, -1.0]),
        np.array([-5.0, -np.inf]), np.array([3.0, 5.0]),
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert abs(res.objective - 3.5) <= 1e-7


def test_matches_enumeration_on_random_programs():
    rng = np.random.default_rng(97)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        lower = rng.uniform(-3, 0, n)
        upper = lower + rng.uniform(0.5, 4, n)
        interior = rng.uniform(lower, upper)
        rows = rng.normal(size=(m, n))
        senses = []
        rhs = np.empty(m)
        for r in range(m):
            kind = int(rng.integers(0, 3))
            anchor = float(rows[r] @ interior)
            if kind == 0:
                senses.append("<=")
                rhs[r] = anchor + rng.uniform(0, 2)
            elif kind == 1:
                senses.append(">=")
                rhs[r] = anchor - rng.uniform(0, 2)
            else:
                senses.append("=")
                rhs[r] = anchor
        lp = LinearProgram(rng.normal(size=n), rows, tuple(senses), rhs, lower, upper)
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert abs(res.objective - vertex_oracle(lp)) <= 1e-6
        # feasibility of the reported point
        assert (res.x >= lower - 1e-9).all() and (res.x <= upper + 1e-9).all()


def test_deterministic_resolves():
    rng = np.random.default_rng(101)
    n, m = 6, 4
    lower = np.full(n, -1.0)
    upper = np.full(n, 2.0)
    rows = rng.normal(size=(m, n))
    rhs = rows @ rng.uniform(lower, upper)
    lp = LinearProgram(rng.normal(size=n), rows, ("<=", ">=", "<=", "="), rhs, lower, upper)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.status == second.status == "optimal"
    assert np.array_equal(first.x, second.x)
    assert first.objective == second.objective


def test_paper_relaxation_attains_trivial_bound(paper_instance, paper_analysis):
    # relaxing the supporter indicators at budget 309 still cannot beat n,
    # and the integer optimum attains it, so the relaxation value is 12
    mi = build_milp(paper_instance, paper_analysis, budget=309.0)
    q = len(mi.pay_agents)
    units = _units(paper_analysis.decomposition)
    sizes = np.array([len(u) for u in units], dtype=float)
    objective = np.concatenate([np.zeros(q), sizes])
    lp = _node_program(mi, units, np.zeros(len(units)), np.ones(len(units)), objective)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert abs(res.objective - 12.0) <= 1e-7


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), np.ones((1, 3)), ("<=",), np.ones(1), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), np.ones((1, 2)), ("<",), np.ones(1), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        LinearProgram(np.ones(1), np.ones((1, 1)), ("<=",), np.ones(1), np.ones(1), np.zeros(1))
