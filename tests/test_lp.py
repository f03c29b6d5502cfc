"""Bounded-variable simplex against a vertex-enumeration oracle; warm starts against cold solves."""

import collections
import itertools

import numpy as np
import pytest

import opinionbudget.lp as lp_module
from opinionbudget.chain_analysis import analyze
from opinionbudget.decompose import decompose
from opinionbudget.lp import LinearProgram, NumericalFailure, solve_lp
from opinionbudget.milp import build_milp, _node_program, _units
from opinionbudget.model import confidence_matrix, validate

from conftest import random_raw, tiled_paper


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


def _dive_programs(seed):
    """(MilpInstance, units, objective, min_count) from random instances and the tiled example.

    Both objectives of the branch and bound: the supporter count, and the
    spend under a minimum supporter-count row."""
    rng = np.random.default_rng(seed)
    instances = [validate(random_raw(rng, n_min=6, n_max=16)) for _ in range(12)]
    instances.append(tiled_paper(2))
    out = []
    for inst in instances:
        cm = confidence_matrix(inst)
        an = analyze(cm, decompose(cm), inst.true_opinions)
        # a tight budget, so that fixings make nodes infeasible
        budget = rng.uniform(0.05, 0.4) * build_milp(inst, an).caps.sum()
        mi = build_milp(inst, an, budget=float(budget))
        if mi.degenerate:
            continue
        units = _units(an.decomposition)
        q, sizes = len(mi.pay_agents), np.array([len(u) for u in units], dtype=float)
        out.append((mi, units, np.concatenate([np.zeros(q), sizes]), None))
        out.append((mi, units, np.concatenate([-np.ones(q), np.zeros(len(units))]),
                    int(sizes.sum() // 3)))
    return out


def test_warm_start_matches_cold_under_random_fixings():
    rng = np.random.default_rng(131)
    statuses = collections.Counter()
    for mi, units, objective, min_count in _dive_programs(137):
        k = len(units)
        for _ in range(4):
            zlo, zup = np.zeros(k), np.ones(k)
            parent = solve_lp(_node_program(mi, units, zlo, zup, objective, min_count))
            for var in rng.permutation(k):
                if parent.status != "optimal" or parent.basis is None:
                    break
                if rng.integers(2):
                    zlo = zlo.copy()
                    zlo[var] = 1.0
                else:
                    zup = zup.copy()
                    zup[var] = 0.0
                lp = _node_program(mi, units, zlo, zup, objective, min_count)
                warm, cold = solve_lp(lp, parent.basis), solve_lp(lp)
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert abs(warm.objective - cold.objective) <= 1e-9
                statuses[warm.status] += 1
                parent = warm
    assert statuses["optimal"] >= 300 and statuses["infeasible"] >= 30


@pytest.fixture
def infeasible_child(paper_instance, paper_analysis):
    """A paper-example node at budget 99 with every unit fixed a supporter,
    and the optimal basis of its root relaxation."""
    mi = build_milp(paper_instance, paper_analysis, budget=99.0)
    units = _units(paper_analysis.decomposition)
    k = len(units)
    objective = np.concatenate([np.zeros(len(mi.pay_agents)), [len(u) for u in units]])
    root = solve_lp(_node_program(mi, units, np.zeros(k), np.ones(k), objective))
    return _node_program(mi, units, np.ones(k), np.ones(k), objective), root.basis


def test_warm_infeasible_verdict_is_farkas_checked(monkeypatch, infeasible_child):
    child, start = infeasible_child
    cold = solve_lp(child)
    assert cold.status == "infeasible"
    colds = []
    install = lp_module._Simplex._install_start_basis
    monkeypatch.setattr(lp_module._Simplex, "_install_start_basis",
                        lambda self: colds.append(1) or install(self))
    warm = solve_lp(child, start)
    assert warm.status == "infeasible" and not colds  # proven on the warm path

    # an unproven verdict falls back to the cold solve
    monkeypatch.setattr(lp_module._Simplex, "farkas", lambda self, rho, row: False)
    fallback = solve_lp(child, start)
    assert colds == [1]
    assert fallback.status == "infeasible"
    assert fallback.pivots > cold.pivots  # the abandoned warm pivots are counted


def test_warm_numerical_failure_falls_back_to_cold(monkeypatch, infeasible_child):
    child, start = infeasible_child
    # free the indicators again so the program is feasible
    lp = LinearProgram(child.objective, child.rows, child.senses, child.rhs,
                       np.zeros(len(child.lower)), child.upper)
    cold = solve_lp(lp)

    def fail(self, c, start):
        raise NumericalFailure(f"pivot limit {lp_module.PIVOT_LIMIT} exceeded")

    monkeypatch.setattr(lp_module._Simplex, "dual", fail)
    res = solve_lp(lp, start)
    assert res.status == cold.status == "optimal"
    assert np.array_equal(res.x, cold.x)
    assert res.objective == cold.objective


def test_unproven_infeasibility_goes_cold():
    # 1000 x1 + 1e-7 x2 = 1000: once x1 <= 0.5, only a huge x2 restores the
    # row, through a dual pivot below PIVOT_TOL; the Farkas row cannot rule
    # that out (x2 is unbounded), so the cold solve must answer
    rows = np.array([[1000.0, 1e-7]])
    parent = solve_lp(LinearProgram(np.array([0.0, -1.0]), rows, ("=",), np.array([1000.0]),
                                    np.zeros(2), np.array([2.0, np.inf])))
    child = LinearProgram(np.array([0.0, -1.0]), rows, ("=",), np.array([1000.0]),
                          np.zeros(2), np.array([0.5, np.inf]))
    warm, cold = solve_lp(child, parent.basis), solve_lp(child)
    assert cold.status == warm.status == "optimal"
    assert warm.objective == cold.objective == pytest.approx(-5e9)


def test_warm_start_after_any_bound_change_matches_cold():
    # tightened, loosened and unbounded bounds: the primal clean-up must
    # repair a start that is no longer dual feasible
    rng = np.random.default_rng(149)
    checked = 0
    for _ in range(150):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        lower = rng.uniform(-3, 0, n)
        upper = lower + rng.uniform(0.5, 4, n)
        rows = rng.normal(size=(m, n))
        rhs = rows @ rng.uniform(lower, upper) + rng.uniform(0, 1, m)
        objective = rng.normal(size=n)
        parent = solve_lp(LinearProgram(objective, rows, ("<=",) * m, rhs, lower, upper))
        if parent.basis is None:
            continue
        for _ in range(3):
            lo, up = lower.copy(), upper.copy()
            j = int(rng.integers(n))
            lo[j], up[j] = np.sort(rng.uniform(-4, 4, 2))
            if rng.integers(3) == 0:
                up[j] = np.inf
            lp = LinearProgram(objective, rows, ("<=",) * m, rhs, lo, up)
            warm, cold = solve_lp(lp, parent.basis), solve_lp(lp)
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            checked += 1
    assert checked >= 300
