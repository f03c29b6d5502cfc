"""Bounded-variable simplex against a vertex-enumeration oracle; warm starts against cold solves."""

import collections
import functools
import itertools

import numpy as np
import pytest

import opinionbudget.lp as lp_module
from opinionbudget.chain_analysis import analyze
from opinionbudget.decompose import decompose
from opinionbudget.lp import LinearProgram, NumericalFailure, solve_lp
from opinionbudget.milp import build_milp, _node_program
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
    q, k = len(mi.pay_agents), len(mi.sizes)
    objective = np.concatenate([np.zeros(q), mi.sizes])
    lp = _node_program(mi, np.zeros(k), np.ones(k), objective)
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
    """(MilpInstance, objective, min_count) from random instances and the tiled example.

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
        q = len(mi.pay_agents)
        out.append((mi, np.concatenate([np.zeros(q), mi.sizes]), None))
        out.append((mi, np.concatenate([-np.ones(q), np.zeros(len(mi.sizes))]), int(mi.sizes.sum() // 3)))
    return out


def test_warm_start_matches_cold_under_random_fixings():
    rng = np.random.default_rng(131)
    statuses = collections.Counter()
    for mi, objective, min_count in _dive_programs(137):
        k = len(mi.sizes)
        for _ in range(4):
            zlo, zup = np.zeros(k), np.ones(k)
            parent = solve_lp(_node_program(mi, zlo, zup, objective, min_count))
            for var in rng.permutation(k):
                if parent.status != "optimal" or parent.basis is None:
                    break
                if rng.integers(2):
                    zlo = zlo.copy()
                    zlo[var] = 1.0
                else:
                    zup = zup.copy()
                    zup[var] = 0.0
                lp = _node_program(mi, zlo, zup, objective, min_count)
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
    k = len(mi.sizes)
    objective = np.concatenate([np.zeros(len(mi.pay_agents)), mi.sizes])
    root = solve_lp(_node_program(mi, np.zeros(k), np.ones(k), objective))
    return _node_program(mi, np.ones(k), np.ones(k), objective), root.basis


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


def _inverse_error(basis):
    """``|B^-1 B - I|_inf`` of the inverse a basis carries."""
    columns = basis.data.A[:, basis.basic]
    return np.abs(basis.inverse @ columns - np.eye(len(columns))).max()


def _warm_chains(rng):
    """(program of the bounds it changes, lower, upper) per chain: the node
    programs of ``_dive_programs`` over their indicator bounds, and random
    bounded programs over all their bounds."""
    chains = []
    for mi, objective, min_count in _dive_programs(151)[::2]:
        k = len(mi.sizes)
        chains.append((functools.partial(_node_program, mi, objective=objective, min_count=min_count),
                       np.zeros(k), np.ones(k)))
    for _ in range(12):
        n, m = int(rng.integers(4, 9)), int(rng.integers(2, 7))
        lower = rng.uniform(-3, 0, n)
        upper = lower + rng.uniform(0.5, 4, n)
        rows = rng.normal(size=(m, n))
        rhs = rows @ rng.uniform(lower, upper) + rng.uniform(0, 1, m)
        chains.append((functools.partial(LinearProgram, rng.normal(size=n), rows, ("<=",) * m, rhs),
                       lower, upper))
    return chains


def test_carried_inverse_stays_exact_along_deep_warm_chains():
    # every warm solve starts from the previous optimum, so the inverse is
    # carried through more eta updates than REFACTOR_EVERY before a chain ends
    rng = np.random.default_rng(157)
    deepest, checked, refactored = 0, 0, 0
    for program, lower, upper in _warm_chains(rng):
        lo, up = lower.copy(), upper.copy()
        parent = solve_lp(program(lo, up))
        assert parent.status == "optimal"
        depth = 0
        for _ in range(100):
            j = int(rng.integers(len(lower)))
            a, b = np.sort(rng.uniform(lower[j], upper[j], 2))
            lo[j], up[j] = [(lower[j], upper[j]), (lower[j], lower[j]), (upper[j], upper[j]), (a, b)][
                int(rng.integers(4))]
            lp = program(lo.copy(), up.copy())
            warm, cold = solve_lp(lp, parent.basis), solve_lp(lp)
            assert warm.status == cold.status
            if cold.status != "optimal":
                lo[j], up[j] = lower[j], upper[j]  # undo, so the chain goes on from this parent
                continue
            assert abs(warm.objective - cold.objective) <= 1e-9
            assert warm.basis is not None and _inverse_error(warm.basis) <= 1e-9
            depth += warm.pivots
            deepest = max(deepest, depth)
            refactored += warm.basis.etas < parent.basis.etas + warm.pivots
            parent = warm
            checked += 1
    assert checked >= 1000
    assert deepest > 2 * lp_module.REFACTOR_EVERY and refactored >= 10


def test_still_optimal_start_makes_no_factorization(monkeypatch):
    # a child whose parent optimum stays optimal pivots nowhere and neither
    # factorizes nor solves: its basics come from one product with the carried inverse
    inst = tiled_paper(2)
    cm = confidence_matrix(inst)
    an = analyze(cm, decompose(cm), inst.true_opinions)
    mi = build_milp(inst, an, budget=169.0)
    q, k = len(mi.pay_agents), len(mi.sizes)
    objective = np.concatenate([np.zeros(q), mi.sizes])
    root = solve_lp(_node_program(mi, np.zeros(k), np.ones(k), objective))
    u = next(u for u in range(k) if q + u not in root.basis.basic)
    zlo, zup = np.zeros(k), np.ones(k)
    zlo[u] = zup[u] = root.x[q + u]  # fix a nonbasic unit where the parent leaves it
    child = _node_program(mi, zlo, zup, objective)

    calls = collections.Counter()
    for name in ("inv", "solve", "lstsq", "pinv"):
        def counting(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(lp_module.np.linalg, name, counting)
    warm = solve_lp(child, root.basis)
    assert not calls
    assert warm.status == "optimal" and warm.pivots == 0
    assert warm.basis.data is root.basis.data
    assert np.array_equal(warm.basis.basic, root.basis.basic)
    assert np.array_equal(warm.basis.inverse, root.basis.inverse)

    cold = solve_lp(child)  # a cold solve factorizes once
    assert calls == {"inv": 1}
    assert abs(warm.objective - cold.objective) <= 1e-9


def test_verify_reports_the_first_violated_row():
    lp = LinearProgram(np.zeros(2), np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, -1.0]]),
                       ("<=", ">=", "=", "<="), np.array([1.0, 5.0, 4.0, 0.0]), np.zeros(2), np.full(2, 5.0))
    data = lp_module.Extended.of(lp)
    lp_module._verify(lp, data, np.array([1.0, 4.0 - 1e-8]))  # within FEAS_TOL of every row
    with pytest.raises(NumericalFailure, match=r"^row 1 violated by -1\.000e-06$"):
        lp_module._verify(lp, data, np.array([1.0, 4.0 - 1e-6]))  # rows 1 and 2 fail
    with pytest.raises(NumericalFailure, match=r"^row 2 violated by 1\.000e\+00$"):
        lp_module._verify(lp, data, np.array([0.0, 5.0]))  # an "=" row above its rhs
    with pytest.raises(NumericalFailure, match=r"^row 0 violated by"):
        lp_module._verify(lp, data, np.array([2.0, 2.0]))
    with pytest.raises(NumericalFailure, match="variable bounds"):
        lp_module._verify(lp, data, np.array([-1.0, 2.0]))


def test_tie_rules_of_the_primal_iteration():
    # Dantzig pricing takes the first of two equal reduced costs: x0 enters,
    # and one pivot ends the solve (the last of the two takes two)
    lp = LinearProgram(np.array([2.0, 2.0]), np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 2.0]]),
                       ("<=",) * 3, np.array([2.0, 1.0, 2.0]), np.zeros(2), np.array([3.0, 1.0]))
    res = solve_lp(lp)
    assert res.pivots == 1 and np.array_equal(res.x, [1.0, 0.0])
    # two rows block x2 at the same step: the basic of smaller index leaves
    # (the larger one ends the solve a pivot early, on another basis)
    lp = LinearProgram(np.array([1.0, 0.0, 2.0]),
                       np.array([[0.0, 2.0, 2.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
                       ("<=",) * 3, np.array([2.0, 2.0, 1.0]), np.zeros(3), np.array([2.0, 1.0, 3.0]))
    res = solve_lp(lp)
    assert res.pivots == 2 and np.array_equal(res.x, [0.0, 0.0, 1.0])
