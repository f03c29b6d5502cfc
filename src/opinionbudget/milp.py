"""Supporter maximization in the presence of transient states.

Branch and bound with LP-relaxation bounds from the bounded-variable
simplex, a supporter-set enumeration oracle for small instances, and
budget sweeps.  The binary decisions are one indicator per class /
transient agent: every member of an ergodic class settles on the class
consensus, so a class is won or lost as a whole.  A unit's linking row
is exact: payments must lift its limit by its own gap to the threshold,
so no global big-M constant enters the relaxation.  Every node's LP
payments fit the budget, so each is a plan whose supporters the one rule,
``is_supporter``, decides.  The supporter count is optimized first; among
maximum-count plans the cheapest payment certificate wins, ties resolved
toward the lexicographically smallest payment vector.  Reported payments
are rounded up to whole dollars when caps and budget allow, matching the
dollar granularity of the cost data; pass ``round_dollars=False`` for the
raw certificate.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .chain_analysis import ChainAnalysis, analyze, checked_budget, evaluate_plan, is_supporter
from .decompose import Decomposition, decompose
from .knapsack import solve_by_classes
from .lp import LinearProgram, LpResult, solve_lp
from .model import Instance, PaymentPlan, confidence_matrix

#: Default branch-and-bound node budget; the OBO_NODE_LIMIT env var overrides.
DEFAULT_NODE_LIMIT = 200_000
#: Strict-improvement margin for spend comparisons between incumbents.
SPEND_TOL = 1e-9
#: Integrality tolerance on relaxed binary variables.
INT_TOL = 1e-6


class TooLarge(ValueError):
    """The enumeration oracle only handles instances with at most 15 agents."""


@dataclass(frozen=True)
class MilpInstance:
    """Data of the linearized supporter problem for one budget.

    ``pay_agents`` are the recurrent agents in ascending order (the only
    ones whose payments matter), ``caps`` their maximum useful payments,
    and ``rates[i, a]`` the increase of agent ``i``'s limit opinion per
    dollar paid to ``pay_agents[a]``; all three are read-only arrays.  The
    remaining figures are read from the instance and the analysis.
    """

    instance: Instance
    analysis: ChainAnalysis
    budget: float
    pay_agents: np.ndarray
    caps: np.ndarray
    rates: np.ndarray

    @property
    def threshold(self) -> float:
        return self.instance.threshold

    @property
    def baseline(self) -> np.ndarray:
        """Zero-payment asymptotic opinions."""
        return self.analysis.asymptotic

    @property
    def lower_bound(self) -> float:
        """Minimum baseline opinion: the big-M constant of the per-agent reference
        linearization in the HiGHS cross-checks.  The solver's linking rows are exact."""
        return float(self.baseline.min())

    @property
    def degenerate(self) -> bool:
        """The zero-payment minimum clears the threshold; only the HiGHS cross-checks read it."""
        return self.lower_bound >= self.threshold


@dataclass(frozen=True)
class MilpSolution:
    plan: PaymentPlan
    supporter_count: int
    optimality: str  # "proven" | "heuristic"
    node_count: int


@dataclass(frozen=True)
class SweepCurve:
    """Supporter counts along a budget grid."""

    budgets: tuple[float, ...]
    solutions: tuple[MilpSolution, ...]

    def rows(self) -> list[tuple[float, int, float]]:
        return [
            (b, sol.supporter_count, sol.plan.total_spend)
            for b, sol in zip(self.budgets, self.solutions)
        ]


def build_milp(instance: Instance, analysis: ChainAnalysis, budget: float | None = None) -> MilpInstance:
    """Assemble the linearized problem data from a completed chain analysis.

    A dollar to agent ``a`` of class ``k`` lifts a member of ``k`` by ``pi[a] / c_a``, and the
    ``j``-th transient agent by ``hitting[k, j]`` times that.
    Raises ``ValueError`` on a negative or non-finite budget.
    """
    d = analysis.decomposition
    b = checked_budget(instance, budget)
    pay = np.flatnonzero(d.class_of >= 0)
    caps = instance.costs[pay] * (1.0 - instance.true_opinions[pay])
    h = (d.class_of[:, None] == d.class_of[pay]).astype(float)
    h[list(d.transient)] = analysis.hitting[d.class_of[pay]].T
    rates = h * analysis.pi[pay] / instance.costs[pay]
    for a in (pay, caps, rates):
        a.flags.writeable = False
    return MilpInstance(instance, analysis, b, pay, caps, rates)


def _units(decomposition: Decomposition) -> list[tuple[int, ...]]:
    """Decision units: each ergodic class, then each transient agent alone.

    Members of a class share their limit opinion, so the first member
    stands for the whole class in its linking row.
    """
    return ([tuple(members) for members in decomposition.classes]
            + [(t,) for t in decomposition.transient])


def _node_program(mi: MilpInstance, units, zlo, zup, objective, min_count=None) -> LinearProgram:
    """LP over [payments | indicators], one indicator per class / transient agent.

    Rows: the budget, one exact linking row per unit with representative ``r``
    ``(x* - baseline_r)+ z_u - sum_a rates[r, a] p_a <= 0`` (payments must
    lift the unit's limit by its own gap), and optionally a minimum
    supporter-count row ``sum_u |u| z_u >= min_count``.
    """
    q, k = len(mi.pay_agents), len(units)
    reps = [u[0] for u in units]
    rows = np.zeros((1 + k + (min_count is not None), q + k))
    rows[0, :q] = 1.0
    rows[1:1 + k, :q] = -mi.rates[reps]
    rows[1:1 + k, q:] = np.diag(np.maximum(mi.threshold - mi.baseline[reps], 0.0))
    rhs = [mi.budget] + [0.0] * k
    senses = ("<=",) * (1 + k)
    if min_count is not None:
        rows[-1, q:] = [len(u) for u in units]
        rhs.append(float(min_count))
        senses += (">=",)
    lower = np.concatenate([np.zeros(q), zlo])
    upper = np.concatenate([mi.caps, zup])
    return LinearProgram(objective, rows, senses, np.array(rhs), lower, upper)


def _branch_var(z: np.ndarray, zlo, zup) -> int | None:
    """Most fractional free indicator; ties go to the smallest index."""
    best, best_frac = None, INT_TOL
    for i in range(len(z)):
        if zlo[i] == zup[i]:
            continue
        frac = abs(z[i] - round(z[i]))
        if frac > best_frac:
            best, best_frac = i, frac
    return best


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x < y - SPEND_TOL or x > y + SPEND_TOL:
            return x < y
    return False


def _min_spend_for_set(mi: MilpInstance, units, chosen: np.ndarray) -> LpResult:
    """Cheapest payments making every unit with ``chosen[u] == 1`` a supporter."""
    zfix = np.asarray(chosen, dtype=float)
    objective = np.concatenate([-np.ones(len(mi.pay_agents)), np.zeros(len(units))])
    return solve_lp(_node_program(mi, units, zfix, zfix, objective))


def _round_payments_up(pay: np.ndarray, caps: np.ndarray, budget: float) -> np.ndarray:
    """Whole-dollar payments when caps and budget permit, never decreasing."""
    rounded = np.maximum(pay, np.minimum(caps, np.ceil(pay - INT_TOL))) + 0.0  # kill -0.0
    if rounded.sum() <= budget + SPEND_TOL:
        return rounded
    return pay.copy()


def _won(mi: MilpInstance, reps, pay_q: np.ndarray) -> np.ndarray:
    """Mask of the units, given by their representatives, that payments ``pay_q`` win."""
    return is_supporter(mi.baseline[reps] + mi.rates[reps] @ pay_q, mi.threshold)


def _finish(mi: MilpInstance, pay_q: np.ndarray, nodes: int, proven: bool,
            round_dollars: bool, certified: int = 0) -> MilpSolution:
    payments = np.zeros(mi.instance.n)
    # simplex residue below the spend resolution is not a payment
    payments[mi.pay_agents] = np.where(pay_q > SPEND_TOL, pay_q, 0.0)
    caps_full = np.zeros(mi.instance.n)
    caps_full[mi.pay_agents] = mi.caps
    if round_dollars:
        payments = _round_payments_up(payments, caps_full, mi.budget)
    plan = evaluate_plan(mi.instance, mi.analysis, payments, budget=mi.budget)
    if len(plan.supporters) < certified:  # rounding up only adds payments
        raise RuntimeError(f"plan wins {len(plan.supporters)} supporters, {certified} certified")
    return MilpSolution(plan, len(plan.supporters), "proven" if proven else "heuristic", nodes)


def _branch_and_bound(program: LinearProgram, q: int, visit, node_limit: int) -> tuple[int, bool]:
    """Depth-first branch and bound over the indicators after the ``q`` payments.

    ``program`` is the pass's one relaxation; a node differs from it only
    in its variable bounds and is warm started from its parent's optimal
    basis (the root solves cold).  ``visit`` sees every optimal node, may
    take its payments as the incumbent, and says whether to cut it.
    Infeasible and integral nodes are leaves; otherwise the most fractional
    indicator is branched on, its 1-branch explored first.  Returns the
    nodes solved and whether the tree was exhausted within ``node_limit``.
    """
    stack = [(program.lower, program.upper, None)]
    nodes = 0
    while stack:
        if nodes >= node_limit:
            return nodes, False
        lower, upper, start = stack.pop()
        nodes += 1
        res = solve_lp(replace(program, lower=lower, upper=upper), start)
        if (res.status != "optimal" or visit(res)
                or (var := _branch_var(res.x[q:], lower[q:], upper[q:])) is None):
            continue
        upper0, lower1 = upper.copy(), lower.copy()
        upper0[q + var] = 0.0
        lower1[q + var] = 1.0
        stack.append((lower, upper0, res.basis))  # both children share the parent's basis
        stack.append((lower1, upper, res.basis))  # popped first: try making the unit a supporter
    return nodes, True


def resolve_node_limit(node_limit: int | None = None) -> int:
    """``node_limit``, else ``OBO_NODE_LIMIT``, else the default; ``ValueError`` unless it is at least 1."""
    if node_limit is None:
        limit = os.environ.get("OBO_NODE_LIMIT") or DEFAULT_NODE_LIMIT
        try:
            node_limit = int(limit)
        except ValueError:
            raise ValueError(f"OBO_NODE_LIMIT must be an integer, got {limit!r}") from None
    if node_limit < 1:
        raise ValueError(f"node limit must be at least 1, got {node_limit}")
    return node_limit


def solve_milp(mi: MilpInstance, node_limit: int | None = None,
               round_dollars: bool = True) -> MilpSolution:
    """Provably optimal supporter plan by two branch-and-bound passes.

    The first pass maximizes the supporter count; the second minimizes
    total spend among plans achieving that count.  Exploration order never
    affects the result: incumbents are compared by count, then spend, then
    lexicographic payments.  If the node limit is exhausted the best
    incumbent is returned marked "heuristic".
    """
    node_limit = resolve_node_limit(node_limit)
    q = len(mi.pay_agents)
    units = _units(mi.analysis.decomposition)
    reps, sizes = [u[0] for u in units], np.array([len(u) for u in units], dtype=float)
    free = np.zeros(len(units)), np.ones(len(units))

    # Pass 1: maximize the number of supporters; every node's payments are a plan.
    best_won = _won(mi, reps, np.zeros(q))
    best_count = int(sizes @ best_won)

    def visit_count(res):
        nonlocal best_count, best_won
        won = _won(mi, reps, res.x[:q])
        if (count := int(sizes @ won)) > best_count:
            best_count, best_won = count, won
        return math.floor(res.objective + INT_TOL) <= best_count

    count_lp = _node_program(mi, units, *free, np.concatenate([np.zeros(q), sizes]))
    nodes, proven = _branch_and_bound(count_lp, q, visit_count, node_limit)

    # Pass 2: cheapest certificate for the optimal count.
    seed = _min_spend_for_set(mi, units, best_won)
    if seed.status != "optimal":
        raise RuntimeError("incumbent supporter set lost feasibility")  # pragma: no cover
    best_spend, best_pay = -seed.objective, seed.x[:q]

    def visit_spend(res):
        nonlocal best_spend, best_pay
        spend, pay = -res.objective, res.x[:q]
        cheaper = spend < best_spend - SPEND_TOL or (
            spend <= best_spend + SPEND_TOL and _lex_smaller(pay, best_pay))
        if cheaper and sizes @ _won(mi, reps, pay) >= best_count:
            best_spend, best_pay = spend, pay
        return spend > best_spend + SPEND_TOL

    spend_lp = _node_program(mi, units, *free, np.concatenate([-np.ones(q), np.zeros(len(units))]),
                             min_count=best_count)
    more, finished = _branch_and_bound(spend_lp, q, visit_spend, node_limit - nodes)
    return _finish(mi, best_pay, nodes + more, proven and finished, round_dollars, best_count)


def brute_force_oracle(instance: Instance, analysis: ChainAnalysis,
                       budget: float | None = None,
                       round_dollars: bool = True) -> MilpSolution:
    """Independent optimum by supporter-set enumeration plus one LP per set.

    Candidate sets are tried in decreasing size (within a size,
    lexicographic agent order); the first whose cheapest certificate fits
    the budget wins.  Agents of one ergodic class share their asymptotic
    opinion, so sets never split a class.  Limited to n <= 15.
    """
    if instance.n > 15:
        raise TooLarge(f"enumeration oracle supports at most 15 agents, got {instance.n}")
    mi = build_milp(instance, analysis, budget)
    q = len(mi.pay_agents)
    units = _units(mi.analysis.decomposition)
    candidates = []
    for mask in range(1, 1 << len(units)):
        chosen = [mask >> u & 1 for u in range(len(units))]
        agents = tuple(sorted(a for u, unit in enumerate(units) if chosen[u] for a in unit))
        candidates.append((agents, chosen))
    candidates.sort(key=lambda c: (-len(c[0]), c[0]))

    reachable = _won(mi, [u[0] for u in units], mi.caps)  # units won when every cap is paid
    tried = 0
    for agents, chosen in candidates:
        if not reachable[np.flatnonzero(chosen)].all():
            continue
        tried += 1
        res = _min_spend_for_set(mi, units, chosen)
        if res.status == "optimal":
            return _finish(mi, res.x[:q], tried, True, round_dollars, len(agents))
    return _finish(mi, np.zeros(q), tried, True, round_dollars)


def budget_sweep(instance: Instance, budgets, node_limit: int | None = None,
                 round_dollars: bool = True) -> SweepCurve:
    """Solve the supporter problem along an ascending budget grid; without transient states
    each row is ``solve_by_classes`` at its budget (``node_limit`` checked, ``round_dollars`` unused)."""
    values = [float(b) for b in budgets]
    if any(b2 < b1 for b1, b2 in zip(values, values[1:])):
        raise ValueError("budgets must be sorted ascending")
    node_limit = resolve_node_limit(node_limit)
    cm = confidence_matrix(instance)
    analysis = analyze(cm, decompose(cm), instance.true_opinions)

    def solve(b):
        if analysis.decomposition.transient:
            return solve_milp(build_milp(instance, analysis, budget=b), node_limit, round_dollars)
        plan = solve_by_classes(instance, analysis, budget=b)[0]
        return MilpSolution(plan, len(plan.supporters), "proven", 0)
    return SweepCurve(tuple(values), tuple(map(solve, values)))
