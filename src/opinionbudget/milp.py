"""Supporter maximization in the presence of transient states.

Branch and bound with LP-relaxation bounds from the bounded-variable
simplex, a supporter-set enumeration oracle for small instances, and budget
sweeps.  The binary decisions are one indicator per class / transient agent:
every member of an ergodic class settles on the class consensus, so a class
is won or lost as a whole.  A unit's linking row is exact: payments must
lift its limit by its own gap to the threshold, so no global big-M constant
enters the relaxation.  Every node's LP payments fit the budget, so each is
a plan whose supporters the one rule, ``is_supporter``, decides.  The
supporter count is optimized first; among maximum-count plans the cheapest
payment certificate wins, ties resolved toward the lexicographically
smallest payment vector.  A node whose units fixed to 1 cost more than the
budget at their lone prices is settled without an LP.  The spend search
resumes from the count search's tied and unexplored boxes, warm from its own
root, rather than searching the whole tree again.  Reported payments are
rounded up to whole dollars when caps and budget allow, matching the dollar
granularity of the cost data; pass ``round_dollars=False`` for the raw
certificate.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .chain_analysis import ChainAnalysis, analyze, checked_budget, evaluate_plan, is_supporter
from .decompose import decompose
from .knapsack import solve_by_classes
from .lp import FEAS_TOL, PRIMAL_PIVOT_TOL, LinearProgram, LpResult, crash_basis, solve_lp
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
    ones whose payments matter) and ``caps`` their maximum useful payments.
    The decision units are the ergodic classes in order, then each transient
    agent alone: unit ``u`` has ``sizes[u]`` agents, the zero-payment limit
    ``base[u]``, and ``lift[u, a]`` is the rise of that limit per dollar paid
    to ``pay_agents[a]``.  All five are read-only arrays.  The remaining
    figures are read from the instance and the analysis.
    """

    instance: Instance
    analysis: ChainAnalysis
    budget: float
    pay_agents: np.ndarray
    caps: np.ndarray
    sizes: np.ndarray
    base: np.ndarray
    lift: np.ndarray

    @property
    def threshold(self) -> float:
        return self.instance.threshold

    @property
    def baseline(self) -> np.ndarray:
        """Zero-payment asymptotic opinions."""
        return self.analysis.asymptotic

    @property
    def rates(self) -> np.ndarray:
        """Per-agent ``lift``: row ``i`` is the row of agent ``i``'s unit; only the HiGHS cross-checks read it."""
        d = self.analysis.decomposition
        unit = d.class_of.copy()
        unit[list(d.transient)] = len(d.classes) + np.arange(d.n_transient)
        return self.lift[unit]

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

    A dollar to agent ``a`` of class ``k`` lifts class ``k`` by ``pi[a] / c_a``, and the
    ``j``-th transient agent by ``hitting[k, j]`` times that; a class's limit is its
    consensus.  Raises ``ValueError`` on a negative or non-finite budget.
    """
    d = analysis.decomposition
    b = checked_budget(instance, budget)
    pay = np.flatnonzero(d.class_of >= 0)
    caps = instance.costs[pay] * (1.0 - instance.true_opinions[pay])
    k = d.class_of[pay]
    sizes = np.array(d.sizes + (1,) * d.n_transient, dtype=float)
    base = np.concatenate([analysis.consensus, analysis.asymptotic[list(d.transient)]])
    # class one-hots over the transient hitting rows, scaled in place: one (units x recurrent) array
    lift = np.vstack([np.arange(len(d.classes))[:, None] == k, analysis.hitting[k].T])
    lift *= analysis.pi[pay]
    lift /= instance.costs[pay]
    for a in (pay, caps, sizes, base, lift):
        a.flags.writeable = False
    return MilpInstance(instance, analysis, b, pay, caps, sizes, base, lift)


def _node_program(mi: MilpInstance, zlo, zup, objective, min_count=None) -> LinearProgram:
    """LP over [payments | indicators], one indicator per class / transient agent.

    Rows: the budget, one exact linking row per unit
    ``(x* - base_u)+ z_u - sum_a lift[u, a] p_a <= 0`` (payments must
    lift the unit's limit by its own gap), and optionally a minimum
    supporter-count row ``sum_u sizes_u z_u >= min_count``.
    """
    q, k = len(mi.pay_agents), len(mi.sizes)
    rows = np.zeros((1 + k + (min_count is not None), q + k))
    rows[0, :q] = 1.0
    rows[1:1 + k, :q] = -mi.lift
    rows[1:1 + k, q:] = np.diag(np.maximum(mi.threshold - mi.base, 0.0))
    rhs = [mi.budget] + [0.0] * k
    senses = ("<=",) * (1 + k)
    if min_count is not None:
        rows[-1, q:] = mi.sizes
        rhs.append(float(min_count))
        senses += (">=",)
    lower = np.concatenate([np.zeros(q), zlo])
    upper = np.concatenate([mi.caps, zup])
    return LinearProgram(objective, rows, senses, np.array(rhs), lower, upper)


def _branch_var(z: np.ndarray, zlo, zup) -> int | None:
    """Most fractional free indicator; ties go to the smallest index."""
    frac = np.where(zlo == zup, 0.0, np.abs(z - np.round(z)))
    best = int(np.argmax(frac))  # the first of the largest
    return best if frac[best] > INT_TOL else None


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` is smaller at the first entry where the two differ by more than ``SPEND_TOL``."""
    differ = np.flatnonzero((a < b - SPEND_TOL) | (a > b + SPEND_TOL))
    return bool(differ.size) and bool(a[differ[0]] < b[differ[0]])


def _min_spend_for_set(mi: MilpInstance, chosen: np.ndarray) -> LpResult:
    """Cheapest payments making every unit with ``chosen[u] == 1`` a supporter."""
    zfix = np.asarray(chosen, dtype=float)
    objective = np.concatenate([-np.ones(len(mi.pay_agents)), np.zeros(len(mi.sizes))])
    return solve_lp(_node_program(mi, zfix, zfix, objective))


def _round_payments_up(pay: np.ndarray, caps: np.ndarray, budget: float) -> np.ndarray:
    """Whole-dollar payments when caps and budget permit, never decreasing."""
    rounded = np.maximum(pay, np.minimum(caps, np.ceil(pay - INT_TOL))) + 0.0  # kill -0.0
    if rounded.sum() <= budget + SPEND_TOL:
        return rounded
    return pay.copy()


def _won(mi: MilpInstance, pay_q: np.ndarray) -> np.ndarray:
    """Mask of the units that payments ``pay_q`` win."""
    return is_supporter(mi.base + mi.lift @ pay_q, mi.threshold)


def _unit_prices(lift: np.ndarray, caps: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Each unit's lone price: the least payment within ``caps`` that lifts its
    limit (row of ``lift``) by its gap less ``FEAS_TOL``, inf if none does.

    One fractional knapsack per row, fastest-lifting payers paid first; for a
    class this is its greedy class price."""
    need = gaps - FEAS_TOL
    order = np.argsort(-lift, axis=1, kind="stable")
    rate, cap = np.take_along_axis(lift, order, axis=1), caps[order]
    zero = np.zeros((len(gaps), 1))
    reach = np.hstack([zero, np.cumsum(rate * cap, axis=1)])  # lift of the first t payers' caps
    spent = np.hstack([zero, np.cumsum(cap, axis=1)])
    rows = np.arange(len(gaps))
    t = np.minimum((reach[:, 1:] < need[:, None]).sum(axis=1), lift.shape[1] - 1)  # the partial payer
    with np.errstate(divide="ignore", invalid="ignore"):
        price = spent[rows, t] + (need - reach[rows, t]) / rate[rows, t]
    price[reach[:, -1] < need] = np.inf
    price[need <= 0.0] = 0.0
    return price


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


def _children(lower: np.ndarray, upper: np.ndarray, col: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The 0- and the 1-branch of a box on its column ``col``, the 1-branch last."""
    upper0, lower1 = upper.copy(), lower.copy()
    upper0[col] = 0.0
    lower1[col] = 1.0
    return [(lower, upper0), (lower1, upper)]


def _branch_and_bound(program: LinearProgram, q: int, visit, node_limit: int,
                      boxes=None, start=None, unpayable=None) -> tuple[int, list]:
    """Depth-first branch and bound over the indicators after the ``q`` payments.

    ``program`` is the pass's one relaxation; a node differs from it only
    in its variable bounds and is warm started from its parent's optimal
    basis (the root from ``start``, cold without one).  A node whose
    indicators fixed to 1 are ``unpayable(lower[q:])`` is settled as
    infeasible without an LP.  ``visit(res, lower, upper, integral)``
    sees every optimal node with its box, may take its payments as the
    incumbent, and says whether to cut it.  Infeasible and integral nodes
    are leaves; otherwise the most fractional indicator is branched on, its
    1-branch explored first.  Given ``boxes``, the root's children are those
    (lower, upper) boxes instead, searched in order and warm started from
    the root's basis; a box that holds the root's optimum is branched at
    once, as the root would be.  Returns the nodes visited and the boxes
    left unexplored at ``node_limit``, none once the tree is exhausted.
    """
    stack = [(program.lower, program.upper, start)]
    nodes = 0
    while stack:
        if nodes >= node_limit:
            return nodes, [(lower, upper) for lower, upper, _ in reversed(stack)]
        lower, upper, start = stack.pop()
        nodes += 1
        if unpayable is not None and unpayable(lower[q:]):
            continue
        res = solve_lp(replace(program, lower=lower, upper=upper), start)
        if res.status != "optimal":
            continue
        var = _branch_var(res.x[q:], lower[q:], upper[q:])
        if visit(res, lower, upper, var is None) or var is None:
            continue
        if boxes is None:
            children = _children(lower, upper, q + var)
        else:  # the root of a resumed search
            children = []
            for lo, up in reversed(boxes):
                # a box that holds the root's optimum has it as its own: branch it without a solve
                held = np.all(lo[q:] - INT_TOL <= res.x[q:]) and np.all(res.x[q:] <= up[q:] + INT_TOL)
                children += _children(lo, up, q + var) if held else [(lo, up)]
            boxes = None
        # children share the parent's basis; the last is popped first: try making the unit a supporter
        stack.extend((lo, up, res.basis) for lo, up in children)
    return nodes, []


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

    The first pass maximizes the supporter count, from a crash basis with
    each unit's indicator basic in its linking row; the second minimizes
    total spend among plans achieving that count.  In both, a node whose
    units fixed to 1 cost more than the budget is settled without an LP.
    Pass 1 records every box it closes with a bound at least the count of
    its time, and any box the node limit leaves unexplored.  Pass 2 solves
    its own root cold and then searches only the recorded boxes whose bound
    reaches the final count, each warm from that root: pass 1's other leaves
    are infeasible or bounded below some count it had already won, so no
    plan with the optimal count lies in them.  Incumbents are compared by
    count, then spend, then lexicographic payments.  The count and the spend
    do not depend on exploration order, but the payments of an exact spend
    tie can: the lexicographic rule compares only the node optima the search
    visits.  If the node limit is exhausted the best incumbent is returned
    marked "heuristic".
    """
    node_limit = resolve_node_limit(node_limit)
    q, k, sizes = len(mi.pay_agents), len(mi.sizes), mi.sizes
    free = np.zeros(k), np.ones(k)
    gaps = np.maximum(mi.threshold - mi.base, 0.0)

    # Classes have disjoint payers, so the prices of classes fixed to 1 add up;
    # a transient unit shares payers and bounds the spend only by its own price.
    prices, classes = _unit_prices(mi.lift, mi.caps, gaps), len(mi.analysis.decomposition.classes)

    def unpayable(zlo):
        fixed = np.where(zlo > 0.0, prices, 0.0)
        return max(fixed[:classes].sum(), fixed[classes:].max(initial=0.0)) > mi.budget + FEAS_TOL

    # Pass 1: maximize the number of supporters; every node's payments are a plan.
    best_won = _won(mi, np.zeros(q))
    best_count = int(sizes @ best_won)
    tied = []  # (bound, lower, upper) of closed nodes whose bound reached the count of their time

    def visit_count(res, lower, upper, integral):
        nonlocal best_count, best_won
        won_now = _won(mi, res.x[:q])
        if (count := int(sizes @ won_now)) > best_count:
            best_count, best_won = count, won_now
        bound = math.floor(res.objective + INT_TOL)
        cut = bound <= best_count
        if (cut or integral) and bound >= best_count:
            tied.append((bound, lower, upper))
        return cut

    count_lp = _node_program(mi, *free, np.concatenate([np.zeros(q), sizes]))
    # crash start: each unit's indicator basic in its linking row (its slack where
    # the gap is nil), the budget slack basic; feasible at zero payments
    n = q + k
    crash = np.where(gaps > PRIMAL_PIVOT_TOL, q + np.arange(k), n + 1 + np.arange(k))
    nodes, unexplored = _branch_and_bound(count_lp, q, visit_count, node_limit,
                                          start=crash_basis(count_lp, np.append(n, crash)),
                                          unpayable=unpayable)
    # No plan with best_count supporters lies outside these boxes: pass 1's other
    # leaves were infeasible or bounded below a count it had already won.
    boxes = [(lower, upper) for bound, lower, upper in tied if bound >= best_count] + unexplored

    # Pass 2: cheapest certificate for the optimal count, searched only in those boxes.
    seed = _min_spend_for_set(mi, best_won)
    if seed.status != "optimal":
        raise RuntimeError("incumbent supporter set lost feasibility")  # pragma: no cover
    best_spend, best_pay = -seed.objective, seed.x[:q]

    def visit_spend(res, *_):
        nonlocal best_spend, best_pay
        spend, pay = -res.objective, res.x[:q]
        cheaper = spend < best_spend - SPEND_TOL or (
            spend <= best_spend + SPEND_TOL and _lex_smaller(pay, best_pay))
        if cheaper and sizes @ _won(mi, pay) >= best_count:
            best_spend, best_pay = spend, pay
        return spend > best_spend + SPEND_TOL

    spend_lp = _node_program(mi, *free, np.concatenate([-np.ones(q), np.zeros(k)]), min_count=best_count)
    more, left = _branch_and_bound(spend_lp, q, visit_spend, node_limit - nodes, boxes,
                                   unpayable=unpayable)
    return _finish(mi, best_pay, nodes + more, not (unexplored or left), round_dollars, best_count)


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
    q, d = len(mi.pay_agents), analysis.decomposition
    members = d.classes + tuple((t,) for t in d.transient)
    candidates = []
    for mask in range(1, 1 << len(members)):
        chosen = [mask >> u & 1 for u in range(len(members))]
        agents = tuple(sorted(a for u, unit in enumerate(members) if chosen[u] for a in unit))
        candidates.append((agents, chosen))
    candidates.sort(key=lambda c: (-len(c[0]), c[0]))

    reachable = _won(mi, mi.caps)  # units won when every cap is paid
    tried = 0
    for agents, chosen in candidates:
        if not reachable[np.flatnonzero(chosen)].all():
            continue
        tried += 1
        res = _min_spend_for_set(mi, chosen)
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

    if analysis.decomposition.transient:
        mi = build_milp(instance, analysis)  # only the budget depends on the row

        def solve(b):
            return solve_milp(replace(mi, budget=checked_budget(instance, b)), node_limit, round_dollars)
    else:
        def solve(b):
            plan = solve_by_classes(instance, analysis, budget=b)[0]
            return MilpSolution(plan, len(plan.supporters), "proven", 0)
    return SweepCurve(tuple(values), tuple(map(solve, values)))
