"""Minimum payments to lift one ergodic class's consensus to a target.

The greedy order pays agents by descending influence-per-dollar ``pi_j/c_j``:
everyone ahead of the critical item is pushed to opinion 1, the critical
item receives the fractional top-up that lands the consensus exactly on
the target, and everyone after it receives nothing.  The result is both
optimal and maximal (the constraint binds whenever anything is paid).

The greedy order of a whole stack of same-size classes is one array sort
per class size (:func:`_greedy_order`): a stable ``argsort`` of the rounded
ratios.  The exact cross-product comparator (:func:`_influence_order`)
settles only the rows where that sort is not provably its order: near
ties, and values outside the normal float range.
"""

from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .chain_analysis import consensus_stack
from .model import OPINION_TOL


class InfeasibleThreshold(ValueError):
    """Target consensus above 1 can never be reached."""


class TargetOutOfRange(ValueError):
    """Cost-curve target below the unpaid consensus or above 1."""


@dataclass(frozen=True)
class ClassBudgetResult:
    """Optimal payments for one class, in the class's own member order.

    ``critical_item`` is the position (within the class vectors) of the
    partially paid agent, or ``None`` when no payment is needed.
    """

    payments: np.ndarray
    critical_item: int | None
    total: float
    feasible: bool


def _influence_order(pi: np.ndarray, costs: np.ndarray) -> list[int]:
    """Indices sorted by pi/c descending, ties by original index ascending.

    Compared via cross-products (``pi_a * c_b`` vs ``pi_b * c_a``) so the
    ordering never depends on division rounding.
    """

    def cmp(a: int, b: int) -> int:
        left = pi[a] * costs[b]
        right = pi[b] * costs[a]
        if left > right:
            return -1
        if left < right:
            return 1
        return a - b

    return sorted(range(len(pi)), key=cmp_to_key(cmp))


#: Relative gap δ between adjacent ratios that :func:`_greedy_order` needs to
#: trust the array sort: 16u, with u = 2**-53 the unit roundoff.
_RATIO_GAP = 2.0 ** -49
_TINY = np.finfo(float).tiny


def _greedy_order(pi: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """:func:`_influence_order` of every row of a ``(rows, m)`` stack.

    One ``np.argsort(-(pi / costs), axis=1, kind="stable")`` orders the
    whole stack.  A row keeps that order when its ``pi`` and ``costs`` are
    positive, their products and quotients lie in the normal float range
    (``tiny < fl(.) < inf``), and each adjacent pair ``a, b`` of the order has
    rounded ratios ``r = fl(pi / c)`` with ``fl(r_a - r_b) > fl(δ r_a)``; any
    other row is sorted by the comparator.

    Why a kept row is exact.  Write u = 2**-53; a product or quotient ``z``
    of floats in the normal range is rounded as ``fl(z) = z (1 + e)`` with
    ``|e| <= u`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., §2.2).

    1. The test implies ``r_a - r_b > 5u r_a`` in exact arithmetic.  If
       ``r_b >= r_a / 2`` the subtraction is exact (Sterbenz); and since
       ``r_a > tiny``, ``fl(δ r_a)`` is at least ``(15/16) δ r_a = 15u r_a``,
       even where it is subnormal (its absolute error is at most
       ``2**-1075 <= δ r_a / 16``).  If ``r_b < r_a / 2`` the gap exceeds
       ``r_a / 2`` anyway.
    2. Adjacent gaps add up, so every pair ``a`` ahead of ``b`` in the order,
       adjacent or not, has ``r_a / r_b > 1 / (1 - 5u)``.
    3. For the true ratios ``ρ = pi / c`` this gives
       ``ρ_a / ρ_b >= (r_a / r_b)(1 - u) / (1 + u)``, and for the rounded
       cross-products ``P = fl(pi_a c_b)``, ``Q = fl(pi_b c_a)``
       ``P / Q >= (ρ_a / ρ_b)(1 - u) / (1 + u)
       > (1 - u)**2 / ((1 - 5u)(1 + u)**2) > 1``,
       because ``(1 - u)**2 - (1 - 5u)(1 + u)**2 = u + 10u**2 + 5u**3``.

    So ``P > Q`` for every pair: on that row the comparator is a strict
    total order that agrees with the ratios, and the argsort order is its
    only sorted sequence.  Ties, proportional pairs and ratios a few ulp
    apart fail the gap test and fall back to the comparator.
    """
    with np.errstate(all="ignore"):
        ratio = pi / costs
        order = np.argsort(-ratio, axis=1, kind="stable")
        r = np.take_along_axis(ratio, order, axis=1)
        exact = (
            (pi.min(axis=1) > 0.0) & (costs.min(axis=1) > 0.0)
            & (pi.min(axis=1) * costs.min(axis=1) > _TINY)
            & (pi.max(axis=1) * costs.max(axis=1) < np.inf)
            & (r[:, -1] > _TINY) & (r[:, 0] < np.inf)
            & (r[:, :-1] - r[:, 1:] > _RATIO_GAP * r[:, :-1]).all(axis=1)
        )
    for row in np.flatnonzero(~exact).tolist():
        order[row] = _influence_order(pi[row], costs[row])
    return order


def min_budget_stack(
    pi: np.ndarray,
    opinions: np.ndarray,
    costs: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy payments for a ``(count, m)`` stack of same-size classes.

    Row ``r`` holds one class's stationary vector, true opinions and costs.
    Returns the payments, one row per class in its member order, and the
    member position of each class's critical item (-1 where the unpaid
    consensus already reaches ``threshold``).  Every row goes through the
    same scalar steps, in the same order, as a loop over one class would:
    the consensi are ``ddot`` products (:func:`consensus_stack`), and the
    payments and the remaining consensus down the greedy order are running
    sums (``np.add.accumulate``, ``np.subtract.accumulate``), which add and
    subtract in that order.
    """
    if not threshold <= 1.0 + OPINION_TOL:  # a NaN target is refused too
        raise InfeasibleThreshold(f"target consensus {threshold} is above 1 or not a number")
    count, m = pi.shape
    payments = np.zeros((count, m))
    critical = np.full(count, -1)
    # not (consensus >= threshold), so a NaN consensus is priced, not skipped
    need = np.flatnonzero(~(consensus_stack(pi, opinions) >= threshold))
    if not need.size:
        return payments, critical
    order = _greedy_order(pi[need], costs[need])
    rows = np.arange(need.size)
    p, x, c = (a[need[:, None], order] for a in (pi, opinions, costs))

    # value(t) = consensus after paying the first t agents in greedy order
    # to opinion 1; the critical item is the first t where it crosses, and
    # (paid, rest) are kept from just before it.  Column t of the running
    # sums is the state after t agents; each sums in the greedy order.
    paid = np.add.accumulate(np.hstack([np.zeros((need.size, 1)), p]), axis=1)
    rest = np.subtract.accumulate(np.hstack([consensus_stack(p, x)[:, None], p * x]), axis=1)
    hits = paid[:, 1:] + rest[:, 1:] >= threshold
    found = hits.any(axis=1)
    crit = np.where(found, hits.argmax(axis=1), m - 1)
    crit_paid, crit_rest = paid[rows, crit], rest[rows, crit]
    # float undershoot with threshold == 1: treat the last as critical
    crit_paid[~found] = paid[~found, -1] - p[~found, -1]
    crit_rest[~found] = rest[~found, -1] + p[~found, -1] * x[~found, -1]

    cap = c * (1.0 - x)
    paid_sorted = np.where(np.arange(m) < crit[:, None], cap, 0.0)
    top_up = (c[rows, crit] / p[rows, crit]) * (threshold - crit_paid - crit_rest)
    top_up = np.where(0.0 > top_up, 0.0, top_up)  # max(top_up, 0.0)
    paid_sorted[rows, crit] = np.where(cap[rows, crit] < top_up, cap[rows, crit], top_up)  # min(., cap)
    payments[need[:, None], order] = paid_sorted
    critical[need] = order[rows, crit]
    return payments, critical


def min_budget_for_class(
    pi: np.ndarray,
    opinions: np.ndarray,
    costs: np.ndarray,
    threshold: float,
) -> ClassBudgetResult:
    """Cheapest payments making the class consensus reach ``threshold``.

    Parameters are restricted to one ergodic class: its stationary vector,
    the members' true opinions, and their per-unit costs.  Always feasible
    for thresholds up to 1 because the fully paid consensus is 1.  This is
    :func:`min_budget_stack` on a stack of one.
    """
    payments, critical = min_budget_stack(
        *(np.asarray(a, dtype=float)[None] for a in (pi, opinions, costs)), threshold
    )
    s = int(critical[0])
    if s < 0:
        return ClassBudgetResult(payments[0], None, 0.0, True)
    return ClassBudgetResult(payments[0], s, float(payments[0].sum()), True)


def class_cost_curve(
    pi: np.ndarray,
    opinions: np.ndarray,
    costs: np.ndarray,
    targets,
) -> np.ndarray:
    """Minimum dollars to move the class consensus to each target.

    Valid targets run from the unpaid consensus up to 1; the curve is
    convex and nondecreasing.
    """
    base = float(np.dot(pi, opinions))
    out = np.zeros(len(targets))
    for idx, target in enumerate(targets):
        t = float(target)
        if not base - OPINION_TOL <= t <= 1.0 + OPINION_TOL:  # NaN is out of range
            raise TargetOutOfRange(
                f"target {t} outside [{base:.12g}, 1] reachable by payments"
            )
        out[idx] = min_budget_for_class(pi, opinions, costs, min(t, 1.0)).total
    return out
