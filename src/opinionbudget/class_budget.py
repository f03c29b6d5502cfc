"""Minimum payments to lift one ergodic class's consensus to a target.

The greedy order pays agents by descending influence-per-dollar ``pi_j/c_j``:
everyone ahead of the critical item is pushed to opinion 1, the critical
item receives the fractional top-up that lands the consensus exactly on
the target, and everyone after it receives nothing.  The result is both
optimal and maximal (the constraint binds whenever anything is paid).
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
    if threshold > 1.0 + OPINION_TOL:
        raise InfeasibleThreshold(f"target consensus {threshold} exceeds 1")
    count, m = pi.shape
    payments = np.zeros((count, m))
    critical = np.full(count, -1)
    # not (consensus >= threshold), so a NaN consensus is priced, not skipped
    need = np.flatnonzero(~(consensus_stack(pi, opinions) >= threshold))
    if not need.size:
        return payments, critical
    order = np.array([_influence_order(pi[r], costs[r]) for r in need.tolist()], dtype=np.intp)
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
        if t < base - OPINION_TOL or t > 1.0 + OPINION_TOL:
            raise TargetOutOfRange(
                f"target {t} outside [{base:.12g}, 1] reachable by payments"
            )
        out[idx] = min_budget_for_class(pi, opinions, costs, min(t, 1.0)).total
    return out
