"""Class selection under the budget: exact 0-1 knapsack and an FPTAS.

Items are ergodic classes, valued by member count and weighed by the class
price tag in dollars.  The exact solver runs dynamic programming over the
total value (values are small integers, weights are real dollars): one
numpy update per item and one boolean decision table from which the
selection is backtracked.  Only the values the budget can buy are filled:
weightless classes are taken up front, and the DP stops at a cap from the
greedy fractional (Dantzig) bound, so its cost is O(items x cap) time and
memory, not O(items x total value).  Items are added from the last to
the first, so a selection's weight is summed from its last item to its
first, and ties (the lightest selection, then the lexicographically
smallest) are settled by one ``<=`` per value.  The FPTAS rescales values
first and inherits the same DP.
"""

from dataclasses import dataclass
from math import floor

import numpy as np

from .chain_analysis import ChainAnalysis, checked_budget, evaluate_plan
# min_budget_for_class is not called here; perfbench/spans.py patches this
# module attribute to trace single-class pricing, so it stays importable.
from .class_budget import min_budget_for_class, min_budget_stack  # noqa: F401
from .model import Instance, PaymentPlan


class TransientsPresent(ValueError):
    """Class selection alone is exact only when no transient states exist."""


@dataclass(frozen=True)
class KnapsackItem:
    """One selectable ergodic class: ``value`` agents for ``weight`` dollars."""

    class_index: int
    value: int
    weight: float

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("item value must be a positive integer")
        if self.weight < 0:
            raise ValueError("item weight must be nonnegative")


@dataclass(frozen=True)
class KnapsackSolution:
    selected: tuple[int, ...]
    total_value: int
    total_weight: float


#: Slack when comparing a selection's weight against the budget.
WEIGHT_TOL = 1e-9


def _min_weight_dp(
    values: list[int], weights: list[float], cap: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal weight per total value up to ``cap``, and the decisions that reach it.

    Returns ``best_w`` (``inf`` where a value is unreachable) over the
    values ``0..cap`` and a boolean ``take[item, value]`` table;
    :func:`_backtrack` reads a selection from it.  ``cap`` defaults to the
    total value.  Cost: O(items x cap) numpy work and one table of that
    size.

    Items are added from the last to the first: after item ``i`` the
    table holds the best selections of items ``i..end``, and a kept
    weight is the sum of its selection from its last item to its first.
    Among equal weights the lexicographically smallest selection (items
    by input position) wins, and one ``<=`` settles it: the candidate
    ``{i} + R`` has ``R`` among the items after ``i``, and so has the
    selection kept at that value, so on a tie the candidate, headed by
    ``i``, is the smaller.  ``cand < inf`` leaves ``take`` false where
    both sides are unreachable, so an unreachable value backtracks to
    ``()``.  Value-0 items are never taken.

    Item ``i`` only updates the values from ``v_i`` up to ``reach_i``, the
    total value of items ``i..end``, or ``cap`` if lower: every value above
    ``reach_i`` is still unreachable.  The cap changes no entry it keeps:
    ``best_w[val]`` and ``take[:, val]`` are formed from lower values
    only, so every cap at or above ``val`` gives the same bits there, and
    so does every backtrack from ``val``.
    """
    total = sum(values)
    cap = total if cap is None else min(cap, total)
    best_w = np.full(cap + 1, np.inf)
    best_w[0] = 0.0
    take = np.zeros((len(values), cap + 1), dtype=bool)
    reach = 0
    for idx in reversed(range(len(values))):
        v, w = values[idx], weights[idx]
        reach += v
        top = min(reach, cap) + 1  # values v .. top - 1 are updated
        if v == 0 or top <= v:
            continue
        cand = best_w[:top - v] + w
        cur = best_w[v:top]
        row = (cand <= cur) & (cand < np.inf)
        take[idx, v:top] = row
        np.fmin(cur, cand, out=cur)  # cand where taken; equal weights on a tie
    return best_w, take


def _backtrack(take: np.ndarray, values: list[int], val: int) -> tuple[int, ...]:
    """Item positions of the selection the DP keeps for total value ``val``."""
    sel = []
    for idx, v in enumerate(values):
        if take[idx, val]:
            sel.append(idx)
            val -= v
    return tuple(sel)


def _value_cap(values: list[int], weights: list[float], budget: float) -> int:
    """A value that no selection fitting ``budget`` exceeds, for :func:`_min_weight_dp`.

    The DP answer at ``budget`` is a selection ``S`` whose weight, summed
    from its last item to its first in floating point, is at most
    ``budget + WEIGHT_TOL``.  Its exact weight exceeds that sum by a
    relative error of at most (items x 2**-53) in any summation order,
    far below the 1e-9 by which ``room`` inflates the budget, so ``S`` is
    feasible in the fractional relaxation at ``room``, and its value is
    at most that relaxation's optimum (Dantzig's bound): whole items in
    ascending ``w / v`` order while their weights fit, and the fraction
    of the next one that fills ``room``.  The float ratios, sort and
    cumulative sums move that bound by far less than one, and the bound
    is floored, so adding the largest item value keeps the result above
    every value ``S`` can have.  Value-0 items add nothing and are
    left out; a bound that is not finite falls back to the total value.
    """
    total = sum(values)
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    keep = v > 0
    v, w = v[keep], w[keep]
    order = np.argsort(w / v, kind="stable")
    v, w = v[order], w[order]
    room = (budget + WEIGHT_TOL) * (1.0 + 1e-9)
    spent = np.cumsum(w)
    whole = int(np.searchsorted(spent, room, side="right"))  # items that fit whole
    if whole >= v.size:
        return total
    left = room - (spent[whole - 1] if whole else 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = v[:whole].sum() + left / w[whole] * v[whole]
    if not np.isfinite(bound):
        return total
    return min(total, max(0, floor(bound) + int(v.max())))


def _select(items: list[KnapsackItem], values: list[int], budget: float) -> KnapsackSolution:
    """Highest DP value whose minimal weight fits the budget, as a selection of ``items``.

    The DP is capped by :func:`_value_cap`.  When the empty selection fits,
    items with ``weight == 0`` and a positive value are taken without
    entering it.  That is exact: adding a zero weight anywhere in a sum
    changes no bit, so by the DP's own induction the minimal weight at
    ``value(S) + value(z)`` is at most ``S``'s weight for any selection
    ``S`` without such an item ``z``, and the highest value that fits
    therefore holds every ``z``.  Inserting one common set into two
    sorted tuples of the same value keeps their lexicographic order, so
    the tie rule picks the same selection as a DP over all items would.
    When not even the empty selection fits, nothing is taken.
    """
    weights = [it.weight for it in items]
    free = []
    if 0.0 <= budget + WEIGHT_TOL:
        free = [i for i, (v, w) in enumerate(zip(values, weights)) if v > 0 and w == 0.0]
    rest = sorted(set(range(len(items))) - set(free))
    rest_v = [values[i] for i in rest]
    rest_w = [weights[i] for i in rest]
    best_w, take = _min_weight_dp(rest_v, rest_w, _value_cap(rest_v, rest_w, budget))
    fits = np.flatnonzero(best_w <= budget + WEIGHT_TOL)
    picked = _backtrack(take, rest_v, int(fits[-1]) if fits.size else 0)
    sel = sorted(free + [rest[i] for i in picked])
    return KnapsackSolution(
        tuple(items[i].class_index for i in sel),
        int(sum(items[i].value for i in sel)),
        float(sum(weights[i] for i in sel)),
    )


def knapsack_exact(items: list[KnapsackItem], budget: float) -> KnapsackSolution:
    """Optimal class selection by value-indexed dynamic programming.

    Among selections of equal value, the lightest wins, then the
    lexicographically smallest.
    """
    return _select(items, [it.value for it in items], budget)


def knapsack_fptas(items: list[KnapsackItem], budget: float, epsilon: float) -> KnapsackSolution:
    """(1 - epsilon)-approximate selection via the classic value-scaling DP.

    Runtime is polynomial in ``len(items) / epsilon``.  When the scale
    factor is at most 1 the instance is already small and the values are
    not scaled: the exact DP over the items that fit.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    fit = [it for it in items if it.weight <= budget + WEIGHT_TOL]
    if not fit:
        return KnapsackSolution((), 0, 0.0)
    vmax = max(it.value for it in fit)
    scale = epsilon * vmax / len(fit)
    # Items whose value scales to 0 are never taken by the DP.
    values = [it.value if scale <= 1.0 else floor(it.value / scale) for it in fit]
    return _select(fit, values, budget)


def _priced_classes(instance: Instance, analysis: ChainAnalysis) -> tuple[list[KnapsackItem], np.ndarray]:
    """Knapsack items of every ergodic class, and each class's greedy payments.

    One :func:`min_budget_stack` call per class size.  The payments come as
    one vector over all agents: each class's payments at its members (zero
    for transient agents).
    """
    d = analysis.decomposition
    totals = np.empty(len(d.classes))
    payments = np.zeros(instance.n)
    for ks, members in d.groups:
        pay, _ = min_budget_stack(
            analysis.pi[members], instance.true_opinions[members], instance.costs[members], instance.threshold,
        )
        payments[members] = pay
        totals[ks] = pay.sum(axis=1)
    items = [KnapsackItem(k, len(m), t) for k, (m, t) in enumerate(zip(d.classes, totals.tolist()))]
    return items, payments


def class_items(instance: Instance, analysis: ChainAnalysis) -> list[KnapsackItem]:
    """Price every ergodic class at its minimum threshold-reaching budget."""
    return _priced_classes(instance, analysis)[0]


def solve_by_classes(
    instance: Instance,
    analysis: ChainAnalysis,
    budget: float | None = None,
    epsilon: float | None = None,
) -> tuple[PaymentPlan, KnapsackSolution]:
    """Full no-transient pipeline: price classes, select, and pay.

    Exact DP by default; pass ``epsilon`` for the FPTAS.  Raises
    :class:`TransientsPresent` when the decomposition has transient
    states, where class selection alone is not exact, and ``ValueError``
    on a negative or non-finite budget.
    """
    if analysis.decomposition.transient:
        raise TransientsPresent(
            "instance has transient states; class selection is not exact, use the MILP solver"
        )
    b = checked_budget(instance, budget)
    items, class_payments = _priced_classes(instance, analysis)
    solution = knapsack_exact(items, b) if epsilon is None else knapsack_fptas(items, b, epsilon)
    taken = np.zeros(len(items), dtype=bool)
    taken[list(solution.selected)] = True
    payments = np.where(taken[analysis.decomposition.class_of], class_payments, 0.0)
    plan = evaluate_plan(instance, analysis, payments, budget=b)
    return plan, solution
