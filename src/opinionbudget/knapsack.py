"""Class selection under the budget: exact 0-1 knapsack and an FPTAS.

Items are ergodic classes, valued by member count and weighed by the class
price tag in dollars.  The exact solver runs dynamic programming over the
total value (values are small integers, weights are real dollars): one
numpy update per item, O(items x total value) work, and one boolean
decision table of that size from which the selection is backtracked.  Ties
go to the lightest selection, then the lexicographically smallest; an
integer rank per value orders the kept selections, and it is re-densified
(one ``np.unique``) only when its values could next overflow int64, not
after every item.  The FPTAS rescales values first and inherits the same
DP.
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


def _min_weight_dp(values: list[int], weights: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Minimal weight per total value, and the decisions that reach it.

    Returns ``best_w`` (``inf`` where a value is unreachable) and a boolean
    ``take[item, value]`` table; :func:`_backtrack` reads a selection from
    it.  Cost: O(items x total value) numpy work and one table of that size.

    Among equal weights the lexicographically smallest selection (items by
    input position) wins.  ``rank`` orders the current best selections,
    with the end of a tuple sorting after every index; extending the
    selection at ``val - v`` beats the one at ``val`` iff its rank is lower.
    Items are added in input order with the same ``prev + w`` sums as a
    per-value loop would form, so every weight is bit-identical to it.
    Value-0 items are never taken.  Unreachable values hold the empty
    selection, like value 0, so an ``inf`` tie is never taken either.

    Only the order of the ranks matters, not their values.  An item that
    takes nothing leaves the ranks as they are; one that takes maps them
    to ``2 * rank`` (taken) or ``2 * rank + 1`` (kept), which orders them
    exactly as the same map on dense ranks would, since a rank gap of one
    becomes a key gap of at least one.  Dense ranks are at most ``total``,
    so after ``62 - (total + 1).bit_length()`` such doublings the keys
    are compressed back to dense ranks with ``np.unique``, before the
    next doubling could overflow int64.
    """
    total = sum(values)
    best_w = np.full(total + 1, np.inf)
    best_w[0] = 0.0
    rank = np.zeros(total + 1, dtype=np.int64)
    take = np.zeros((len(values), total + 1), dtype=bool)
    headroom = 62 - (total + 1).bit_length()
    doublings = 0
    for idx, (v, w) in enumerate(zip(values, weights)):
        if v == 0:
            continue
        cand = best_w[:-v] + w
        cur = best_w[v:]
        row = (cand < cur) | ((cand == cur) & (rank[:-v] < rank[v:]))
        if not row.any():
            continue
        take[idx, v:] = row
        cur[row] = cand[row]
        key = 2 * rank + 1
        key[v:][row] = 2 * rank[:-v][row]
        rank = key
        doublings += 1
        if doublings == headroom:
            rank = np.unique(rank, return_inverse=True)[1].reshape(-1)
            doublings = 0
    return best_w, take


def _backtrack(take: np.ndarray, values: list[int], val: int) -> tuple[int, ...]:
    """Item positions of the selection the DP keeps for total value ``val``."""
    sel = []
    for idx in reversed(range(len(values))):
        if take[idx, val]:
            sel.insert(0, idx)
            val -= values[idx]
    return tuple(sel)


def _select(items: list[KnapsackItem], values: list[int], budget: float) -> KnapsackSolution:
    """Highest DP value whose minimal weight fits the budget, as a selection of ``items``."""
    weights = [it.weight for it in items]
    best_w, take = _min_weight_dp(values, weights)
    fits = np.flatnonzero(best_w <= budget + WEIGHT_TOL)
    sel = _backtrack(take, values, int(fits[-1]) if fits.size else 0)
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
    factor is at most 1 the instance is already small and the exact DP is
    used directly.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    fit = [it for it in items if it.weight <= budget + WEIGHT_TOL]
    if not fit:
        return KnapsackSolution((), 0, 0.0)
    vmax = max(it.value for it in fit)
    scale = epsilon * vmax / len(fit)
    if scale <= 1.0:
        return knapsack_exact(fit, budget)
    # Items whose value scales to 0 are never taken by the DP.
    return _select(fit, [floor(it.value / scale) for it in fit], budget)


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
