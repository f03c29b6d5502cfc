"""Exact knapsack DP, the FPTAS, and the no-transient pipeline."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from opinionbudget.chain_analysis import analyze
from opinionbudget.decompose import decompose
from opinionbudget import knapsack
from opinionbudget.knapsack import (
    WEIGHT_TOL,
    KnapsackItem,
    TransientsPresent,
    _backtrack,
    _min_weight_dp,
    _value_cap,
    class_items,
    knapsack_exact,
    knapsack_fptas,
    solve_by_classes,
)
from opinionbudget.model import confidence_matrix, validate

from conftest import classes_raw, random_instance

PAPER_ITEMS = [KnapsackItem(0, 3, 210.0), KnapsackItem(1, 4, 99.0)]


def enumerate_best(items, budget):
    """Oracle: full subset enumeration with the documented tie-breaks."""
    best = (0, 0.0, ())
    for mask in range(1 << len(items)):
        sel = tuple(i for i in range(len(items)) if mask >> i & 1)
        weight = sum(items[i].weight for i in sel)
        value = sum(items[i].value for i in sel)
        if weight > budget + 1e-9:
            continue
        cand = (value, weight, sel)
        if (cand[0] > best[0]
                or (cand[0] == best[0] and cand[1] < best[1])
                or (cand[0] == best[0] and cand[1] == best[1] and cand[2] < best[2])):
            best = cand
    return best


def random_items(rng, count):
    return [
        KnapsackItem(i, int(rng.integers(1, 21)), float(rng.uniform(0, 50)))
        for i in range(count)
    ]


def test_paper_items_budget_309():
    sol = knapsack_exact(PAPER_ITEMS, 309.0)
    assert set(sol.selected) == {0, 1}
    assert sol.total_value == 7
    assert abs(sol.total_weight - 309.0) <= 1e-9


def test_paper_items_budget_99():
    sol = knapsack_exact(PAPER_ITEMS, 99.0)
    assert sol.selected == (1,)
    assert sol.total_value == 4


def test_zero_budget_empty_selection():
    sol = knapsack_exact(PAPER_ITEMS, 0.0)
    assert sol.selected == ()
    assert sol.total_value == 0
    assert sol.total_weight == 0.0


def test_exact_matches_enumeration():
    rng = np.random.default_rng(79)
    for size in list(range(1, 17)) + [8] * 24:
        items = random_items(rng, size)
        budget = float(rng.uniform(0, sum(it.weight for it in items)))
        value, weight, sel = enumerate_best(items, budget)
        sol = knapsack_exact(items, budget)
        assert sol.total_value == value
        assert abs(sol.total_weight - weight) <= 1e-9
        assert tuple(sorted(sol.selected)) == sel


def test_exact_lexicographic_tie_break():
    items = [KnapsackItem(0, 2, 5.0), KnapsackItem(1, 2, 5.0)]
    sol = knapsack_exact(items, 5.0)
    assert sol.selected == (0,)


def test_zero_weight_items_always_selected():
    items = [KnapsackItem(0, 3, 0.0), KnapsackItem(1, 1, 10.0)]
    sol = knapsack_exact(items, 0.0)
    assert sol.selected == (0,)
    assert sol.total_value == 3


def test_fptas_tiny_instance_exact():
    sol = knapsack_fptas(PAPER_ITEMS, 309.0, 0.1)
    assert sol.total_value == 7


def test_fptas_single_item_any_epsilon():
    items = [KnapsackItem(0, 5, 3.0)]
    for eps in (0.5, 0.1, 0.01):
        assert knapsack_fptas(items, 10.0, eps).selected == (0,)


def test_fptas_bound_on_random_instances():
    rng = np.random.default_rng(83)
    for _ in range(30):
        items = random_items(rng, 50)
        budget = float(rng.uniform(0, sum(it.weight for it in items)))
        exact = knapsack_exact(items, budget).total_value
        for eps in (0.5, 0.1, 0.01):
            sol = knapsack_fptas(items, budget, eps)
            assert sol.total_value >= math.ceil((1 - eps) * exact)
            assert sol.total_weight <= budget + 1e-9


def test_fptas_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        knapsack_fptas(PAPER_ITEMS, 10.0, 0.0)
    with pytest.raises(ValueError):
        knapsack_fptas(PAPER_ITEMS, 10.0, 1.0)


def test_item_validation():
    with pytest.raises(ValueError):
        KnapsackItem(0, 0, 1.0)
    with pytest.raises(ValueError):
        KnapsackItem(0, 1, -1.0)


def no_transient_instance(rng):
    """Random instance whose chain is a disjoint union of dense classes."""
    sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    agents = []
    edges = []
    start = 0
    for size in sizes:
        block = [f"v{start + i}" for i in range(size)]
        agents.extend(block)
        for x in block:
            for y in block:
                edges.append({"from": x, "to": y, "w": float(rng.uniform(0.2, 1.0))})
        start += size
    n = len(agents)
    opinions = rng.uniform(0, 1, n)
    costs = rng.uniform(0.5, 10.0, n)
    caps = float(np.sum(costs * (1 - opinions)))
    return validate({
        "agents": agents,
        "edges": edges,
        "opinions": [float(x) for x in opinions],
        "costs": [float(c) for c in costs],
        "threshold": float(rng.uniform(0.3, 0.95)),
        "budget": float(rng.uniform(0, caps)),
    })


def test_solve_by_classes_pays_selected_classes_only():
    rng = np.random.default_rng(89)
    for _ in range(20):
        inst = no_transient_instance(rng)
        cm = confidence_matrix(inst)
        an = analyze(cm, decompose(cm), inst.true_opinions)
        plan, sol = solve_by_classes(inst, an)
        assert plan.total_spend <= inst.budget + 1e-6
        selected_members = {
            i for k in sol.selected for i in an.decomposition.classes[k]
        }
        for i in range(inst.n):
            if i not in selected_members:
                assert plan.payments[i] == 0.0
        # every member of a selected class becomes a supporter
        for k in sol.selected:
            for i in an.decomposition.classes[k]:
                assert inst.agents[i] in plan.supporters


def test_solve_by_classes_rejects_transients(paper_instance, paper_analysis):
    with pytest.raises(TransientsPresent):
        solve_by_classes(paper_instance, paper_analysis)


def test_class_items_on_modified_paper_instance(paper_instance, paper_analysis):
    items = class_items(paper_instance, paper_analysis)
    assert [it.value for it in items] == [3, 4]
    assert abs(items[0].weight - 210.0) <= 1e-9
    assert abs(items[1].weight - 99.0) <= 1e-9


def _reference_min_weight_dp(values, weights):
    """Per-value tuple DP: the minimal weight and its lex-smallest selection."""
    total = sum(values)
    best_w = [np.inf] * (total + 1)
    best_sel = [()] * (total + 1)
    best_w[0] = 0.0
    for idx, (v, w) in enumerate(zip(values, weights)):
        for val in range(total, v - 1, -1):
            prev = best_w[val - v]
            if prev == np.inf:
                continue
            cand_w = prev + w
            cand_sel = best_sel[val - v] + (idx,)
            if cand_w < best_w[val] or (cand_w == best_w[val] and cand_sel < best_sel[val]):
                best_w[val] = cand_w
                best_sel[val] = cand_sel
    return best_w, best_sel


def _reference_pick(values, weights, budget):
    best_w, best_sel = _reference_min_weight_dp(values, weights)
    pick = max(val for val, w in enumerate(best_w) if w <= budget + WEIGHT_TOL)
    return best_sel[pick]


def tie_heavy_lists(rng, count):
    """Item lists of the four kinds: continuous weights, weights in
    {0, 1, 2, 3}, weights repeated from a small pool, and value-0 items."""
    for t in range(count):
        n = int(rng.integers(0, 13))
        kind = t % 4
        values = [int(v) for v in rng.integers(0 if kind == 3 else 1, 7, n)]
        if kind == 0:
            weights = rng.uniform(0, 10, n)
        elif kind == 1:
            weights = rng.integers(0, 4, n)
        else:
            weights = rng.choice(rng.uniform(0, 1, 3), n)
        yield values, [float(w) for w in weights]


def test_dp_matches_reference_at_every_value():
    rng = np.random.default_rng(97)
    for values, weights in tie_heavy_lists(rng, 800):
        ref_w, ref_sel = _reference_min_weight_dp(values, weights)
        best_w, take = _min_weight_dp(values, weights)
        assert best_w.tolist() == ref_w
        for val in range(len(ref_w)):
            assert _backtrack(take, values, val) == ref_sel[val]


def test_exact_matches_reference_selection():
    rng = np.random.default_rng(101)
    for values, weights in tie_heavy_lists(rng, 400):
        values = [max(v, 1) for v in values]
        items = [KnapsackItem(i, v, w) for i, (v, w) in enumerate(zip(values, weights))]
        budget = float(rng.uniform(0, sum(weights) + 1))
        sol = knapsack_exact(items, budget)
        assert sol.selected == _reference_pick(values, weights, budget)
        assert sol.total_value == sum(values[i] for i in sol.selected)


def test_fptas_matches_reference_on_scaled_values():
    rng = np.random.default_rng(103)
    scaled_runs = 0
    for _ in range(60):
        count = int(rng.integers(2, 25))
        values = rng.integers(1, 400, count)
        weights = rng.choice([0.0, 1.0, 2.5, 4.0, float(rng.uniform(0, 5))], count)
        items = [KnapsackItem(i, int(v), float(w)) for i, (v, w) in enumerate(zip(values, weights))]
        budget = float(rng.uniform(0, weights.sum() + 1))
        for eps in (0.5, 0.1):
            fit = [it for it in items if it.weight <= budget + WEIGHT_TOL]
            if not fit:
                continue
            scale = eps * max(it.value for it in fit) / len(fit)
            if scale <= 1.0:
                continue
            scaled_runs += 1
            scaled = [math.floor(it.value / scale) for it in fit]
            sel = _reference_pick(scaled, [it.weight for it in fit], budget)
            assert knapsack_fptas(items, budget, eps).selected == tuple(fit[i].class_index for i in sel)
    assert scaled_runs > 50


def test_solve_by_classes_prices_each_class_once(monkeypatch):
    calls = []
    price = knapsack.min_budget_stack

    def counting(pi, *args):
        calls.append(len(pi))
        return price(pi, *args)

    monkeypatch.setattr(knapsack, "min_budget_stack", counting)
    rng = np.random.default_rng(107)
    for _ in range(20):
        inst = no_transient_instance(rng)
        cm = confidence_matrix(inst)
        an = analyze(cm, decompose(cm), inst.true_opinions)
        calls.clear()
        for epsilon in (None, 0.1):
            solve_by_classes(inst, an, epsilon=epsilon)
        assert len(calls) == 2 * len(set(an.decomposition.sizes))
        assert sum(calls) == 2 * len(an.decomposition.classes)


def long_tie_lists(rng, count):
    """Lists of 150-200 items, values 1-6, weights in {0, 1, 2, 3} or from
    a 3-value pool: long enough that the DP compresses its ranks."""
    for t in range(count):
        n = int(rng.integers(150, 201))
        values = [int(v) for v in rng.integers(1, 7, n)]
        weights = rng.integers(0, 4, n) if t % 2 else rng.choice(rng.uniform(0, 1, 3), n)
        yield values, [float(w) for w in weights]


def test_dp_matches_reference_through_rank_compression(monkeypatch):
    compressions = []
    unique = np.unique

    def counting(*args, **kwargs):
        compressions.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    rng = np.random.default_rng(113)
    for values, weights in long_tie_lists(rng, 4):
        compressions.clear()
        ref_w, ref_sel = _reference_min_weight_dp(values, weights)
        best_w, take = _min_weight_dp(values, weights)
        assert len(compressions) >= 2
        assert best_w.tolist() == ref_w
        for val in range(len(ref_w)):
            assert _backtrack(take, values, val) == ref_sel[val]
        items = [KnapsackItem(i, v, w) for i, (v, w) in enumerate(zip(values, weights))]
        budget = float(rng.uniform(0, sum(weights) + 1))
        assert knapsack_exact(items, budget).selected == _reference_pick(values, weights, budget)


def test_fptas_matches_reference_through_rank_compression():
    rng = np.random.default_rng(127)
    for values, weights in long_tie_lists(rng, 4):
        # one weightless item of value 400 makes the value scale exceed 1
        at = int(rng.integers(0, len(values) + 1))
        values.insert(at, 400)
        weights.insert(at, 0.0)
        items = [KnapsackItem(i, v, w) for i, (v, w) in enumerate(zip(values, weights))]
        budget = float(rng.uniform(3, sum(weights) + 1))
        eps = 0.9
        scale = eps * 400 / len(items)
        assert scale > 1.0
        scaled = [math.floor(v / scale) for v in values]
        sel = _reference_pick(scaled, weights, budget)
        assert knapsack_fptas(items, budget, eps).selected == sel


def _fits(best_w, budget):
    """The DP's answer value at ``budget``."""
    return int(np.flatnonzero(best_w <= budget + WEIGHT_TOL)[-1])


def test_capped_dp_is_the_uncapped_prefix():
    rng = np.random.default_rng(137)
    lists = [*tie_heavy_lists(rng, 300), *long_tie_lists(rng, 3)]
    for values, weights in lists:
        best_w, take = _min_weight_dp(values, weights)
        total = sum(values)
        answer = _fits(best_w, float(rng.uniform(0, sum(weights) + 1)))
        short = total < 100
        for cap in range(answer, total + 1):
            capped_w, capped_take = _min_weight_dp(values, weights, cap)
            assert capped_w.tobytes() == best_w[:cap + 1].tobytes()
            assert capped_take.tobytes() == take[:, :cap + 1].tobytes()
            for val in range(cap + 1) if short else ():
                assert _backtrack(capped_take, values, val) == _backtrack(take, values, val)


def weightless_lists(rng, count):
    """Short lists with weightless items (+0.0 and -0.0), equal value/weight
    ratios and a mix of large and small values, each with the budgets 0,
    the weight of one selection summed in item order, and the total."""
    for t in range(count):
        n = int(rng.integers(0, 11))
        values = [int(v) for v in rng.choice([1, 2, 3, 5, 40, 150, 400], n)]
        kind = t % 3
        if kind == 0:
            weights = [float(w) for w in rng.choice([0.0, -0.0, 1.0, 2.5, float(rng.uniform(0, 5))], n)]
        elif kind == 1:  # equal ratios
            ratios = rng.choice([0.0, -0.0, 0.5, 1.5], n)
            weights = [float(r * v) for r, v in zip(ratios, values)]
        else:
            weights = [float(w) for w in rng.uniform(0, 10, n) * (rng.random(n) < 0.7)]
            weights = [-0.0 if w == 0.0 and rng.random() < 0.5 else w for w in weights]
        chosen = 0.0
        for i in range(n):
            if rng.random() < 0.5:
                chosen += weights[i]
        yield values, weights, (0.0, chosen, sum(weights))


def test_exact_and_fptas_match_reference_with_weightless_items():
    rng = np.random.default_rng(139)
    scaled_zero = 0
    for values, weights, budgets in weightless_lists(rng, 2100):
        items = [KnapsackItem(i, v, w) for i, (v, w) in enumerate(zip(values, weights))]
        for budget in (*budgets, -1.0, -2 * WEIGHT_TOL, math.nan):
            sol = knapsack_exact(items, budget)
            # Below -WEIGHT_TOL or at NaN not even the empty selection fits.
            sel = _reference_pick(values, weights, budget) if 0.0 <= budget + WEIGHT_TOL else ()
            assert sol.selected == sel
            assert sol.total_weight.hex() == float(sum(weights[i] for i in sel)).hex()
            fit = [it for it in items if it.weight <= budget + WEIGHT_TOL]
            if not fit:
                continue
            scale = 0.5 * max(it.value for it in fit) / len(fit)
            scaled = [math.floor(it.value / scale) for it in fit] if scale > 1.0 else [it.value for it in fit]
            scaled_zero += 0 in scaled
            sel = _reference_pick(scaled, [it.weight for it in fit], budget)
            assert knapsack_fptas(items, budget, 0.5).selected == tuple(fit[i].class_index for i in sel)
    assert scaled_zero > 500


def test_value_cap_is_never_below_the_answer():
    rng = np.random.default_rng(149)
    cases = [(v, w) for v, w, _ in weightless_lists(rng, 600)]
    cases += [(v, w) for v, w in tie_heavy_lists(rng, 600)]
    cases += [([int(v) for v in rng.integers(1, 7, 300)], [float(w) for w in rng.uniform(0, 10, 300)])
              for _ in range(5)]
    for values, weights in cases:
        best_w, _ = _min_weight_dp(values, weights)
        reachable = best_w[np.isfinite(best_w)]
        for budget in (0.0, *rng.choice(reachable, 3).tolist(), float(rng.uniform(0, sum(weights) + 1)),
                       sum(weights)):
            assert _value_cap(values, weights, budget) >= _fits(best_w, budget)


def test_solve_by_classes_memory_is_bounded_by_the_budget():
    """The DP fills only the values 0.1 of the total class price can buy:
    a 2.3 MB peak on this 5,000-agent instance, against 7.4 MB when the
    DP fills every value."""
    instance = validate(classes_raw(np.random.default_rng(160), 5000))
    cm = confidence_matrix(instance)
    analysis = analyze(cm, decompose(cm), instance.true_opinions)
    budget = 0.1 * sum(it.weight for it in class_items(instance, analysis))
    tracemalloc.start()
    try:
        solve_by_classes(instance, analysis, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20

