"""Correctness gate, run after the timed passes.

Every distinct query's output is checked once; repeated passes must have
printed the same bytes (the client checks that).  A plan is re-evaluated
with ``evaluate_plan`` and its supporter set confirmed by power iteration
(``iterate_dynamics``).  Its supporter count must equal an independent
optimum: HiGHS (``scipy.optimize.milp``) on the same linearization, or on
the same class knapsack in knapsack mode.  HiGHS is used here only, never
as a solver backend of the program.
"""

import json

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from opinionbudget import (
    analyze,
    build_milp,
    confidence_matrix,
    decompose,
    evaluate_plan,
    iterate_dynamics,
    load_instance,
)
from opinionbudget.knapsack import class_items
from opinionbudget.model import BUDGET_TOL, OPINION_TOL

HIGHS_OPTIONS = {"mip_rel_gap": 0.0, "time_limit": 10.0}


def _highs_max(values, rows, upper_rhs, upper, integrality) -> int:
    res = milp(
        -np.asarray(values, dtype=float),
        constraints=LinearConstraint(rows, -np.inf, upper_rhs),
        bounds=Bounds(np.zeros(len(values)), upper),
        integrality=integrality,
        options=HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return int(round(-res.fun))


def highs_supporters(instance, analysis, budget: float) -> int:
    """Maximum supporter count of the indicator linearization, by HiGHS."""
    mi = build_milp(instance, analysis, budget=budget)
    n, q = instance.n, len(mi.pay_agents)
    if mi.degenerate:
        return n
    rows = np.zeros((1 + n, q + n))
    rows[0, :q] = 1.0
    rows[1:, :q] = -mi.rates
    rows[1:, q:] = (mi.threshold - mi.lower_bound) * np.eye(n)
    rhs = np.concatenate([[budget], mi.baseline - mi.lower_bound])
    return _highs_max(
        np.concatenate([np.zeros(q), np.ones(n)]), rows, rhs,
        np.concatenate([mi.caps, np.ones(n)]),
        np.concatenate([np.zeros(q), np.ones(n)]),
    )


def highs_knapsack(instance, analysis, budget: float) -> int:
    """Maximum agents covered by classes whose prices fit the budget, by HiGHS."""
    items = class_items(instance, analysis)
    if not items:
        return 0
    return _highs_max(
        [it.value for it in items],
        np.array([[it.weight for it in items]]), [budget],
        np.ones(len(items)), np.ones(len(items)),
    )


class _Loaded:
    def __init__(self, path):
        self.instance = load_instance(path)
        self.cm = confidence_matrix(self.instance)
        self.analysis = analyze(self.cm, decompose(self.cm), self.instance.true_opinions)


def _check_plan(data: _Loaded, plan: dict, budget: float, optimum) -> list[str]:
    inst = data.instance
    problems = []
    payments = np.array([plan["payments"][a] for a in inst.agents], dtype=float)
    claimed = set(plan["supporters"])
    try:
        evaluated = evaluate_plan(inst, data.analysis, payments, budget=budget)
    except ValueError as e:
        return [f"budget {budget}: plan rejected by evaluate_plan: {e}"]
    if set(evaluated.supporters) != claimed:
        problems.append(f"budget {budget}: evaluate_plan gives another supporter set")
    final, _ = iterate_dynamics(data.cm, inst.true_opinions + payments / inst.costs)
    iterated = {a for a, x in zip(inst.agents, final) if x >= inst.threshold - OPINION_TOL}
    if iterated != claimed:
        problems.append(f"budget {budget}: power iteration gives {len(iterated)} supporters, "
                        f"plan claims {len(claimed)}")
    if float(np.sum(payments)) > budget + BUDGET_TOL:
        problems.append(f"budget {budget}: plan spends {np.sum(payments)}")
    best = optimum(inst, data.analysis, budget)
    if best != len(claimed):
        problems.append(f"budget {budget}: {len(claimed)} supporters, HiGHS optimum {best}")
    return problems


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check(argv: list[str], instance_path: str, output: str) -> list[str]:
    """Problems found in one query's output; empty when it is correct."""
    data = _Loaded(instance_path)
    doc = json.loads(output)
    command = argv[0]
    if command == "solve":
        budget = _option(argv, "--budget")
        budget = data.instance.budget if budget is None else float(budget)
        problems = []
        if doc.get("optimality") == "heuristic":
            problems.append("solver stopped at the node limit (heuristic)")
        if doc["supporter_count"] != len(doc["supporters"]):
            problems.append("supporter_count disagrees with the supporter list")
        optimum = highs_knapsack if doc["mode"] == "knapsack" else highs_supporters
        return problems + _check_plan(data, doc, budget, optimum)
    return [f"no correctness check for command {command!r}"]
