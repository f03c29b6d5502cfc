"""Shared fixtures, random-instance generators and the HiGHS reference."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from opinionbudget.chain_analysis import analyze
from opinionbudget.decompose import decompose
from opinionbudget.model import ConfidenceMatrix, confidence_matrix, load_instance, validate

DATA = Path(__file__).parent / "data"
PAPER_EXAMPLE = DATA / "paper_example.json"


@pytest.fixture(scope="session")
def paper_instance():
    return load_instance(PAPER_EXAMPLE)


@pytest.fixture(scope="session")
def paper_matrix(paper_instance):
    return confidence_matrix(paper_instance)


@pytest.fixture(scope="session")
def paper_decomposition(paper_matrix):
    return decompose(paper_matrix)


@pytest.fixture(scope="session")
def paper_analysis(paper_instance, paper_matrix, paper_decomposition):
    return analyze(paper_matrix, paper_decomposition, paper_instance.true_opinions)


def csr(dense):
    """The :class:`ConfidenceMatrix` of a dense row-stochastic array: its nonzero entries, row by row."""
    rows, cols = np.nonzero(dense)
    return ConfidenceMatrix(np.searchsorted(rows, np.arange(len(dense) + 1)), cols, dense[rows, cols])


def dense(cm):
    """The dense array of a :class:`ConfidenceMatrix`, as a reference the library never forms."""
    a = np.zeros((cm.n, cm.n))
    a[cm.rows, cm.indices] = cm.data
    return a


def random_raw(rng, n_min=2, n_max=12, budget_scale=1.0):
    """Raw dict for a random valid instance with mixed chain structure."""
    n = int(rng.integers(n_min, n_max + 1))
    agents = [f"v{i}" for i in range(n)]
    weights = {}
    for i in range(n):
        weights[(i, i)] = float(rng.uniform(0.3, 1.2))
        out_degree = int(rng.integers(0, min(4, n)))
        targets = rng.choice(n, size=out_degree, replace=False)
        for j in targets:
            j = int(j)
            if j != i:
                weights[(i, j)] = float(rng.uniform(0.1, 1.0))
    opinions = rng.uniform(0.0, 1.0, n)
    costs = rng.uniform(0.5, 10.0, n)
    caps_total = float(np.sum(costs * (1.0 - opinions)))
    return {
        "agents": agents,
        "edges": [
            {"from": agents[i], "to": agents[j], "w": w}
            for (i, j), w in sorted(weights.items())
        ],
        "opinions": [float(x) for x in opinions],
        "costs": [float(c) for c in costs],
        "threshold": float(rng.uniform(0.2, 0.95)),
        "budget": float(rng.uniform(0.0, budget_scale * caps_total)),
    }


def random_instance(rng, n_min=2, n_max=12, budget_scale=1.0):
    return validate(random_raw(rng, n_min, n_max, budget_scale))


def classes_raw(rng, n_agents, budget=0.0):
    """Raw dict for an instance without transient states: disjoint dense classes of 1-6 agents."""
    agents = [f"v{i}" for i in range(n_agents)]
    edges = []
    start = 0
    while start < n_agents:
        size = min(int(rng.integers(1, 7)), n_agents - start)
        w = rng.uniform(0.1, 1.0, (size, size))
        edges += [{"from": agents[start + r], "to": agents[start + c], "w": float(w[r, c])}
                  for r in range(size) for c in range(size)]
        start += size
    return {
        "agents": agents,
        "edges": edges,
        "opinions": [float(x) for x in rng.uniform(0.0, 1.0, n_agents)],
        "costs": [float(c) for c in rng.uniform(0.5, 10.0, n_agents)],
        "threshold": float(rng.uniform(0.5, 0.9)),
        "budget": budget,
    }


def random_class(rng, n_max=6):
    """Random irreducible aperiodic class: stationary vector, opinions, costs."""
    nk = int(rng.integers(1, n_max + 1))
    e = rng.uniform(0.1, 1.0, (nk, nk))
    e /= e.sum(axis=1, keepdims=True)
    opinions = rng.uniform(0.0, 1.0, nk)
    costs = rng.uniform(0.5, 10.0, nk)
    return e, opinions, costs


def full_hitting(decomposition, block):
    """The (classes x agents) hitting matrix from its (classes x transients) block.

    A recurrent agent is absorbed by its own class, so its column is that
    class's indicator; transient columns come from ``block`` in
    ``decomposition.transient`` order.
    """
    h = np.zeros((len(decomposition.classes), decomposition.n))
    for k, members in enumerate(decomposition.classes):
        h[k, list(members)] = 1.0
    h[:, list(decomposition.transient)] = block
    return h


def tiled_paper(copies):
    """Disjoint copies of the paper example, agents renamed per copy."""
    raw = json.loads(PAPER_EXAMPLE.read_text(encoding="utf-8"))
    return validate({
        **raw,
        "agents": [f"{a}{c}" for c in range(copies) for a in raw["agents"]],
        "edges": [
            {"from": f"{e['from']}{c}", "to": f"{e['to']}{c}", "w": e["w"]}
            for c in range(copies) for e in raw["edges"]
        ],
        "opinions": raw["opinions"] * copies,
        "costs": raw["costs"] * copies,
    })


def highs_per_agent_optimum(mi):
    """Supporter optimum of the per-agent indicator linearization, by HiGHS."""
    n, q = mi.instance.n, len(mi.pay_agents)
    rows = np.zeros((1 + n, q + n))
    rows[0, :q] = 1.0
    rows[1:, :q] = -mi.rates
    rows[1:, q:] = (mi.threshold - mi.lower_bound) * np.eye(n)
    rhs = np.concatenate([[mi.budget], mi.baseline - mi.lower_bound])
    res = milp(
        np.concatenate([np.zeros(q), -np.ones(n)]),
        constraints=LinearConstraint(rows, -np.inf, rhs),
        bounds=Bounds(np.zeros(q + n), np.concatenate([mi.caps, np.ones(n)])),
        integrality=np.concatenate([np.zeros(q), np.ones(n)]),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return int(round(-res.fun))
