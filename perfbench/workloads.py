"""Seeded instance generators and the query list of each workload.

A workload turns a seed into instance files plus a list of ``obo``
command lines that refer to them.  The same seed always gives the same
files and queries.  The generators live here, not in the test suite, so
editing a test cannot shift the benchmark's data.

Known gaps, left for later benchmark changes:

- LP pivot counts and branch-and-bound prune counts are not visible from
  the public API; they wait for the library's stats record.
- The paper example tiled three times is left out for run length (2,926
  nodes and about 29 s per solve).
- Budgets 386, 486 and 586 of the tiled example (460 to 564 nodes, 1.3
  to 1.9 s per solve) are left out: they would make one pass over the
  list about 7 s long, too few passes in a run for a steady 95th
  percentile.
- ``obo solve`` on random mixed-structure instances is not a workload
  yet.  At n = 160 and mid budgets one solve in five took 30 s for 200
  nodes and stopped heuristic.  At the price of unanimity (a few large
  LPs) it would be a third workload, which the benchmark's total run
  time does not leave room for at this run length.
- ``obo analyze`` on random mixed-structure instances (n = 400, about
  90 classes and 300 transients), the one workload where chain analysis
  dominates, is left out for the same reason: two workloads leave room
  for runs long enough to outlast the slow spells of a shared host.  The
  chain-analysis layer is still traced inside every ``obo solve``.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Budgets of the ``bnb_tiled`` solves: 4, 7 and 13 of the 24 agents
#: become supporters, after 82, 250 and 488 branch-and-bound nodes.
TILED_BUDGETS = (99, 169, 293)
TILED_COPIES = 2
#: Fractions of the total class price used as ``knapsack_classes`` budgets.
KNAPSACK_FRACTIONS = (0.1, 0.3, 0.5)
KNAPSACK_AGENTS = 2000

#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("bnb_tiled", "knapsack_classes")


@dataclass(frozen=True)
class Query:
    """One ``obo`` command line; ``instance`` is the file it reads."""

    argv: tuple[str, ...]
    instance: str


@dataclass(frozen=True)
class Workload:
    queries: tuple[Query, ...]
    #: Run once untimed per process.  It has the size of the timed
    #: queries, because the first large linear solve of a process can
    #: stall while the BLAS threads start.
    warmup: Query


def tiled_raw(paper: dict, copies: int, rng) -> dict:
    """Disjoint copies of one instance under seeded agent names.

    Agent order and weights follow the source, so the solver's work does
    not depend on the seed; the seed picks the names and the edge order
    in the file.
    """
    n = len(paper["agents"])
    names = [f"a{int(k)}" for k in rng.choice(100 * n * copies, size=n * copies, replace=False)]
    index = {a: i for i, a in enumerate(paper["agents"])}
    edges = [
        {"from": names[c * n + index[e["from"]]], "to": names[c * n + index[e["to"]]], "w": e["w"]}
        for c in range(copies) for e in paper["edges"]
    ]
    edges = [edges[int(i)] for i in rng.permutation(len(edges))]
    return {
        "agents": names,
        "edges": edges,
        "opinions": list(paper["opinions"]) * copies,
        "costs": list(paper["costs"]) * copies,
        "cost_unit": paper.get("cost_unit", "per_unit"),
        "threshold": paper["threshold"],
        "budget": paper["budget"],
    }


def classes_raw(rng, n_agents: int) -> dict:
    """No-transient instance: disjoint dense classes of 1-6 agents each."""
    agents = [f"v{i}" for i in range(n_agents)]
    edges = []
    start = 0
    while start < n_agents:
        size = min(int(rng.integers(1, 7)), n_agents - start)
        w = rng.uniform(0.1, 1.0, (size, size))
        for r in range(size):
            for c in range(size):
                edges.append({"from": agents[start + r], "to": agents[start + c], "w": float(w[r, c])})
        start += size
    return {
        "agents": agents,
        "edges": edges,
        "opinions": [float(x) for x in rng.uniform(0.0, 1.0, n_agents)],
        "costs": [float(c) for c in rng.uniform(0.5, 10.0, n_agents)],
        "threshold": float(rng.uniform(0.5, 0.9)),
        "budget": 0.0,
    }


def class_prices(raw: dict) -> list[float]:
    """Price of every ergodic class, from the library's own pricing rule."""
    # Imported here: run.py imports this module before the library is on the path.
    from opinionbudget import analyze, confidence_matrix, decompose, validate
    from opinionbudget.knapsack import class_items

    instance = validate(raw)
    cm = confidence_matrix(instance)
    return [it.weight for it in class_items(instance, analyze(cm, decompose(cm), instance.true_opinions))]


def _write(raw: dict, path: Path) -> str:
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Generate the instance files of workload ``name`` under ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "bnb_tiled":
        paper = json.loads((root / "tests" / "data" / "paper_example.json").read_text(encoding="utf-8"))
        path = _write(tiled_raw(paper, TILED_COPIES, rng), workdir / "tiled.json")
        # One solve per budget rather than one sweep: each query is then
        # short enough to be repeated many times in a run, and its output
        # reports whether branch and bound proved the optimum.
        queries = tuple(Query(("solve", path, "--budget", str(b)), path) for b in TILED_BUDGETS)
        return Workload(queries, queries[0])
    if name == "knapsack_classes":
        raw = classes_raw(rng, KNAPSACK_AGENTS)
        total = sum(class_prices(raw))
        path = _write(raw, workdir / "classes.json")
        queries = tuple(
            Query(("solve", path, "--budget", repr(f * total)), path)
            for f in KNAPSACK_FRACTIONS
        )
        return Workload(queries, queries[0])
    raise KeyError(name)
