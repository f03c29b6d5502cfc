"""Domain types, validation, and JSON file I/O for budgeted opinion promotion.

An instance bundles a directed weighted influence graph, the agents' true
opinions, per-agent persuasion costs, a supporter threshold, and a payment
budget.  Costs are stored in dollars per *full* unit of opinion change;
files may declare ``"cost_unit": "per_0.1"`` to supply dollars per +0.1
instead, which the loader scales on ingest.  Everything downstream runs on
the row-stochastic confidence matrix derived from the edge weights.
"""

import json
import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

#: Absolute tolerance for comparisons against model constraints.
OPINION_TOL = 1e-9
#: Tolerance for row-stochasticity of the confidence matrix.
ROW_SUM_TOL = 1e-12
#: Slack allowed when checking total spend against the budget.
BUDGET_TOL = 1e-6

_REQUIRED_FIELDS = ("agents", "edges", "opinions", "costs", "threshold", "budget")


class ParseError(ValueError):
    """An instance or plan file does not match the expected JSON schema."""

    def __init__(self, message: str, *, field: str | None = None, line: int | None = None):
        detail = message
        if field is not None:
            detail += f" (field: {field})"
        if line is not None:
            detail += f" (line {line})"
        super().__init__(detail)
        self.field = field
        self.line = line


@dataclass(frozen=True)
class Violation:
    """One validation failure with a stable machine-readable code."""

    code: str
    agent: str | None
    message: str


class InvalidInstance(ValueError):
    """Raised by :func:`validate` with the full list of violations found."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.message for v in self.violations))


@dataclass(frozen=True)
class Instance:
    """A validated problem instance.

    Attributes
    ----------
    agents : tuple of str
        Agent identifiers; internal indices follow this order.
    weights : dict
        Sparse map ``(i, j) -> w_ij`` of strictly positive confidence
        weights, keyed by agent indices.
    true_opinions : ndarray
        True opinions in [0, 1], one per agent.
    costs : ndarray
        Dollars per full unit of opinion change, strictly positive.
    threshold : float
        Supporter threshold in (0, 1].
    budget : float
        Total payment budget in dollars, nonnegative.
    """

    agents: tuple[str, ...]
    weights: dict[tuple[int, int], float]
    true_opinions: np.ndarray
    costs: np.ndarray
    threshold: float
    budget: float

    @property
    def n(self) -> int:
        return len(self.agents)

    def index(self, agent: str) -> int:
        """Index of ``agent`` in file order."""
        try:
            return self.agents.index(agent)
        except ValueError:
            raise KeyError(f"unknown agent {agent!r}") from None


@dataclass(frozen=True)
class ConfidenceMatrix:
    """Dense row-stochastic matrix of normalized confidence weights."""

    matrix: np.ndarray

    def __post_init__(self):
        a = self.matrix
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("confidence matrix must be square")
        if (a < 0.0).any():
            raise ValueError("confidence matrix entries must be nonnegative")
        if (np.diag(a) <= 0.0).any():
            raise ValueError("confidence matrix diagonal must be strictly positive")
        row_err = np.max(np.abs(a.sum(axis=1) - 1.0)) if a.size else 0.0
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {row_err:.3e})")
        a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PaymentPlan:
    """Payments, the opinions they buy, and the resulting supporter set."""

    agents: tuple[str, ...]
    payments: np.ndarray
    expressed_opinions: np.ndarray
    supporters: tuple[str, ...]
    total_spend: float

    def to_dict(self) -> dict:
        return {
            "payments": {a: float(p) for a, p in zip(self.agents, self.payments)},
            "supporters": list(self.supporters),
            "total_spend": float(self.total_spend),
        }


def _numbers(values) -> bool:
    """Every value is an int or float and not a bool, as JSON numbers are.

    One set of exact types decides the common case; subclasses such as
    ``np.float64`` fall through to the per-value check.
    """
    return set(map(type, values)) <= {int, float} or all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    )


def _first_edge_fault(edges, known) -> ParseError | None:
    """The :class:`ParseError` of the first malformed edge, in list order.

    Only runs when the array checks of :func:`_edge_columns` saw a fault, or
    values of a subclass type (which pass, giving ``None``), so its per-edge
    loop is never on the path of a valid instance of plain JSON types.
    """
    seen = set()
    for e in edges:
        if not isinstance(e, dict) or not {"from", "to", "w"} <= set(e):
            return ParseError("each edge needs 'from', 'to' and 'w'", field="edges")
        if e["from"] not in known or e["to"] not in known:
            return ParseError(f"edge endpoint not in agent list: {e['from']!r} -> {e['to']!r}", field="edges")
        if not _numbers((e["w"],)):
            return ParseError("edge weight must be a number", field="edges")
        key = (e["from"], e["to"])
        if key in seen:
            return ParseError(f"duplicate edge {key[0]!r} -> {key[1]!r}", field="edges")
        seen.add(key)
    return None


def _edge_columns(edges: list, index: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source indices, target indices and weights of the edge list.

    Each column is read with one ``map`` over the edges, names mapped
    through the agent ``index``; the endpoints go straight into arrays.
    Unknown endpoints map to -1, and duplicates show as equal neighbours in
    one sort of ``src * n + dst``.  On any fault the first bad edge is
    reported by :func:`_first_edge_fault`, with the message a scan gives.
    """
    n, count = len(index), len(edges)
    try:
        src, dst = (
            np.fromiter(map(index.get, map(itemgetter(end), edges), repeat(-1)), np.intp, count)
            for end in ("from", "to")
        )
        w = list(map(itemgetter("w"), edges))
    except (KeyError, TypeError):  # a non-dict edge, a missing key or an unhashable endpoint
        raise _first_edge_fault(edges, index) from None
    keys = np.sort(src * n + dst)
    if ((src < 0).any() or (dst < 0).any() or (keys[1:] == keys[:-1]).any()
            or not set(map(type, edges)) <= {dict} or not _numbers(w)):
        fault = _first_edge_fault(edges, index)
        if fault is not None:
            raise fault
    return src, dst, np.array(w, dtype=float)


def _check_schema(raw) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Shape-level checks, run first by :func:`validate` (so also by :func:`load_instance`).

    Returns the agent index (name -> position) and the edge columns of
    :func:`_edge_columns`.
    """
    if not isinstance(raw, dict):
        raise ParseError("instance document must be a JSON object")
    for key in _REQUIRED_FIELDS:
        if key not in raw:
            raise ParseError("missing required field", field=key)
    agents = raw["agents"]
    if not isinstance(agents, list) or not agents:
        raise ParseError("agent list must be a non-empty array", field="agents")
    if not (set(map(type, agents)) <= {str} or all(isinstance(a, str) for a in agents)):
        raise ParseError("agent identifiers must be strings", field="agents")
    if len(set(agents)) != len(agents):
        dupes = sorted({a for a in agents if agents.count(a) > 1})
        raise ParseError(f"duplicate agent id(s): {dupes}", field="agents")
    n = len(agents)
    for key in ("opinions", "costs"):
        vec = raw[key]
        if not isinstance(vec, list) or len(vec) != n:
            raise ParseError(f"expected {n} entries, one per agent", field=key)
        if not _numbers(vec):
            raise ParseError("entries must be numbers", field=key)
    if not isinstance(raw["edges"], list):
        raise ParseError("edges must be an array", field="edges")
    index = {a: i for i, a in enumerate(agents)}
    columns = _edge_columns(raw["edges"], index)
    for key in ("threshold", "budget"):
        if not _numbers((raw[key],)):
            raise ParseError("must be a number", field=key)
    unit = raw.get("cost_unit", "per_unit")
    if unit not in ("per_unit", "per_0.1"):
        raise ParseError(f"unknown cost_unit {unit!r}", field="cost_unit")
    return (index, *columns)


def _nonfinite(x):
    """NaN or +inf: the non-finite values that no sign check already rejects."""
    return ~np.isfinite(x) & ~(x < 0.0)


def validate(raw: dict) -> Instance:
    """Check raw instance data against the model assumptions.

    Returns a validated :class:`Instance`, or raises
    :class:`InvalidInstance` carrying one :class:`Violation` per failure
    (all problems are reported, not just the first): edge faults in edge
    order, then each agent's faults in agent order, then the budget and
    the threshold.  Every check is one array mask; only the violations
    found are built one by one.
    """
    index, src, dst, w = _check_schema(raw)
    agents = tuple(raw["agents"])
    n = len(agents)
    opinions = np.asarray(raw["opinions"], dtype=float)
    costs = np.asarray(raw["costs"], dtype=float)
    if raw.get("cost_unit", "per_unit") == "per_0.1":
        costs = costs * 10.0
    threshold = float(raw["threshold"])
    budget = float(raw["budget"])

    violations: list[Violation] = []
    negative, nonfinite = w < 0.0, _nonfinite(w)
    for k in np.flatnonzero(negative | nonfinite).tolist():
        a, b, v = agents[src[k]], agents[dst[k]], float(w[k])
        if nonfinite[k]:
            violations.append(Violation("NonFiniteWeight", a, f"edge {a!r} -> {b!r} has non-finite weight {v}"))
        else:
            violations.append(Violation("NegativeWeight", a, f"edge {a!r} -> {b!r} has negative weight {v}"))

    positive = w > 0.0
    # bincount adds each row's weights in edge order
    empty_row = np.bincount(src[positive], weights=w[positive], minlength=n) <= 0.0
    no_self = np.ones(n, dtype=bool)
    no_self[src[positive & (src == dst)]] = False
    del src, dst, w  # dropped before the weights dict is built, to keep the peak down
    bad_opinion = ~((0.0 <= opinions) & (opinions <= 1.0))
    bad_cost, nonfinite_cost = costs <= 0.0, _nonfinite(costs)
    for i in np.flatnonzero(no_self | empty_row | bad_opinion | bad_cost | nonfinite_cost).tolist():
        a = agents[i]
        if no_self[i]:
            violations.append(Violation("NoSelfConfidence", a,
                                        f"agent {a!r} must have a positive self-weight"))
        if empty_row[i]:
            violations.append(Violation("NonStochasticRow", a,
                                        f"agent {a!r} has zero total outgoing weight; row cannot be normalized"))
        if bad_opinion[i]:
            violations.append(Violation("OpinionOutOfRange", a,
                                        f"opinion {opinions[i]} of agent {a!r} is outside [0, 1]"))
        if bad_cost[i]:
            violations.append(Violation("NonpositiveCost", a,
                                        f"cost {costs[i]} of agent {a!r} must be strictly positive"))
        if nonfinite_cost[i]:
            violations.append(Violation("NonFiniteCost", a, f"cost {costs[i]} of agent {a!r} must be finite"))
    if budget < 0.0:
        violations.append(Violation("NegativeBudget", None, f"budget {budget} must be nonnegative"))
    elif not math.isfinite(budget):
        violations.append(Violation("NonFiniteBudget", None, f"budget {budget} must be finite"))
    if not (0.0 < threshold <= 1.0):
        violations.append(Violation("ThresholdOutOfRange", None,
                                    f"threshold {threshold} must lie in (0, 1]"))

    if violations:
        raise InvalidInstance(violations)

    # Keys and values are the file's own objects (the index's ints, the
    # parsed floats), so the weights hold no per-edge copies.
    keep = positive.tolist()
    edges = raw["edges"]
    ends = (compress(map(index.__getitem__, map(itemgetter(end), edges)), keep) for end in ("from", "to"))
    weights = dict(zip(zip(*ends), map(float, compress(map(itemgetter("w"), edges), keep))))
    opinions.flags.writeable = False
    costs.flags.writeable = False
    return Instance(agents, weights, opinions, costs, threshold, budget)


def confidence_matrix(instance: Instance) -> ConfidenceMatrix:
    """Row-normalize the weights: ``A[i, j] = w_ij / W_i``."""
    n, count = instance.n, len(instance.weights)
    ij = np.fromiter(chain.from_iterable(instance.weights), np.intp, 2 * count)
    w = np.zeros((n, n))
    w.ravel()[ij[0::2] * n + ij[1::2]] = np.fromiter(instance.weights.values(), float, count)
    del ij  # not held while the row sums and the matrix checks allocate
    w /= w.sum(axis=1, keepdims=True)
    return ConfidenceMatrix(w)


def load_instance(path) -> Instance:
    """Load and validate an instance JSON file.

    Raises :class:`ParseError` on malformed files and
    :class:`InvalidInstance` on model violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    return validate(raw)


def save_instance(instance: Instance, path) -> None:
    """Write an instance back to its canonical JSON form (costs per unit)."""
    doc = {
        "agents": list(instance.agents),
        "edges": [
            {"from": instance.agents[i], "to": instance.agents[j], "w": w}
            for (i, j), w in sorted(instance.weights.items())
        ],
        "opinions": [float(x) for x in instance.true_opinions],
        "costs": [float(c) for c in instance.costs],
        "cost_unit": "per_unit",
        "threshold": instance.threshold,
        "budget": instance.budget,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_plan(plan: PaymentPlan, path) -> None:
    """Write a payment plan as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan.to_dict(), fh, indent=2)
        fh.write("\n")


def load_payments(path, instance: Instance) -> np.ndarray:
    """Read the payments map of a plan file into a vector in agent order."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    if not isinstance(doc, dict) or "payments" not in doc:
        raise ParseError("plan document must contain a 'payments' map", field="payments")
    payments = doc["payments"]
    if not isinstance(payments, dict):
        raise ParseError("'payments' must map agent ids to dollars", field="payments")
    p = np.zeros(instance.n)
    index = {a: i for i, a in enumerate(instance.agents)}
    for agent, amount in payments.items():
        if agent not in index:
            raise ParseError(f"payment for unknown agent {agent!r}", field="payments")
        if not _numbers((amount,)) or not 0 <= amount < math.inf:
            raise ParseError(f"payment for {agent!r} must be a nonnegative number", field="payments")
        p[index[agent]] = float(amount)
    return p
