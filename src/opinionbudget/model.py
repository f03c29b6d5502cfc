"""Domain types, validation, and JSON file I/O for budgeted opinion promotion.

An instance bundles a directed weighted influence graph, the agents' true
opinions, per-agent persuasion costs, a supporter threshold, and a payment
budget.  Costs are stored in dollars per *full* unit of opinion change;
files may declare ``"cost_unit": "per_0.1"`` to supply dollars per +0.1
instead, which the loader scales on ingest.  Everything downstream runs on
the row-stochastic confidence matrix derived from the edge weights (CSR),
each row divided by its total summed in stored (column) order.  A JSON
integer too large for a double reads as the infinity of its sign, as the
literal ``1e400`` does.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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
    sources, targets, weights : ndarray
        Edge columns: edge ``e`` gives agent ``sources[e]`` confidence
        ``weights[e] > 0`` in agent ``targets[e]``.  Only positive-weight
        edges are kept, in file order; all three arrays are read-only.
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
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
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
    """Row-stochastic confidence matrix in CSR form, memory O(n + edges): row ``i`` holds the
    ascending columns ``indices[indptr[i]:indptr[i + 1]]`` and their values ``data`` (read-only)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        n, rows, cols, a = self.n, self.rows, self.indices, self.data
        if len(rows) != len(cols) or (np.diff(rows * n + cols) <= 0).any() or ((cols < 0) | (cols >= n)).any():
            raise ValueError("confidence matrix rows must hold ascending columns in range")
        if (a < 0.0).any():
            raise ValueError("confidence matrix entries must be nonnegative")
        if np.count_nonzero((cols == rows) & (a > 0.0)) < n:  # each row has one diagonal entry at most
            raise ValueError("confidence matrix diagonal must be strictly positive")
        row_err = np.max(np.abs(np.bincount(rows, a, n) - 1.0), initial=0.0)
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {row_err:.3e})")
        self.indptr.flags.writeable = cols.flags.writeable = a.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of each stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))


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
            "payments": dict(zip(self.agents, self.payments.tolist())),
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


def _float(v) -> float:
    """A JSON number as a double; an int past the double range becomes the infinity of its sign, as ``1e400`` parses."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _floats(values) -> np.ndarray:
    """:func:`_float` of every value: one array conversion, or one per value if some int overflows it."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.array(list(map(_float, values)), dtype=float)


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
        if not all(isinstance(end, str) and end in known for end in (e["from"], e["to"])):
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
    return src, dst, _floats(w)


def _check_schema(raw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shape-level checks, run first by :func:`validate` (so also by :func:`load_instance`).

    Returns the edge columns of :func:`_edge_columns`.
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
    columns = _edge_columns(raw["edges"], {a: i for i, a in enumerate(agents)})
    for key in ("threshold", "budget"):
        if not _numbers((raw[key],)):
            raise ParseError("must be a number", field=key)
    unit = raw.get("cost_unit", "per_unit")
    if unit not in ("per_unit", "per_0.1"):
        raise ParseError(f"unknown cost_unit {unit!r}", field="cost_unit")
    return columns


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
    src, dst, w = _check_schema(raw)
    agents = tuple(raw["agents"])
    n = len(agents)
    opinions = _floats(raw["opinions"])
    costs = _floats(raw["costs"])
    if raw.get("cost_unit", "per_unit") == "per_0.1":
        costs = costs * 10.0
    threshold = _float(raw["threshold"])
    budget = _float(raw["budget"])

    violations: list[Violation] = []
    negative, nonfinite = w < 0.0, _nonfinite(w)
    for k in np.flatnonzero(negative | nonfinite).tolist():
        a, b, v = agents[src[k]], agents[dst[k]], float(w[k])
        if nonfinite[k]:
            violations.append(Violation("NonFiniteWeight", a, f"edge {a!r} -> {b!r} has non-finite weight {v}"))
        else:
            violations.append(Violation("NegativeWeight", a, f"edge {a!r} -> {b!r} has negative weight {v}"))

    positive = w > 0.0
    src, dst, w = src[positive], dst[positive], w[positive]  # the instance's edge columns
    # bincount adds each row's weights in edge order
    empty_row = np.bincount(src, weights=w, minlength=n) <= 0.0
    no_self = np.ones(n, dtype=bool)
    no_self[src[src == dst]] = False
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

    for a in (src, dst, w, opinions, costs):
        a.flags.writeable = False
    return Instance(agents, src, dst, w, opinions, costs, threshold, budget)


def confidence_matrix(instance: Instance) -> ConfidenceMatrix:
    """Row-normalized weights ``A[i, j] = w_ij / W_i``, in CSR order: one stable sort by (source, target).

    ``W_i`` adds row ``i``'s weights one by one in column order (``np.bincount``
    over the stored entries), so its bits depend on neither BLAS nor numpy's
    summation tree.
    """
    n = instance.n
    order = np.argsort(instance.sources * n + instance.targets, kind="stable")
    rows, cols, w = instance.sources[order], instance.targets[order], instance.weights[order]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return ConfidenceMatrix(indptr, cols, w / np.bincount(rows, w, n)[rows])


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
    order = np.lexsort((instance.targets, instance.sources))
    src, dst, w = (col[order].tolist() for col in (instance.sources, instance.targets, instance.weights))
    doc = {
        "agents": list(instance.agents),
        "edges": [
            {"from": instance.agents[i], "to": instance.agents[j], "w": v}
            for i, j, v in zip(src, dst, w)
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
        if not _numbers((amount,)) or not 0 <= (dollars := _float(amount)) < math.inf:
            raise ParseError(f"payment for {agent!r} must be a nonnegative number", field="payments")
        p[index[agent]] = dollars
    return p
