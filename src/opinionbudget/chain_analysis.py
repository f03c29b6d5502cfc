"""Stationary distributions, hitting probabilities, and asymptotic opinions.

The closed forms are all small dense linear systems: each ergodic class
converges to the consensus ``pi . x(0)`` over its members (the stationary
vectors of all classes of one size come from one stacked solve), and one solve
of ``(I - Q) H_T = R`` over the transient states gives the (classes x
agents) hitting matrix ``H`` (Kemeny & Snell's ``B = N R``), so the limit
opinions are ``consensus @ H``.  This module also owns the price rule
``x(0) = xhat + p / c`` and the supporter rule.  A plain power iteration
of ``x <- A x`` serves as the independent oracle for every closed-form
quantity here.
"""

from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition, class_blocks
from .model import ConfidenceMatrix, Instance, OPINION_TOL, BUDGET_TOL, PaymentPlan

#: Residual bound for the stationary and hitting linear solves.
SOLVE_TOL = 1e-10
#: How far below zero a stationary vector entry may round.
STATIONARY_NEG_TOL = 1e-12


class SingularSystem(RuntimeError):
    """A chain linear system could not be solved to tolerance.

    Signals a decomposition bug or an invalid input matrix rather than a
    user error.
    """


class NonConvergence(RuntimeError):
    """Power iteration hit the step limit before the change dropped below tol."""

    def __init__(self, steps: int, change: float):
        super().__init__(f"no convergence after {steps} steps (last change {change:.3e})")
        self.steps = steps
        self.change = change


def _stationary_stack(blocks: np.ndarray) -> np.ndarray:
    """Stationary vectors of a ``(count, m, m)`` stack of class matrices.

    Solves every ``pi' E = pi'`` with one balance equation replaced by the
    normalization ``sum(pi) = 1``, all in one batched solve; raises
    :class:`SingularSystem` when any block is not irreducible (multiple
    eigenvectors at 1).  Returns one row per block.
    """
    count, m, _ = blocks.shape
    system = blocks.transpose(0, 2, 1) - np.eye(m)
    system[:, -1, :] = 1.0  # replace last balance equation with normalization
    rhs = np.zeros((count, m, 1))
    rhs[:, -1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"stationary system is singular: {e}") from e
    residual = np.max(np.abs((pi[:, None, :] @ blocks)[:, 0, :] - pi))
    if not np.isfinite(pi).all() or residual > SOLVE_TOL or pi.min() < -STATIONARY_NEG_TOL:
        raise SingularSystem(f"stationary solve failed (residual {residual:.3e})")
    return pi


def stationary_distribution(class_matrix: np.ndarray) -> np.ndarray:
    """Normalized left eigenvector of a class submatrix at eigenvalue 1.

    The stack kernel behind :func:`analyze`, on a stack of one.
    """
    return _stationary_stack(class_matrix[None])[0]


def _class_stationary(cm: ConfidenceMatrix, decomposition: Decomposition) -> tuple[np.ndarray, ...]:
    """Stationary vector of every ergodic class, one stacked solve per class size."""
    pi: dict[int, np.ndarray] = {}
    for ks, _ in decomposition.groups:
        pi.update(zip(ks.tolist(), _stationary_stack(class_blocks(cm, decomposition, ks))))
    return tuple(pi[k] for k in range(len(decomposition.classes)))


def hitting_probabilities(cm: ConfidenceMatrix, decomposition: Decomposition) -> np.ndarray:
    """Absorption probabilities, one row per ergodic class, one column per agent.

    Recurrent columns are exact indicators of the agent's class.  The
    transient columns solve ``(I - Q) H_T = R`` with one factorization for
    all classes: ``Q`` is the transient block of the matrix and ``R[t, k]``
    the one-step mass from transient ``t`` into class ``k``.  The returned
    array is read-only.
    """
    a = cm.matrix
    h = np.zeros((len(decomposition.classes), cm.n))
    recurrent = [i for i, k in enumerate(decomposition.class_of) if k is not None]
    h[[decomposition.class_of[i] for i in recurrent], recurrent] = 1.0
    if decomposition.transient:
        t = np.asarray(decomposition.transient)
        system = np.eye(len(t)) - a[np.ix_(t, t)]
        rhs = a[t] @ h.T
        try:
            ht = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as e:
            raise SingularSystem(f"hitting system is singular: {e}") from e
        residual = np.max(np.abs(system @ ht - rhs))
        if not np.isfinite(ht).all() or residual > SOLVE_TOL:
            raise SingularSystem(f"hitting solve failed (residual {residual:.3e})")
        h[:, t] = ht.T
    h.flags.writeable = False
    return h


def consensus_stack(pi: np.ndarray, opinions: np.ndarray) -> np.ndarray:
    """Consensus of each row of a ``(count, m)`` stack of classes.

    One stacked ``matmul`` of ``(count, 1, m)`` by ``(count, m, 1)``, which
    numpy runs as one ``ddot`` per row: the same sums a ``np.dot`` per
    class forms.
    """
    return (pi[:, None, :] @ opinions[:, :, None])[:, 0, 0]


def consensus_opinion(pi: np.ndarray, opinions: np.ndarray) -> float:
    """Consensus an ergodic class settles on: influence-weighted opinions."""
    return float(np.dot(pi, opinions))


@dataclass(frozen=True)
class ChainAnalysis:
    """Full chain analysis at a fixed vector of expressed opinions.

    ``pi`` and ``hitting`` depend only on the matrix; ``consensus`` and
    ``asymptotic`` refer to the opinions the analysis was built with.
    ``hitting[k]`` is class ``k``'s row of :func:`hitting_probabilities`.
    """

    decomposition: Decomposition
    pi: tuple[np.ndarray, ...]
    hitting: np.ndarray
    consensus: tuple[float, ...]
    asymptotic: np.ndarray


def _limits(decomposition: Decomposition, pi, hitting, opinions) -> tuple[tuple[float, ...], np.ndarray]:
    """Class consensi and per-agent limit opinions for one opinion vector.

    The consensi take one :func:`consensus_stack` per class size.  Without
    transients every hitting column is an exact class indicator, so the
    limits are the consensi gathered by class, the same values
    ``consensus @ hitting`` gives.
    """
    cons = np.empty(len(decomposition.classes))
    for ks, members in decomposition.groups:
        cons[ks] = consensus_stack(np.array([pi[k] for k in ks.tolist()]), opinions[members])
    limits = cons @ hitting if decomposition.transient else cons[np.array(decomposition.class_of)]
    return tuple(cons.tolist()), limits


def asymptotic_opinions(analysis: ChainAnalysis, opinions: np.ndarray) -> np.ndarray:
    """Limit opinions for a new expressed-opinion vector.

    Reuses the analysis' stationary vectors and hitting matrix; only the
    class consensi are recomputed.
    """
    return _limits(analysis.decomposition, analysis.pi, analysis.hitting, opinions)[1]


def analyze(cm: ConfidenceMatrix, decomposition: Decomposition, opinions: np.ndarray) -> ChainAnalysis:
    """Compute stationary vectors, the hitting matrix, consensi, and limits."""
    pi = _class_stationary(cm, decomposition)
    hitting = hitting_probabilities(cm, decomposition)
    worst = np.max(np.abs(hitting.sum(axis=0) - 1.0))
    if worst > OPINION_TOL:
        raise SingularSystem(f"hitting probabilities do not sum to 1 (off by {worst:.3e})")
    cons, x = _limits(decomposition, pi, hitting, opinions)
    x.flags.writeable = False
    return ChainAnalysis(decomposition, pi, hitting, cons, x)


def iterate_dynamics(
    cm: ConfidenceMatrix,
    opinions: np.ndarray,
    max_steps: int = 100_000,
    tol: float = 1e-12,
) -> tuple[np.ndarray, int]:
    """Run the update ``x <- A x`` until the max-norm change drops below tol.

    This is the independent oracle for :func:`asymptotic_opinions`.
    Returns the final vector and the number of steps taken; raises
    :class:`NonConvergence` when the step limit is reached first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = cm.matrix
    x = np.asarray(opinions, dtype=float).copy()
    change = np.inf
    for step in range(1, max_steps + 1):
        nxt = a @ x
        change = float(np.max(np.abs(nxt - x)))
        x = nxt
        if change < tol:
            return x, step
    raise NonConvergence(max_steps, change)


def expressed_opinions(instance: Instance, payments: np.ndarray) -> np.ndarray:
    """Starting opinions under the linear price: ``x_i(0) = xhat_i + p_i / c_i``.

    Raises ``ValueError`` unless there is one nonnegative payment per agent
    and no expressed opinion exceeds 1 (within tolerance).
    """
    p = np.asarray(payments, dtype=float)
    if p.shape != (instance.n,):
        raise ValueError("payments must give one value per agent")
    if (p < -OPINION_TOL).any():
        raise ValueError("payments must be nonnegative")
    expressed = instance.true_opinions + p / instance.costs
    if (expressed > 1.0 + OPINION_TOL).any():
        worst = int(np.argmax(expressed))
        raise ValueError(
            f"payment pushes opinion of {instance.agents[worst]!r} above 1 "
            f"({expressed[worst]:.6f})"
        )
    return expressed


def is_supporter(limits: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of the limit opinions that reach the threshold (within tolerance)."""
    return limits >= threshold - OPINION_TOL


def evaluate_plan(
    instance: Instance,
    analysis: ChainAnalysis,
    payments: np.ndarray,
    budget: float | None = None,
) -> PaymentPlan:
    """Apply a payment vector and report the resulting supporter set.

    Expressed opinions come from :func:`expressed_opinions`, supporters from
    :func:`is_supporter` on the asymptotic opinions.  ``budget`` defaults to
    the instance's own.
    """
    b = instance.budget if budget is None else float(budget)
    p = np.array(payments, dtype=float)
    expressed = expressed_opinions(instance, p)
    total = float(p.sum())
    if total > b + BUDGET_TOL:
        raise ValueError(f"total spend {total} exceeds budget {b}")
    mask = is_supporter(asymptotic_opinions(analysis, expressed), instance.threshold)
    supporters = tuple(a for a, s in zip(instance.agents, mask) if s)
    expressed.flags.writeable = False
    p.flags.writeable = False
    return PaymentPlan(instance.agents, p, expressed, supporters, total)
