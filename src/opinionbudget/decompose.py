"""Partition the equivalent Markov chain into transient states and ergodic classes.

States are the nodes of the directed graph with an edge (i, j) wherever
``A[i, j] > 0`` (exact comparison; weights are inputs, not computed).  An
ergodic class is a strongly connected component with no edge leaving it;
every other state is transient.  Classes are ordered by their smallest
member index and members are listed ascending, so the partition is a
deterministic function of the matrix alone.
"""

from dataclasses import dataclass

import numpy as np

from .model import ConfidenceMatrix, ROW_SUM_TOL


@dataclass(frozen=True)
class Decomposition:
    """Partition of agent indices into transient states and ergodic classes."""

    transient: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int | None, ...]

    @property
    def n(self) -> int:
        return len(self.class_of)

    @property
    def n_transient(self) -> int:
        return len(self.transient)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def _strongly_connected_components(adj: list[np.ndarray]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to keep deep graphs off the call stack."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, next_edge = work[-1]
            if next_edge == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            neighbors = adj[v]
            for k in range(next_edge, len(neighbors)):
                w = int(neighbors[k])
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def decompose(cm: ConfidenceMatrix) -> Decomposition:
    """Split the chain's states into ergodic classes and transient states.

    An SCC is ergodic exactly when no member has an edge to another
    component.  Reading the adjacency lists scans every row of the dense
    matrix, so the cost is O(n^2) in the number of states; the SCC search
    after it is linear in states plus edges.
    """
    a = cm.matrix
    n = cm.n
    adj = [np.flatnonzero(a[i] > 0.0) for i in range(n)]
    sccs = _strongly_connected_components(adj)

    comp_of = [0] * n
    for c, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = c

    classes = []
    transient = []
    for c, comp in enumerate(sccs):
        closed = all(comp_of[int(w)] == c for v in comp for w in adj[v])
        if closed:
            classes.append(tuple(sorted(comp)))
        else:
            transient.extend(comp)
    classes.sort(key=lambda members: members[0])

    class_of: list[int | None] = [None] * n
    for k, members in enumerate(classes):
        for v in members:
            class_of[v] = k
    return Decomposition(tuple(sorted(transient)), tuple(classes), tuple(class_of))


def submatrix(cm: ConfidenceMatrix, decomposition: Decomposition, k: int) -> np.ndarray:
    """Dense restriction of the confidence matrix to ergodic class ``k``.

    Class closure makes the restriction row-stochastic; this is asserted
    rather than assumed.
    """
    members = decomposition.classes[k]
    sub = cm.matrix[np.ix_(members, members)].copy()
    row_err = np.max(np.abs(sub.sum(axis=1) - 1.0))
    if row_err > ROW_SUM_TOL:
        raise ValueError(f"class {k} is not closed: row sums deviate by {row_err:.3e}")
    return sub
