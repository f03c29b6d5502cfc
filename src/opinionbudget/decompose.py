"""Partition the equivalent Markov chain into transient states and ergodic classes.

States are the nodes of the directed graph with an edge (i, j) wherever
the CSR matrix stores ``A[i, j] > 0`` (exact comparison; weights are
inputs, not computed).  An ergodic class is a strongly connected component
with no edge leaving it; every other state is transient.  Classes are
ordered by their smallest member index and members are listed ascending,
so the partition is a deterministic function of the matrix alone.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ConfidenceMatrix, ROW_SUM_TOL


@dataclass(frozen=True)
class Decomposition:
    """Partition of agent indices into transient states and ergodic classes.

    ``class_of`` is a read-only ``intp`` array giving each agent's class
    index, or -1 for a transient agent.
    """

    transient: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray

    @property
    def n(self) -> int:
        return len(self.class_of)

    @property
    def n_transient(self) -> int:
        return len(self.transient)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @cached_property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The classes of each size, sizes in order of first appearance.

        Each entry is ``(ks, members)``: the class indices, ascending, and a
        ``(len(ks), m)`` array with one class's members per row.  Batched
        kernels take one call per entry.  Computed once per decomposition.
        """
        by_size: dict[int, list[int]] = {}
        for k, members in enumerate(self.classes):
            by_size.setdefault(len(members), []).append(k)
        out = []
        for ks in by_size.values():
            ks = np.array(ks)
            members = np.array([self.classes[k] for k in ks.tolist()], dtype=np.intp)
            ks.flags.writeable = members.flags.writeable = False
            out.append((ks, members))
        return tuple(out)


def _strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
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
                w = neighbors[k]
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

    An SCC is ergodic exactly when no edge leaves it.  Each state's
    neighbors are its CSR row's columns, already ascending.  The SCC
    search and the closure test (one array comparison of the components at
    both ends of every edge) are linear in states plus edges.
    """
    n = cm.n
    live = cm.data > 0.0  # a tiny weight can round to 0 when its row is normalized
    rows, cols = cm.rows[live], cm.indices[live]
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    targets = cols.tolist()
    adj = [targets[starts[i]:starts[i + 1]] for i in range(n)]
    sccs = _strongly_connected_components(adj)

    comp_of = np.empty(n, dtype=np.intp)
    for c, comp in enumerate(sccs):
        comp_of[comp] = c
    leaves = comp_of[rows] != comp_of[cols]
    is_open = np.zeros(len(sccs), dtype=bool)
    is_open[comp_of[rows[leaves]]] = True

    classes = []
    transient = []
    for comp, left in zip(sccs, is_open.tolist()):
        if left:
            transient.extend(comp)
        else:
            classes.append(tuple(sorted(comp)))
    classes.sort(key=lambda members: members[0])

    class_of = np.full(n, -1, dtype=np.intp)
    class_of[np.concatenate(classes)] = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    class_of.flags.writeable = False
    return Decomposition(tuple(sorted(transient)), tuple(classes), class_of)


def class_blocks(cm: ConfidenceMatrix, ks, members: np.ndarray) -> np.ndarray:
    """Dense restrictions of the confidence matrix to ergodic classes ``ks``.

    ``members`` holds one class's members per row, as in
    :attr:`Decomposition.groups`; the result is a ``(len(ks), m, m)``
    stack that each class's own entries are scattered into.  Class closure
    makes every block row-stochastic; this is asserted rather than assumed.
    """
    m = members.shape[1]
    slot = np.full(cm.n, -1)
    slot[members.ravel()] = np.arange(members.size)  # class * m + position in the class
    rows, cols = slot[cm.rows], slot[cm.indices]
    inside = (rows >= 0) & (cols // m == rows // m)
    blocks = np.bincount(rows[inside] * m + cols[inside] % m, cm.data[inside], members.size * m)
    blocks = blocks.reshape(-1, m, m)
    row_err = np.max(np.abs(blocks.sum(axis=2) - 1.0), axis=1)
    bad = np.flatnonzero(row_err > ROW_SUM_TOL)
    if bad.size:
        k = bad[0]
        raise ValueError(f"class {ks[k]} is not closed: row sums deviate by {row_err[k]:.3e}")
    return blocks


def submatrix(cm: ConfidenceMatrix, decomposition: Decomposition, k: int) -> np.ndarray:
    """Dense restriction of the confidence matrix to ergodic class ``k``."""
    return class_blocks(cm, [k], np.array([decomposition.classes[k]]))[0]
