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


def _strongly_connected_components(adj: list[list[int]]) -> tuple[list[int], int]:
    """Tarjan's algorithm: each state's component label, and the number of components.

    Iterative, to keep deep graphs off the call stack: each frame holds a
    state and an iterator over its remaining neighbors.  A visited state is
    on the Tarjan stack exactly while it has no label yet.  Labels count
    up in the order the components close.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    count = 0
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, neighbors = work[-1]
            for w in neighbors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return comp, count


def decompose(cm: ConfidenceMatrix) -> Decomposition:
    """Split the chain's states into ergodic classes and transient states.

    An SCC is ergodic exactly when no edge leaves it.  Each state's
    neighbors are its CSR row's columns, already ascending.  The SCC
    search and the closure test (one array comparison of the components at
    both ends of every edge) are linear in states plus edges; one stable
    sort of the states by component lists every class's members.
    """
    n = cm.n
    live = cm.data > 0.0  # a tiny weight can round to 0 when its row is normalized
    rows, cols = cm.rows[live], cm.indices[live]
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    targets = cols.tolist()
    adj = [targets[starts[i]:starts[i + 1]] for i in range(n)]
    labels, count = _strongly_connected_components(adj)

    comp_of = np.array(labels, dtype=np.intp)
    leaves = comp_of[rows] != comp_of[cols]
    is_open = np.zeros(count, dtype=bool)
    is_open[comp_of[rows[leaves]]] = True

    # each component's states, ascending; a closed component's class index follows its smallest state
    by_comp = np.argsort(comp_of, kind="stable")
    sizes = np.bincount(comp_of)  # every label occurs
    comp_end = np.cumsum(sizes)
    comp_start = comp_end - sizes
    closed = np.flatnonzero(~is_open)
    closed = closed[np.argsort(by_comp[comp_start[closed]], kind="stable")]
    class_index = np.full(count, -1, dtype=np.intp)
    class_index[closed] = np.arange(closed.size)
    class_of = class_index[comp_of]
    class_of.flags.writeable = False

    members = by_comp.tolist()
    classes = tuple(
        tuple(members[a:b]) for a, b in zip(comp_start[closed].tolist(), comp_end[closed].tolist())
    )
    return Decomposition(tuple(np.flatnonzero(class_of < 0).tolist()), classes, class_of)


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
