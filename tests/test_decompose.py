"""Transient/ergodic partition and class submatrices."""

import numpy as np
import pytest

from opinionbudget.decompose import decompose, submatrix
from opinionbudget.model import ConfidenceMatrix, confidence_matrix, validate

from conftest import csr, dense, random_instance, random_raw


def names(instance, indices):
    return [instance.agents[i] for i in indices]


def test_paper_partition(paper_instance, paper_matrix, paper_decomposition):
    d = paper_decomposition
    assert names(paper_instance, d.transient) == ["d", "e", "f", "g", "h"]
    assert [names(paper_instance, c) for c in d.classes] == [["a", "b", "c"], ["i", "j", "k", "l"]]
    assert d.sizes == (3, 4)
    assert d.class_of[0] == 0 and d.class_of[8] == 1 and d.class_of[3] == -1
    assert d.class_of.dtype == np.intp and not d.class_of.flags.writeable


def test_identity_matrix_three_singletons():
    d = decompose(csr(np.eye(3)))
    assert d.transient == ()
    assert d.classes == ((0,), (1,), (2,))


def test_strictly_positive_matrix_single_class():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 1.0, (4, 4))
    a /= a.sum(axis=1, keepdims=True)
    d = decompose(csr(a))
    assert d.transient == ()
    assert d.classes == ((0, 1, 2, 3),)


def test_partition_counts_add_up():
    rng = np.random.default_rng(5)
    for _ in range(30):
        inst = random_instance(rng)
        d = decompose(confidence_matrix(inst))
        assert d.n_transient + sum(d.sizes) == inst.n
        assert len(d.classes) >= 1


def test_class_closure():
    rng = np.random.default_rng(17)
    for _ in range(30):
        inst = random_instance(rng)
        cm = confidence_matrix(inst)
        d = decompose(cm)
        for members in d.classes:
            inside = set(members)
            for i in members:
                targets = set(np.flatnonzero(dense(cm)[i] > 0.0))
                assert targets <= inside


def test_transients_reach_some_class():
    rng = np.random.default_rng(19)
    for _ in range(30):
        inst = random_instance(rng)
        cm = confidence_matrix(inst)
        d = decompose(cm)
        recurrent = {i for members in d.classes for i in members}
        # breadth-first search from each transient state
        for t in d.transient:
            seen = {t}
            frontier = [t]
            hit = False
            while frontier and not hit:
                nxt = []
                for v in frontier:
                    for w in np.flatnonzero(dense(cm)[v] > 0.0):
                        w = int(w)
                        if w in recurrent:
                            hit = True
                            break
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            assert hit


def test_permutation_invariance():
    rng = np.random.default_rng(29)
    for _ in range(30):
        inst = random_instance(rng)
        cm = confidence_matrix(inst)
        d = decompose(cm)
        perm = rng.permutation(inst.n)
        permuted = dense(cm)[np.ix_(perm, perm)]
        d2 = decompose(csr(permuted.copy()))
        # map the permuted partition back to original labels
        back = {int(p): i for i, p in enumerate(perm)}
        original_sets = {frozenset(c) for c in d.classes}
        mapped_sets = {frozenset(int(perm[i]) for i in c) for c in d2.classes}
        assert original_sets == mapped_sets
        assert {int(perm[i]) for i in d2.transient} == set(d.transient)
        del back


def test_submatrix_paper_values(paper_matrix, paper_decomposition):
    e1 = submatrix(paper_matrix, paper_decomposition, 0)
    assert np.allclose(e1, [[0.7, 0.3, 0.0], [0.0, 0.6, 0.4], [0.5, 0.0, 0.5]], atol=1e-15)
    e2 = submatrix(paper_matrix, paper_decomposition, 1)
    assert np.allclose(
        e2,
        [[0.6, 0.4, 0.0, 0.0],
         [0.0, 0.9, 0.0, 0.1],
         [0.2, 0.0, 0.8, 0.0],
         [0.0, 0.0, 0.5, 0.5]],
        atol=1e-15,
    )


def test_submatrix_singleton():
    d = decompose(csr(np.eye(2)))
    assert np.array_equal(submatrix(csr(np.eye(2)), d, 0), [[1.0]])


def test_submatrix_random_row_stochastic():
    rng = np.random.default_rng(31)
    for _ in range(30):
        inst = random_instance(rng)
        cm = confidence_matrix(inst)
        d = decompose(cm)
        for k in range(len(d.classes)):
            sub = submatrix(cm, d, k)
            assert np.max(np.abs(sub.sum(axis=1) - 1.0)) <= 1e-12


def brute_force_partition(a):
    """Classes and transients from the transitive closure: a class is an
    SCC whose reachable set is the SCC itself."""
    n = a.shape[0]
    reach = (a > 0.0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    classes = set()
    for i in range(n):
        scc = frozenset(np.flatnonzero(reach[i] & reach[:, i]).tolist())
        if scc == frozenset(np.flatnonzero(reach[i]).tolist()):
            classes.add(tuple(sorted(scc)))
    classes = tuple(sorted(classes))
    recurrent = {i for c in classes for i in c}
    return tuple(i for i in range(n) if i not in recurrent), classes


def test_partition_matches_transitive_closure():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 31))
        density = rng.uniform(0.0, 0.25)
        a = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < density)
        a[np.arange(n), np.arange(n)] = rng.uniform(0.1, 1.0, n)
        a /= a.sum(axis=1, keepdims=True)
        d = decompose(csr(a))
        transient, classes = brute_force_partition(a)
        assert d.transient == transient
        assert d.classes == classes
        assert d.class_of.tolist() == [
            next((k for k, c in enumerate(classes) if i in c), -1) for i in range(n)
        ]


def reference_decompose(cm):
    """The per-component form of :func:`decompose`: iterative Tarjan collecting
    component lists, then a sort per class and a fancy assignment per class."""
    n = cm.n
    live = cm.data > 0.0
    rows, cols = cm.rows[live], cm.indices[live]
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    targets = cols.tolist()
    adj = [targets[starts[i]:starts[i + 1]] for i in range(n)]
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, sccs, counter = [], [], 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, next_edge = work[-1]
            if next_edge == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for k in range(next_edge, len(adj[v])):
                w = adj[v][k]
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
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
    comp_of = np.empty(n, dtype=np.intp)
    for c, comp in enumerate(sccs):
        comp_of[comp] = c
    leaves = comp_of[rows] != comp_of[cols]
    is_open = np.zeros(len(sccs), dtype=bool)
    is_open[comp_of[rows[leaves]]] = True
    classes, transient = [], []
    for comp, left in zip(sccs, is_open.tolist()):
        if left:
            transient.extend(comp)
        else:
            classes.append(tuple(sorted(comp)))
    classes.sort(key=lambda members: members[0])
    class_of = np.full(n, -1, dtype=np.intp)
    for k, members in enumerate(classes):
        class_of[list(members)] = k
    return tuple(sorted(transient)), tuple(classes), class_of


def assert_same_decomposition(cm):
    d = decompose(cm)
    transient, classes, class_of = reference_decompose(cm)
    assert (d.transient, d.classes) == (transient, classes)
    assert all(type(i) is int for i in (*d.transient, *(i for c in d.classes for i in c)))
    assert d.class_of.dtype == np.intp and not d.class_of.flags.writeable
    assert d.class_of.tobytes() == class_of.tobytes()


def test_decompose_matches_the_per_component_reference():
    rng = np.random.default_rng(173)
    for t in range(300):
        assert_same_decomposition(confidence_matrix(validate(random_raw(rng, 2, 400 if t % 10 == 0 else 40))))


def test_decompose_long_chain():
    """States 0 -> 1 -> ... -> 4999, the last absorbing: 4,999 transient states
    in one depth-first path, which must stay off the call stack."""
    n = 5000
    indptr = np.concatenate(([0], np.cumsum([2] * (n - 1) + [1])))
    indices = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1).ravel()[:-1]
    cm = ConfidenceMatrix(indptr, indices, np.concatenate([np.full(2 * (n - 1), 0.5), [1.0]]))
    assert_same_decomposition(cm)
    d = decompose(cm)
    assert d.classes == ((n - 1,),) and d.transient == tuple(range(n - 1))
