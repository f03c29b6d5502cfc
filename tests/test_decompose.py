"""Transient/ergodic partition and class submatrices."""

import numpy as np
import pytest

from opinionbudget.decompose import decompose, submatrix
from opinionbudget.model import confidence_matrix

from conftest import csr, dense, random_instance


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
