"""The sparse (CSR) chain against a dense reference kept here: row totals, partition, class blocks, hitting block.

The library never forms an n x n array; these tests build the dense
matrix and require the sparse layers to give the same bits.  Each dense
row is divided by its column-order total, the one sum the library forms.
"""

import math
import tracemalloc

import numpy as np
import pytest

from opinionbudget.chain_analysis import analyze, hitting_probabilities
from opinionbudget.decompose import class_blocks, decompose
from opinionbudget.knapsack import solve_by_classes
from opinionbudget.model import ROW_SUM_TOL, Instance, confidence_matrix, validate

from conftest import classes_raw, dense, random_raw
from test_decompose import brute_force_partition


def column_order_totals(w):
    """Each row of a dense array added one column at a time, left to right: ``cumsum``'s last column."""
    return np.cumsum(w, axis=1)[:, -1:]


def dense_reference(instance):
    """The dense confidence matrix: weights scattered into an n x n array, each row divided by its column-order total."""
    w = np.zeros((instance.n, instance.n))
    w[instance.sources, instance.targets] = instance.weights
    return w / column_order_totals(w)


def instance_of(sources, targets, weights, n):
    """An :class:`Instance` of ``n`` agents with these edge columns; no chain layer reads its other fields."""
    return Instance(tuple(f"v{i}" for i in range(n)), sources, targets, weights, np.zeros(n), np.ones(n), 0.5, 0.0)


@pytest.mark.parametrize("n", [30, 200, 1000, 2000])
def test_confidence_matrix_divides_by_column_order_totals(n):
    rng = np.random.default_rng(n)
    w = np.zeros((n, n))
    # rows of every density, weights over six decades so that the order of the additions shows
    mask = rng.random((n, n)) < rng.choice([0.003, 0.03, 0.3, 1.0], size=(n, 1))
    # a quarter of the rows only around the 128-column block boundaries, where numpy's pairwise sum splits
    edge = (np.arange(n) % 128 < 6) | (np.arange(n) % 128 >= 122)
    mask[: n // 4] = (rng.random((n // 4, n)) < 0.5) & edge
    np.fill_diagonal(mask, True)  # every agent trusts itself
    w[mask] = rng.uniform(0.1, 1.0, mask.sum()) * 10.0 ** rng.integers(-3, 3, mask.sum())
    rows, cols = np.nonzero(w)
    cm = confidence_matrix(instance_of(rows, cols, w[rows, cols], n))
    assert dense(cm).tobytes() == (w / column_order_totals(w)).tobytes()
    # the data tells the summation orders apart: numpy's pairwise row sums miss some rows' bits
    assert (w.sum(axis=1, keepdims=True) != column_order_totals(w)).any()


def test_one_long_row_sums_to_one():
    # one agent trusts 20,000 others with weights over six decades; the rest trust only themselves
    m = 20_000
    rng = np.random.default_rng(20)
    weights = rng.uniform(0.1, 1.0, m + 1) * 10.0 ** rng.integers(-3, 3, m + 1)
    sources = np.concatenate([np.zeros(m + 1, np.intp), np.arange(1, m + 1)])
    targets = np.concatenate([np.arange(m + 1), np.arange(1, m + 1)])
    cm = confidence_matrix(instance_of(sources, targets, np.concatenate([weights, np.ones(m)]), m + 1))
    row = cm.data[cm.indptr[0]:cm.indptr[1]]
    assert len(row) == m + 1
    assert abs(math.fsum(row) - 1.0) <= ROW_SUM_TOL


def wide_transients_raw(rng, n_recurrent, n_transient):
    """Classes plus transient agents with up to eight edges each into them, so that ``R`` sums many terms."""
    raw = classes_raw(rng, n_recurrent)
    names = [f"t{i}" for i in range(n_transient)]
    for i, name in enumerate(names):
        targets = [f"v{j}" for j in rng.choice(n_recurrent, min(8, n_recurrent), replace=False)]
        targets += [names[j] for j in set(rng.choice(n_transient, 2).tolist()) - {i}]
        raw["edges"] += [{"from": name, "to": to, "w": float(rng.uniform(0.1, 1.0))} for to in [name, *targets]]
    raw["agents"] += names
    raw["opinions"] += rng.uniform(0.0, 1.0, n_transient).tolist()
    raw["costs"] += rng.uniform(0.5, 10.0, n_transient).tolist()
    return raw


GENERATORS = {
    "random_raw": lambda rng: random_raw(rng, 2, 40),
    "classes_raw": lambda rng: classes_raw(rng, int(rng.integers(1, 150))),
    "wide_transients": lambda rng: wide_transients_raw(rng, int(rng.integers(1, 40)), int(rng.integers(1, 30))),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_sparse_layers_match_the_dense_reference_bitwise(kind):
    rng = np.random.default_rng(sorted(GENERATORS).index(kind) + 401)
    for _ in range(40):
        instance = validate(GENERATORS[kind](rng))
        cm = confidence_matrix(instance)
        a = dense_reference(instance)
        assert np.array_equal(dense(cm), a)

        d = decompose(cm)
        assert (d.transient, d.classes) == brute_force_partition(a)
        for ks, members in d.groups:
            assert np.array_equal(class_blocks(cm, ks, members), a[members[:, :, None], members[:, None, :]])

        t = list(d.transient)
        block = hitting_probabilities(cm, d)
        if not t:
            assert block.shape == (len(d.classes), 0)
            continue
        # R adds each transient row's entries into their classes in column order, starting from 0.0
        r = np.zeros((len(t), len(d.classes)))
        terms = np.zeros(r.shape, dtype=int)
        for row, i in enumerate(t):
            for j in np.flatnonzero(a[i] > 0.0):
                if d.class_of[j] >= 0:
                    r[row, d.class_of[j]] += a[i, j]
                    terms[row, d.class_of[j]] += 1
        expected = np.linalg.solve(np.eye(len(t)) - a[np.ix_(t, t)], r).T
        assert np.array_equal(block, expected)
        # the dense product a[t] @ indicator gives the same bits wherever at most two terms add up
        indicator = (d.class_of == np.arange(len(d.classes))[:, None]).astype(float)
        product = a[t] @ indicator.T
        assert np.array_equal(r[terms <= 2], product[terms <= 2])
        # elsewhere a short sum rounded in another order: a few ulps
        assert np.allclose(r, product, rtol=16 * np.finfo(float).eps, atol=0.0)


def test_no_transient_pipeline_never_allocates_a_dense_matrix():
    raw = classes_raw(np.random.default_rng(5), 5000, budget=500.0)
    tracemalloc.start()
    try:
        instance = validate(raw)
        cm = confidence_matrix(instance)
        analysis = analyze(cm, decompose(cm), instance.true_opinions)
        plan, _ = solve_by_classes(instance, analysis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.supporters
    # one dense 5,000 x 5,000 float64 matrix alone would be 200 MB
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"
