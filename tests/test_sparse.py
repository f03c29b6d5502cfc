"""The sparse (CSR) chain against a dense reference kept here: row sums, partition, class blocks, hitting block.

The library never forms an n x n array; these tests build the dense
matrix the way the library once did and require the sparse layers to
give the same bits.
"""

import tracemalloc

import numpy as np
import pytest

from opinionbudget.chain_analysis import analyze, hitting_probabilities
from opinionbudget.decompose import class_blocks, decompose
from opinionbudget.knapsack import solve_by_classes
from opinionbudget.model import confidence_matrix, dense_row_sums, validate

from conftest import classes_raw, dense, random_raw
from test_decompose import brute_force_partition


def dense_reference(instance):
    """The dense confidence matrix: weights scattered into an n x n array, each row divided by its numpy sum."""
    w = np.zeros((instance.n, instance.n))
    w[instance.sources, instance.targets] = instance.weights
    return w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", [30, 200, 1000, 2000])
def test_dense_row_sums_match_numpy_bitwise(n):
    rng = np.random.default_rng(n)
    a = np.zeros((n, n))
    # rows of every density, weights over six decades so that the order of the additions shows
    mask = rng.random((n, n)) < rng.choice([0.003, 0.03, 0.3, 1.0], size=(n, 1))
    # a quarter of the rows only around the 128-column block boundaries, where spans split
    edge = (np.arange(n) % 128 < 6) | (np.arange(n) % 128 >= 122)
    mask[: n // 4] = (rng.random((n // 4, n)) < 0.5) & edge
    a[mask] = rng.uniform(0.1, 1.0, mask.sum()) * 10.0 ** rng.integers(-3, 3, mask.sum())
    rows, cols = np.nonzero(a)
    sums = dense_row_sums(rows, cols, a[rows, cols], n)
    assert sums.tobytes() == a.sum(axis=1).tobytes()
    # the data tells the summation orders apart: adding in column order misses some rows' bits
    assert (np.bincount(rows, a[rows, cols], n) != a.sum(axis=1)).any()


def test_dense_row_sums_without_entries():
    assert dense_row_sums(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), 3).tolist() == [0.0] * 3


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
