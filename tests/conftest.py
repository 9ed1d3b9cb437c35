import tracemalloc

import numpy as np
import pytest

from graphsfda.gnn import init_model
from graphsfda.graph_store import AdjacencyLayout, TargetGraph
from graphsfda.numerics import Tensor, evaluate, l2_normalize_rows


def random_graph(rng, n, d, num_classes, edge_p=0.3, labelled=True):
    """Erdos-Renyi test graph with Gaussian features."""
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_p
    ]
    labels = rng.integers(0, num_classes, size=n) if labelled else None
    return TargetGraph(
        n, edges, rng.standard_normal((n, d)), labels, num_classes
    )


def adjacency(g, edge_weights=None):
    """The normalized adjacency of `g` under `edge_weights` (every edge
    weight 1 when None), read off a fresh `AdjacencyLayout`."""
    if edge_weights is None:
        edge_weights = np.ones(g.num_edges)
    return AdjacencyLayout(g.n, g.edges).normalized(edge_weights)


def step_inputs():
    """The adjacency layout, 2-layer model (d = 16, h = 32, 3 classes) and
    features of an adaptation step at n = 4000, a ring plus 3n random
    edges, with the rng that drew them."""
    n, d, h, c = 4000, 16, 32, 3
    rng = np.random.default_rng(0)
    ring = np.arange(n)
    pairs = np.concatenate(
        [np.stack([ring, (ring + 1) % n], axis=1), rng.integers(0, n, (3 * n, 2))]
    )
    edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    model = init_model(d, h, c, 2, seed=0)
    return AdjacencyLayout(n, edges), model, rng.standard_normal((n, d)), rng


def n_by_h(x, model):
    """The bytes of one n x h float64 array."""
    return x.shape[0] * model.hidden_dim * 8


def normalized(x):
    """Plain rows with unit L2 norm, as an adaptation step normalizes z and
    the centroids before the cosine terms read them."""
    return evaluate(l2_normalize_rows, x)


def transposed(a):
    """a^T recorded on a's tape. Only the dense test oracles build z z^T, so
    the op lives here and not in `graphsfda.numerics`."""
    return a.tape._record(a.value.T.copy(), [(a.index, lambda g: g.T.copy())])


def densify(adj):
    """The dense n x n matrix of a `SparseAdjacency`. Only the tests compare
    against dense matrices, so this lives here and not in
    `graphsfda.numerics`."""
    values = adj.values.value if isinstance(adj.values, Tensor) else adj.values
    out = np.zeros((adj.n, adj.n))
    out[adj.rows, adj.col_indices] = values.ravel()
    return out


def traced_peak(fn):
    """`(fn(), peak)`: `peak` is the most memory, in bytes, that tracemalloc
    saw allocated while `fn` ran, above what it saw when `fn` started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def traced_kept(fn):
    """`(fn(), kept)`: `kept` is the memory, in bytes, that tracemalloc sees
    still allocated when `fn` returns, above what it saw when `fn` started:
    what the result keeps alive."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return result, kept


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_graph(rng):
    return random_graph(rng, 12, 4, 3)
