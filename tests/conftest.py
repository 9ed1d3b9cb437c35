import numpy as np
import pytest

from graphsfda.graph_store import TargetGraph


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


def transposed(a):
    """a^T recorded on a's tape. Only the dense test oracles build z z^T, so
    the op lives here and not in `graphsfda.numerics`."""
    return a.tape._record(a.value.T.copy(), [(a.index, lambda g: g.T.copy())])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_graph(rng):
    return random_graph(rng, 12, 4, 3)
