"""Graph-side adaptation: learned feature offsets and a budgeted edge mask.

Features move by plain gradient descent on an additive offset. Structure
moves by projected gradient descent on a relaxed per-edge deletion mask
delta in [0,1]^e whose total mass stays under a budget; the projection
clips into the box and, when the budget binds, shifts by a bisection-found
multiplier. An edge with mask delta carries weight 1 - delta through the
normalized adjacency (`AdjacencyLayout.normalized`, recorded on the mask's
tape in a structure step), so delta = 1 reproduces deletion exactly. The
final discrete graph is drawn once as a keep mask, edge e kept with
probability 1 - delta_e.

The training signal is a self-training loss: cross-entropy on
high-confidence nodes plus a neighborhood contrast that pulls each node
toward its nearest bank entries and pushes it from differently-labelled
ones. Bank rows enter the tape as constants; gradients flow only through
the live forward pass.

Neither the contrast nor its selection builds an n x n array. The nearest
bank entries come from row blocks of the similarity matrix, so the kNN
holds KNN_BLOCK_ROWS x n values at a time. The negative sum over every
differently-labelled bank row collapses onto per-class sums of the
normalized bank rows, so the contrast is one product of the normalized live
representations with a constant n x h weight (see `_contrast_weights`).
Memory is linear in n; the kNN is the only O(n^2 h) time.
"""

from __future__ import annotations

import numpy as np

from .banks import MemoryBanks
from .errors import ContractError, ShapeError
from .graph_store import TargetGraph
from .numerics import (
    Tensor,
    add,
    add_scalar,
    gather_rows,
    l2_normalize_rows,
    log_clamped,
    mean_all,
    mul,
    neg,
    select_cols,
    sum_all,
)

# rows of the similarity matrix the kNN holds at once (KNN_BLOCK_ROWS x n)
KNN_BLOCK_ROWS = 128

__all__ = [
    "AdaptationDeltas",
    "ConfidentSet",
    "apply_feature_delta",
    "apply_structure_delta",
    "select_confident",
    "knn_positives",
    "loss_graph",
    "project_budget",
    "pgd_step_structure",
    "feature_gd_step",
    "finalize_structure",
]


class AdaptationDeltas:
    """Feature offset plus relaxed per-edge deletion mask under a budget."""

    __slots__ = ("delta_x", "delta_a", "budget")

    def __init__(self, delta_x: np.ndarray, delta_a: np.ndarray, budget: float):
        delta_x = np.asarray(delta_x, dtype=np.float64)
        delta_a = np.asarray(delta_a, dtype=np.float64).ravel()
        if not np.isfinite(delta_x).all():
            raise ContractError("feature delta must be finite")
        if delta_a.size and (delta_a.min() < 0.0 or delta_a.max() > 1.0):
            raise ContractError("edge mask entries must lie in [0,1]")
        if delta_a.sum() > budget + 1e-6:
            raise ContractError(
                f"edge mask mass {delta_a.sum():.6g} exceeds budget {budget:.6g}"
            )
        self.delta_x = delta_x
        self.delta_a = delta_a
        self.budget = float(budget)

    @classmethod
    def zeros(cls, n: int, d: int, num_edges: int, budget: float) -> "AdaptationDeltas":
        return cls(np.zeros((n, d)), np.zeros(num_edges), budget)


class ConfidentSet:
    """Nodes whose own max predicted probability clears the threshold."""

    __slots__ = ("node_ids", "labels")

    def __init__(self, node_ids: np.ndarray, labels: np.ndarray):
        self.node_ids = np.asarray(node_ids, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)

    def __len__(self):
        return self.node_ids.size


def apply_feature_delta(x: Tensor, dx: Tensor) -> Tensor:
    """X plus the learned offset, recorded on their tape."""
    return add(x, dx)


def apply_structure_delta(g: TargetGraph, deltas):
    """Per-edge weights 1 - delta for the normalized adjacency."""
    da = deltas.delta_a if isinstance(deltas, AdaptationDeltas) else deltas
    if isinstance(da, Tensor):
        return add_scalar(neg(da), 1.0)
    da = np.asarray(da, dtype=np.float64).ravel()
    if da.shape != (g.num_edges,):
        raise ContractError(
            f"edge mask has {da.shape[0]} entries for {g.num_edges} edges"
        )
    return 1.0 - da


def select_confident(p, threshold: float) -> ConfidentSet:
    """Nodes with max class probability strictly above the threshold."""
    if not (0.0 < threshold < 1.0):
        raise ContractError(f"threshold must lie in (0,1), got {threshold}")
    pv = np.asarray(p, dtype=np.float64)
    best = pv.max(axis=1)
    ids = np.nonzero(best > threshold)[0]
    return ConfidentSet(ids, np.argmax(pv[ids], axis=1))


def knn_positives(z, banks: MemoryBanks, k: int) -> np.ndarray:
    """Top-k cosine-similar bank rows per node, self excluded, ties to the
    lower index.

    Works through KNN_BLOCK_ROWS rows of the similarity matrix at a time:
    a partition finds each row's k-th largest similarity, and only the
    entries at or above it are ordered, by (-similarity, index). That is
    the order of a stable descending sort of the whole row."""
    zv = np.asarray(z, dtype=np.float64)
    n = banks.n
    if not (1 <= k < n):
        raise ContractError(f"k must lie in [1, {n}), got {k}")
    an = _safe_normalize(zv)
    bnt = _safe_normalize(banks.repr_bank).T.copy()
    out = np.empty((an.shape[0], k), dtype=np.int64)
    for start in range(0, an.shape[0], KNN_BLOCK_ROWS):
        sims = an[start : start + KNN_BLOCK_ROWS] @ bnt
        own = np.arange(start, min(start + sims.shape[0], n))
        sims[own - start, own] = -np.inf
        kth = np.partition(sims, n - k, axis=1)[:, n - k]
        flat = np.flatnonzero(sims >= kth[:, None])  # row-major: rows come sorted
        rows, cols = np.divmod(flat, n)
        order = np.lexsort((cols, -sims.ravel()[flat], rows))
        first = np.searchsorted(rows, np.arange(sims.shape[0]))
        out[start : start + sims.shape[0]] = cols[order][first[:, None] + np.arange(k)]
    return out


def _safe_normalize(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms < 1e-12, 1.0, norms)


def _contrast_weights(
    p: np.ndarray, banks: MemoryBanks, positives: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Constant weight W with contrast = sum_i normalize(z_i) . W_i.

    With b_j the normalized bank rows, own(i) the live argmax of p_i,
    banked(j) the argmax of the banked prediction, S_c the sum of b_j over
    banked(j) = c and T the sum of all S_c:

        W_i = beta (T - S_own(i)) - sum_{j in pos(i)} (alpha + beta [banked(j) != own(i)]) b_j

    which equals -alpha times the positive cosines plus beta times the
    cosines over the negatives, summed, without listing a negative."""
    bn = _safe_normalize(banks.repr_bank)
    own = np.argmax(p, axis=1)
    banked = np.argmax(banks.pred_bank, axis=1)
    class_sums = np.zeros((max(p.shape[1], banks.pred_bank.shape[1]), bn.shape[1]))
    np.add.at(class_sums, banked, bn)
    coef = alpha + beta * (banked[positives] != own[:, None])
    return beta * (class_sums.sum(axis=0) - class_sums[own]) - np.einsum(
        "ik,ikh->ih", coef, bn[positives]
    )


def loss_graph(
    p: Tensor,
    z: Tensor,
    banks: MemoryBanks,
    conf: ConfidentSet,
    positives: np.ndarray,
    alpha: float,
    beta: float,
) -> Tensor:
    """Confident-node cross-entropy plus neighborhood contrast.

    The contrast terms are raw cosine sums against frozen bank rows: the
    positive sum is subtracted (weight alpha), the negative sum added
    (weight beta). The positives are the (n, k) bank row indices of
    `knn_positives`; the negatives are every bank row whose banked argmax
    differs from the node's live argmax, minus the node's positives. Both
    are recorded as one product of the normalized live representations
    with the constant `_contrast_weights`. The negatives depend on p only
    through its argmax, which carries no gradient. An empty confident set
    contributes zero cross-entropy.
    """
    if alpha < 0 or beta < 0:
        raise ContractError(f"alpha and beta must be nonnegative, got {alpha}, {beta}")
    try:
        pv = p.value
    except AttributeError:
        raise ContractError("loss_graph needs p recorded on a tape") from None
    weights = _contrast_weights(pv, banks, positives, alpha, beta)
    total = sum_all(mul(l2_normalize_rows(z), z.tape.constant(weights)))
    if len(conf):
        picked = select_cols(gather_rows(p, conf.node_ids), conf.labels)
        ce = neg(mean_all(log_clamped(picked)))
        total = add(ce, total)
    return total


def project_budget(v, budget: float) -> np.ndarray:
    """Euclidean-style projection into { x in [0,1]^e : sum(x) <= budget }.

    Clipping into the box suffices when the budget has slack; otherwise a
    bisection on the shift multiplier drives the clipped sum onto the budget
    to within 1e-9. Projecting a feasible point returns it unchanged.
    """
    if budget < 0:
        raise ContractError(f"budget must be nonnegative, got {budget}")
    v = np.asarray(v, dtype=np.float64).ravel()
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    # accept only the feasible side of the |residual| <= 1e-9 band, so the
    # output sum never exceeds the budget and re-projection is a no-op
    lo, hi = 0.0, float(v.max())
    gamma = hi
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        residual = np.clip(v - mid, 0.0, 1.0).sum() - budget
        if -1e-9 <= residual <= 0.0:
            gamma = mid
            break
        if residual > 0:
            lo = mid
        else:
            hi = mid
    else:
        gamma = hi  # residual(hi) <= 0, so the budget holds
    return np.clip(v - gamma, 0.0, 1.0)


def pgd_step_structure(
    deltas: AdaptationDeltas, grad: np.ndarray, step: float, budget: float
) -> AdaptationDeltas:
    """Gradient step on the edge mask followed by the budget projection.

    A zero step size degenerates to re-projecting the current (feasible)
    mask, which leaves it unchanged."""
    if step < 0:
        raise ContractError(f"step size must be nonnegative, got {step}")
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != deltas.delta_a.shape:
        raise ShapeError(f"mask grad {grad.shape} vs mask {deltas.delta_a.shape}")
    new_a = project_budget(deltas.delta_a - step * grad, budget)
    return AdaptationDeltas(deltas.delta_x, new_a, budget)


def feature_gd_step(
    deltas: AdaptationDeltas, grad: np.ndarray, step: float
) -> AdaptationDeltas:
    """Unconstrained gradient step on the feature offset."""
    if step < 0:
        raise ContractError(f"step size must be nonnegative, got {step}")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != deltas.delta_x.shape:
        raise ShapeError(f"feature grad {grad.shape} vs delta {deltas.delta_x.shape}")
    return AdaptationDeltas(deltas.delta_x - step * grad, deltas.delta_a, deltas.budget)


def finalize_structure(g: TargetGraph, deltas: AdaptationDeltas, seed: int) -> np.ndarray:
    """Draw the discrete graph as a boolean keep mask over `g.edges`: edge e
    survives with probability 1 - delta_e. `g.edges[keep]` are the surviving
    edges in their order."""
    if deltas.delta_a.shape != (g.num_edges,):
        raise ContractError(
            f"mask has {deltas.delta_a.shape[0]} entries for {g.num_edges} edges"
        )
    rng = np.random.default_rng(seed)
    return rng.random(g.num_edges) < (1.0 - deltas.delta_a)
