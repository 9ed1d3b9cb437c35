"""Model-side adaptation losses.

Pseudo-labels come from averaging the prediction bank over each node's
current neighborhood, one sparse product with the 0/1 neighbour matrix of
the graph's layout; global class prototypes from the representation bank
weight those labels by cosine confidence, one `numerics.row_dots` against
the C unit centroids, so no n x h copy of them is built or kept for the
backward pass. The pull toward prototypes is an InfoNCE-style term
whose denominator holds only negatives (the remaining prototypes and the
other instances), so its value can legitimately be negative. The
instance half of that denominator is one
`numerics.exp_sum_others` over the whole graph or a sampled batch: it
streams row blocks, so no n x n (or n x batch) array is kept, and over the
whole graph it computes each unordered node pair once.

Each step hands the next one a plain array: `neighborhood_pseudo_labels`
gives the int64 pseudo-label per node, and `compute_prototypes` turns those
labels into the (C, h) centroid array; a model step normalizes z and the
centroids once for both cosine terms. Loss functions take tensors recorded
on a tape and return tensors on it; read a value off one with
`numerics.evaluate`. Selection steps (argmax labels, prototype membership)
work on concrete values and act as constants under differentiation.
"""

from __future__ import annotations

import numpy as np

from .banks import MemoryBanks, class_sums
from .errors import ContractError
from .numerics import (
    SparseAdjacency,
    Tensor,
    _tape_of,
    add,
    evaluate,
    exp,
    exp_sum_others,
    log,
    log_clamped,
    matmul,
    mean_all,
    mul,
    mul_scalar,
    neg,
    relu,
    row_dots,
    row_sum,
    select_cols,
    spmm,
    sub,
    sum_all,
)

__all__ = [
    "neighborhood_pseudo_labels",
    "compute_prototypes",
    "confidence_weights",
    "loss_weighted_ce",
    "loss_instance_prototype",
    "loss_model",
]


def neighborhood_pseudo_labels(neighbors: SparseAdjacency, banks: MemoryBanks) -> np.ndarray:
    """Pseudo-label class id per node (int64): the argmax of the mean
    prediction-bank row over its neighborhood.

    `neighbors` is a 0/1 matrix marking each node's current neighbours
    (`AdjacencyLayout.neighbors`); the means are its product with the bank
    over its row sums. Nodes without a neighbour fall back to their own bank
    row. Exact argmax ties resolve to the lowest class id.
    """
    n = banks.n
    if neighbors.n != n:
        raise ContractError(f"neighbour matrix has {neighbors.n} rows for {n} banked nodes")
    counts = np.bincount(neighbors.rows, neighbors.values.ravel(), n)
    isolated = (counts == 0)[:, None]
    sums = evaluate(lambda bank: spmm(neighbors, bank), banks.pred_bank)
    agg = np.where(isolated, banks.pred_bank, sums / np.where(isolated, 1.0, counts[:, None]))
    return np.argmax(agg, axis=1)


def compute_prototypes(labels: np.ndarray, banks: MemoryBanks) -> np.ndarray:
    """(C, h) centroids: the mean representation-bank row per pseudo-class,
    over the bank's C classes; empty classes get zero."""
    num_classes = banks.pred_bank.shape[1]
    counts = np.bincount(labels, minlength=num_classes)
    sums = class_sums(banks.repr_bank, labels, num_classes)
    return sums / np.where(counts == 0, 1, counts)[:, None]


def confidence_weights(zn: Tensor, unit_centroids: np.ndarray, labels: np.ndarray) -> Tensor:
    """Cosine of each unit row of `zn` with its pseudo-class row of the (C, h)
    unit centroids, clamped at zero (a zero row gives zero): one
    `numerics.row_dots`, so no per-node copy of a centroid is built or kept
    for the backward pass."""
    return relu(row_dots(zn, unit_centroids, labels))


def loss_weighted_ce(p: Tensor, labels: np.ndarray, w) -> Tensor:
    """Confidence-weighted cross-entropy against the pseudo-labels, averaged
    over all nodes. `w` is an (n x 1) column on p's tape, live or a
    constant. Log probabilities are floored at 1e-12."""
    picked = select_cols(p, labels)
    return neg(mean_all(mul(w, log_clamped(picked))))


def loss_instance_prototype(
    zn: Tensor, unit_centroids: np.ndarray, labels: np.ndarray, tau: float, batch_indices=None
) -> Tensor:
    """Instance-to-prototype contrast of unit rows under temperature `tau`.

    Per node, the positive is its pseudo-class centroid; negatives are the
    other centroids plus every other instance (optionally restricted to a
    sampled batch). The positive is left out of the denominator, as in the
    weighting this loss is defined with. Every node's pseudo-class must have
    a centroid row, as it has when the centroids are built from the same
    pseudo-labels.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    n = labels.size
    inv_tau = 1.0 / tau
    proto_sims = matmul(zn, _tape_of(zn).constant(unit_centroids.T.copy()))
    pos = select_cols(proto_sims, labels)
    pos_exp = exp(mul_scalar(pos, inv_tau))
    proto_sum = sub(row_sum(exp(mul_scalar(proto_sims, inv_tau))), pos_exp)

    inst_sum = exp_sum_others(zn, batch_indices, inv_tau)
    per_node = sub(mul_scalar(pos, inv_tau), log(add(proto_sum, inst_sum)))
    return mul_scalar(sum_all(per_node), -1.0 / max(n, 1))


def loss_model(l_ce: Tensor, l_co: Tensor, lam: float) -> Tensor:
    """Convex mix of the two model-adaptation terms."""
    if not (0.0 <= lam <= 1.0):
        raise ContractError(f"lambda must lie in [0,1], got {lam}")
    return add(mul_scalar(l_ce, 1.0 - lam), mul_scalar(l_co, lam))
