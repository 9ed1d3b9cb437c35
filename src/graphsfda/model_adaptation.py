"""Model-side adaptation losses.

Pseudo-labels come from averaging the prediction bank over each node's
current neighborhood, one sparse product with the 0/1 neighbour matrix of
the graph's layout; global class prototypes from the representation bank
weight those labels by cosine confidence. The pull toward prototypes is an
InfoNCE-style term whose denominator holds only negatives (the remaining
prototypes and the other instances), so its value can legitimately be
negative. The instance half of that denominator is one
`numerics.exp_sum_others` over the whole graph or a sampled batch: it
streams row blocks, so no n x n (or n x batch) array is kept, and over the
whole graph it computes each unordered node pair once.

Loss functions take tensors recorded on a tape and return tensors on it;
read a value off one with `numerics.evaluate`. Selection steps (argmax
labels, prototype membership) work on concrete values and act as constants
under differentiation.
"""

from __future__ import annotations

import numpy as np

from .banks import MemoryBanks
from .errors import ContractError
from .numerics import (
    SparseAdjacency,
    Tensor,
    add,
    evaluate,
    exp,
    exp_sum_others,
    l2_normalize_rows,
    log,
    log_clamped,
    matmul,
    mean_all,
    mul,
    mul_scalar,
    neg,
    relu,
    row_sum,
    select_cols,
    spmm,
    sub,
    sum_all,
)

__all__ = [
    "PseudoLabels",
    "Prototypes",
    "neighborhood_pseudo_labels",
    "compute_prototypes",
    "confidence_weights",
    "loss_weighted_ce",
    "loss_instance_prototype",
    "loss_model",
]


class PseudoLabels:
    """Pseudo-label class id per node, out of `num_classes` classes."""

    __slots__ = ("class_id", "num_classes")

    def __init__(self, class_id: np.ndarray, num_classes: int):
        self.class_id = np.asarray(class_id, dtype=np.int64)
        self.num_classes = int(num_classes)


class Prototypes:
    """Class centroids of the representation bank under current pseudo-labels."""

    __slots__ = ("centroids", "counts")

    def __init__(self, centroids: np.ndarray, counts: np.ndarray):
        self.centroids = centroids
        self.counts = counts


def neighborhood_pseudo_labels(neighbors: SparseAdjacency, banks: MemoryBanks) -> PseudoLabels:
    """Argmax of the mean prediction-bank row over each node's neighborhood.

    `neighbors` is a 0/1 matrix marking each node's current neighbours
    (`AdjacencyLayout.neighbors`); the means are its product with the bank
    over its row sums. Nodes without a neighbour fall back to their own bank
    row. Exact argmax ties resolve to the lowest class id.
    """
    n = banks.n
    if neighbors.n != n:
        raise ContractError(f"neighbour matrix has {neighbors.n} rows for {n} banked nodes")
    counts = np.bincount(neighbors.rows_expanded(), neighbors.values.ravel(), n)
    isolated = (counts == 0)[:, None]
    sums = evaluate(lambda bank: spmm(neighbors, bank), banks.pred_bank)
    agg = np.where(isolated, banks.pred_bank, sums / np.where(isolated, 1.0, counts[:, None]))
    return PseudoLabels(np.argmax(agg, axis=1), banks.pred_bank.shape[1])


def compute_prototypes(pl: PseudoLabels, banks: MemoryBanks) -> Prototypes:
    """Mean representation-bank row per pseudo-class; empty classes get zero."""
    num_classes = pl.num_classes
    counts = np.bincount(pl.class_id, minlength=num_classes).astype(np.int64)
    sums = np.zeros((num_classes, banks.repr_bank.shape[1]))
    np.add.at(sums, pl.class_id, banks.repr_bank)
    denom = np.where(counts == 0, 1, counts)[:, None]
    return Prototypes(sums / denom, counts)


def _normalized_centroids(protos: Prototypes) -> np.ndarray:
    norms = np.linalg.norm(protos.centroids, axis=1, keepdims=True)
    safe = np.where(norms < 1e-12, 1.0, norms)
    return protos.centroids / safe


def confidence_weights(z: Tensor, protos: Prototypes, pl: PseudoLabels) -> Tensor:
    """Cosine similarity of each node to its pseudo-class centroid, clamped
    at zero; zero-norm operands give weight zero."""
    per_node_centroid = _normalized_centroids(protos)[pl.class_id]
    zn = l2_normalize_rows(z)
    return relu(row_sum(mul(zn, z.tape.constant(per_node_centroid))))


def loss_weighted_ce(p: Tensor, pl: PseudoLabels, w) -> Tensor:
    """Confidence-weighted cross-entropy against the pseudo-labels, averaged
    over all nodes. `w` is an (n x 1) column on p's tape, live or a
    constant. Log probabilities are floored at 1e-12."""
    picked = select_cols(p, pl.class_id)
    return neg(mean_all(mul(w, log_clamped(picked))))


def loss_instance_prototype(
    z: Tensor,
    protos: Prototypes,
    pl: PseudoLabels,
    tau: float,
    batch_indices=None,
    include_positive_in_denominator: bool = False,
) -> Tensor:
    """Instance-to-prototype contrast under temperature `tau`.

    Per node, the positive is its pseudo-class centroid; negatives are the
    other centroids plus every other instance (optionally restricted to a
    sampled batch). By default the positive is excluded from the denominator,
    matching the weighting this loss is defined with; flip
    `include_positive_in_denominator` for the more common normalization.
    Every node's pseudo-class must have a prototype, as it has when the
    prototypes are built from the same pseudo-labels.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    n = pl.class_id.size
    inv_tau = 1.0 / tau
    zn = l2_normalize_rows(z)
    proto_sims = matmul(zn, z.tape.constant(_normalized_centroids(protos).T.copy()))
    pos = select_cols(proto_sims, pl.class_id)
    pos_exp = exp(mul_scalar(pos, inv_tau))
    proto_sum = sub(row_sum(exp(mul_scalar(proto_sims, inv_tau))), pos_exp)

    inst_sum = exp_sum_others(zn, batch_indices, inv_tau)
    denom = add(proto_sum, inst_sum)
    if include_positive_in_denominator:
        denom = add(denom, pos_exp)
    per_node = sub(mul_scalar(pos, inv_tau), log(denom))
    return mul_scalar(sum_all(per_node), -1.0 / max(n, 1))


def loss_model(l_ce: Tensor, l_co: Tensor, lam: float) -> Tensor:
    """Convex mix of the two model-adaptation terms."""
    if not (0.0 <= lam <= 1.0):
        raise ContractError(f"lambda must lie in [0,1], got {lam}")
    return add(mul_scalar(l_ce, 1.0 - lam), mul_scalar(l_co, lam))
