"""Model-side adaptation losses.

Pseudo-labels come from averaging the prediction bank over each node's
current neighborhood, one sparse product with the 0/1 neighbour matrix of
the graph's layout; global class prototypes from the representation bank
weight those labels by cosine confidence. The pull toward prototypes is an
InfoNCE-style term whose denominator holds only negatives (the remaining
prototypes and the other instances), so its value can legitimately be
negative.

Loss functions accept live tensors (recorded for differentiation) or plain
matrices; selection steps (argmax labels, prototype membership) always work
on concrete values and act as constants under differentiation.
"""

from __future__ import annotations

import warnings

import numpy as np

from .banks import MemoryBanks
from .errors import ContractError
from .numerics import (
    DenseMatrix,
    SparseAdjacency,
    Tape,
    Tensor,
    add,
    exp,
    gather_rows,
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
    transpose,
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
    """One-hot pseudo-label per node plus the integer class ids."""

    __slots__ = ("onehot", "class_id")

    def __init__(self, class_id: np.ndarray, num_classes: int):
        class_id = np.asarray(class_id, dtype=np.int64)
        onehot = np.zeros((class_id.size, num_classes))
        onehot[np.arange(class_id.size), class_id] = 1.0
        self.onehot = onehot
        self.class_id = class_id

    @property
    def num_classes(self) -> int:
        return self.onehot.shape[1]


class Prototypes:
    """Class centroids of the representation bank under current pseudo-labels."""

    __slots__ = ("centroids", "counts")

    def __init__(self, centroids: np.ndarray, counts: np.ndarray):
        self.centroids = centroids
        self.counts = counts

    @property
    def empty(self) -> np.ndarray:
        """Classes with no assigned node; their centroid rows are zero."""
        return self.counts == 0


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
    sums = spmm(neighbors, banks.pred_bank)
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


def _scalar(x) -> float:
    return float(x.value[0, 0]) if isinstance(x, Tensor) else float(x)


def confidence_weights(z, protos: Prototypes, pl: PseudoLabels):
    """Cosine similarity of each node to its pseudo-class centroid, clamped
    at zero; zero-norm operands give weight zero."""
    if isinstance(z, Tensor):
        return _confidence_weights_t(z, protos, pl)
    tape = Tape()
    out = _confidence_weights_t(tape.leaf(z), protos, pl)
    return DenseMatrix.from_array(out.value)


def _confidence_weights_t(z: Tensor, protos: Prototypes, pl: PseudoLabels) -> Tensor:
    per_node_centroid = _normalized_centroids(protos)[pl.class_id]
    zn = l2_normalize_rows(z)
    return relu(row_sum(mul(zn, per_node_centroid)))


def loss_weighted_ce(p, pl: PseudoLabels, w):
    """Confidence-weighted cross-entropy against the pseudo-labels, averaged
    over all nodes. Log probabilities are floored at 1e-12."""
    if isinstance(p, Tensor) or isinstance(w, Tensor):
        return _loss_weighted_ce_t(p, pl, w)
    tape = Tape()
    return _scalar(_loss_weighted_ce_t(tape.leaf(p), pl, _value_col(w)))


def _value_col(w) -> np.ndarray:
    if isinstance(w, Tensor):
        return w
    wv = w.a if isinstance(w, DenseMatrix) else np.asarray(w, dtype=np.float64)
    return wv.reshape(-1, 1)


def _loss_weighted_ce_t(p, pl: PseudoLabels, w) -> Tensor:
    picked = select_cols(p, pl.class_id)
    weighted = mul(_value_col(w) if not isinstance(w, Tensor) else w, log_clamped(picked))
    return neg(mean_all(weighted))


def loss_instance_prototype(
    z,
    protos: Prototypes,
    pl: PseudoLabels,
    tau: float,
    batch_indices=None,
    include_positive_in_denominator: bool = False,
):
    """Instance-to-prototype contrast under temperature `tau`.

    Per node, the positive is its pseudo-class centroid; negatives are the
    other centroids plus every other instance (optionally restricted to a
    sampled batch). By default the positive is excluded from the denominator,
    matching the weighting this loss is defined with; flip
    `include_positive_in_denominator` for the more common normalization.
    Nodes whose pseudo-class has no members are skipped with a warning.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    if isinstance(z, Tensor):
        return _loss_instance_prototype_t(
            z, protos, pl, tau, batch_indices, include_positive_in_denominator
        )
    tape = Tape()
    out = _loss_instance_prototype_t(
        tape.leaf(z), protos, pl, tau, batch_indices, include_positive_in_denominator
    )
    return _scalar(out)


def _loss_instance_prototype_t(
    z: Tensor,
    protos: Prototypes,
    pl: PseudoLabels,
    tau: float,
    batch_indices,
    include_positive: bool,
) -> Tensor:
    n = z.value.shape[0]
    keep = ~protos.empty[pl.class_id]
    if not np.all(keep):
        warnings.warn(
            f"{int((~keep).sum())} node(s) skipped: empty pseudo-class prototype",
            stacklevel=2,
        )
    if not np.any(keep):
        return mul_scalar(mean_all(z), 0.0)

    inv_tau = 1.0 / tau
    zn = l2_normalize_rows(z)
    proto_sims = matmul(zn, _normalized_centroids(protos).T.copy())
    pos = select_cols(proto_sims, pl.class_id)
    pos_exp = exp(mul_scalar(pos, inv_tau))
    proto_sum = sub(row_sum(exp(mul_scalar(proto_sims, inv_tau))), pos_exp)

    if batch_indices is None:
        inst_exp = exp(mul_scalar(matmul(zn, transpose(zn)), inv_tau))
        self_term = select_cols(inst_exp, np.arange(n))
        inst_sum = sub(row_sum(inst_exp), self_term)
    else:
        batch = np.asarray(batch_indices, dtype=np.int64)
        others = exp(mul_scalar(matmul(zn, transpose(gather_rows(zn, batch))), inv_tau))
        not_self = (batch[None, :] != np.arange(n)[:, None]).astype(np.float64)
        inst_sum = row_sum(mul(others, not_self))

    denom = add(proto_sum, inst_sum)
    if include_positive:
        denom = add(denom, pos_exp)
    per_node = sub(mul_scalar(pos, inv_tau), log(denom))
    kept_total = sum_all(mul(per_node, keep.astype(np.float64).reshape(-1, 1)))
    return mul_scalar(kept_total, -1.0 / int(keep.sum()))


def loss_model(l_ce, l_co, lam: float):
    """Convex mix of the two model-adaptation terms."""
    if not (0.0 <= lam <= 1.0):
        raise ContractError(f"lambda must lie in [0,1], got {lam}")
    ce_live = isinstance(l_ce, Tensor)
    co_live = isinstance(l_co, Tensor)
    if not ce_live and not co_live:
        return (1.0 - lam) * float(l_ce) + lam * float(l_co)
    a = mul_scalar(l_ce, 1.0 - lam) if ce_live else np.array([[(1.0 - lam) * float(l_ce)]])
    b = mul_scalar(l_co, lam) if co_live else np.array([[lam * float(l_co)]])
    return add(a, b)
