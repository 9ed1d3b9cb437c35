"""Graph-side adaptation: learned feature offsets and a budgeted edge mask.

Features move by plain gradient descent on an additive offset. Structure
moves by projected gradient descent on a relaxed per-edge deletion mask
delta in [0,1]^e whose total mass stays under a budget; the projection
clips into the box and, when the budget binds, shifts by the multiplier
that puts the clipped mass on the budget, solved exactly between the sorted
kinks of that mass. Both are plain arrays: `feature_gd_step` and
`pgd_step_structure` take the current one and return the next, and
`pgd_step_structure` is the only producer of a mask, so every mask it
returns lies in the box and under the budget. An edge with mask delta
carries weight 1 - delta through the normalized adjacency
(`AdjacencyLayout.normalized`, recorded on the mask's tape in a structure
step, and checked there when constant), so delta = 1 reproduces deletion
exactly. `apply_structure_delta` is the one place that rule is written: it
takes the mask as an array, or as a live leaf in a structure step. The
final discrete graph is drawn once as a keep mask, edge e kept with
probability 1 - delta_e (`finalize_structure`).

The training signal is a self-training loss: cross-entropy on
high-confidence nodes plus a neighborhood contrast that pulls each node
toward its nearest bank entries and pushes it from differently-labelled
ones. Bank rows enter the tape as constants; gradients flow only through
the live forward pass.

Neither the contrast nor its selection builds an n x n array. The nearest
bank entries come from row blocks of the similarity matrix, so the kNN
holds KNN_BLOCK_ROWS x n values at a time. On large graphs a block is not
partitioned whole: the maxima of strided column groups give a threshold
that no positive falls below, and only the groups that reach it are
ordered, each node's candidates on their own (see `knn_positives`). Both
read a bank state through its `UnitBank`, normalized and checked once for
every graph step that reads it. The negative sum over every
differently-labelled bank row collapses onto per-class sums of the
normalized bank rows, so the contrast is one product of the unit live
representations with a constant n x h weight (see `_contrast_weights`).
Memory is linear in n; the kNN is the only O(n^2 h) time. Every cosine here
is a dot product of unit rows: `UnitBank` normalizes a bank state once, and
a graph step its live representations once, on its tape, for both the kNN
and the contrast (`numerics.l2_normalize_rows`).
"""

from __future__ import annotations

import numpy as np

from .banks import MemoryBanks, class_sums
from .errors import ContractError, NumericalError, ShapeError
from .numerics import (
    Tensor,
    _tape_of,
    add,
    add_scalar,
    evaluate,
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
# columns per strided group of the kNN pre-filter, and the fewest groups
# for which grouping pays; with fewer, each column is its own group
KNN_GROUP_SIZE = 16
KNN_MIN_GROUPS = 64

__all__ = [
    "ConfidentSet",
    "UnitBank",
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


def apply_structure_delta(delta_a):
    """Per-edge weights 1 - delta for the normalized adjacency, from the edge
    mask: an (e,) array, or a live (e x 1) Tensor whose tape then records
    the weights. `AdjacencyLayout.normalized` checks constant weights."""
    if isinstance(delta_a, Tensor):
        return add_scalar(neg(delta_a), 1.0)
    return 1.0 - np.asarray(delta_a, dtype=np.float64).ravel()


def select_confident(p, threshold: float) -> ConfidentSet:
    """Nodes with max class probability strictly above the threshold."""
    if not (0.0 < threshold < 1.0):
        raise ContractError(f"threshold must lie in (0,1), got {threshold}")
    pv = np.asarray(p, dtype=np.float64)
    best = pv.max(axis=1)
    ids = np.nonzero(best > threshold)[0]
    return ConfidentSet(ids, np.argmax(pv[ids], axis=1))


class UnitBank:
    """One bank state as the graph steps read it: the representation bank
    with unit rows (`l2_normalize_rows`), checked finite and stored
    transposed, (h, n), as the kNN's product reads it, and the class of
    each banked prediction (its argmax) among the bank's `num_classes`.

    `knn_positives` and `loss_graph` take it in place of the `MemoryBanks`
    it is built from, so the graph steps that read one bank state normalize
    and check it once; `adapt` builds one per epoch and drops it before the
    next model step."""

    __slots__ = ("unit_t", "labels", "num_classes")

    def __init__(self, banks: MemoryBanks):
        _require_finite(banks.repr_bank, "representation bank")
        self.unit_t = evaluate(l2_normalize_rows, banks.repr_bank).T.copy()
        self.labels = np.argmax(banks.pred_bank, axis=1)
        self.num_classes = banks.pred_bank.shape[1]

    @property
    def n(self) -> int:
        return self.unit_t.shape[1]


def knn_positives(zn, bank: UnitBank, k: int) -> np.ndarray:
    """Top-k cosine-similar rows of `bank` per unit row of `zn`, self excluded,
    ties to the lower index. Row i of `zn` is node i, whose own bank row is
    i, so `zn` must have the bank's shape, (n, h); else ShapeError.

    Works through KNN_BLOCK_ROWS rows of the similarity matrix at a time,
    each block computed into the same buffer. The n columns fall into
    w = n // KNN_GROUP_SIZE strided groups: group j holds columns
    j, j+w, j+2w, ..., and one pass takes each group's maximum. The k
    largest maxima are k distinct entries, so the k-th largest group maximum
    is at most the k-th largest entry: it is a threshold that keeps every
    positive and every tie at the k-th place. Only the entries of groups
    whose maximum reaches it are gathered, laid out one row per node (padded
    with similarity -inf and column n), and each row is ordered on its own
    by (-similarity, column). That is the order of a stable descending sort
    of the whole row. The column is a key because a row's entries from
    several groups are not in column order. With fewer than KNN_MIN_GROUPS
    groups (or fewer than k, or than KNN_GROUP_SIZE) each column is its own
    group and the partition runs on the whole row.

    A non-finite entry in `zn` or in the representation bank raises
    NumericalError: the row would have no defined order."""
    zv = np.asarray(zn, dtype=np.float64)
    bnt, n = bank.unit_t, bank.n
    if not (1 <= k < n):
        raise ContractError(f"k must lie in [1, {n}), got {k}")
    if zv.shape != bnt.shape[::-1]:
        raise ShapeError(f"kNN positives: z {zv.shape} vs bank {bnt.shape[::-1]}")
    _require_finite(zv, "kNN positives: z")
    size = KNN_GROUP_SIZE
    width = n // size  # groups; column c is in group c % width
    if width < max(KNN_MIN_GROUPS, size, k):
        size, width = 1, n
    tail = n - size * width  # < width: the first `tail` groups hold one more column
    spread = width * np.arange(size + 1)  # group j's columns are j + spread below n
    out = np.empty((n, k), dtype=np.int64)
    buf = np.empty((min(KNN_BLOCK_ROWS, n), n))  # every block's similarities
    for start in range(0, n, KNN_BLOCK_ROWS):
        m = min(KNN_BLOCK_ROWS, n - start)
        sims = np.matmul(zv[start : start + m], bnt, out=buf[:m])
        own = np.arange(start, start + m)
        sims[own - start, own] = -np.inf
        maxima = sims
        if size > 1:
            maxima = sims[:, : size * width].reshape(-1, size, width).max(axis=1)
            np.maximum(maxima[:, :tail], sims[:, size * width :], out=maxima[:, :tail])
        kth = np.partition(maxima, width - k, axis=1)[:, width - k]
        flat = np.flatnonzero(maxima >= kth[:, None])  # row-major: rows come sorted
        rows, cols = np.divmod(flat, width)
        if size > 1:  # from each group that reaches kth, the entries that do
            cols = cols[:, None] + spread
            keep = (cols < n) & (sims[rows[:, None], np.minimum(cols, n - 1)] >= kth[rows, None])
            rows, cols = np.broadcast_to(rows[:, None], cols.shape)[keep], cols[keep]
        counts = np.bincount(rows, minlength=m)
        place = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        neg_sims = np.full((m, counts.max()), np.inf)
        columns = np.full(neg_sims.shape, n)
        neg_sims[rows, place] = -sims[rows, cols]
        columns[rows, place] = cols
        order = np.lexsort((columns, neg_sims), axis=1)[:, :k]
        out[start : start + m] = np.take_along_axis(columns, order, axis=1)
    return out


def _require_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        row = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise NumericalError(f"{name} has a non-finite entry in row {row}")


def _contrast_weights(
    p: np.ndarray, bank: UnitBank, positives: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Constant weight W with contrast = sum_i zn_i . W_i for the unit rows zn.

    With b_j the normalized bank rows, own(i) the live argmax of p_i,
    banked(j) the argmax of the banked prediction, S_c the sum of b_j over
    banked(j) = c and T the sum of all S_c:

        W_i = beta (T - S_own(i)) - sum_{j in pos(i)} (alpha + beta [banked(j) != own(i)]) b_j

    which equals -alpha times the positive cosines plus beta times the
    cosines over the negatives, summed, without listing a negative."""
    bn = bank.unit_t.T
    own = np.argmax(p, axis=1)
    banked = bank.labels
    sums = class_sums(bn, banked, max(p.shape[1], bank.num_classes))
    coef = alpha + beta * (banked[positives] != own[:, None])
    return beta * (sums.sum(axis=0) - sums[own]) - np.einsum("ik,ikh->ih", coef, bn[positives])


def loss_graph(
    p: Tensor,
    zn: Tensor,
    bank: UnitBank,
    conf: ConfidentSet,
    positives: np.ndarray,
    alpha: float,
    beta: float,
) -> Tensor:
    """Confident-node cross-entropy plus neighborhood contrast.

    The contrast terms are raw cosine sums of the unit rows `zn`
    (`l2_normalize_rows` of z) against frozen bank rows: the positive sum is
    subtracted (weight alpha), the negative sum added (weight beta). The
    positives are the (n, k) bank row indices of `knn_positives`; the
    negatives are every bank row whose banked argmax differs from the node's
    live argmax, minus the node's positives. Both are recorded as one product
    of `zn` with the constant `_contrast_weights`. The negatives depend on p
    only through its argmax, which carries no gradient. An empty confident set
    contributes zero cross-entropy.

    `positives` must be (n, k), n the rows of p and zn, else ShapeError; an
    entry outside [0, bank.n) raises ContractError.
    """
    if not (0.0 <= alpha < np.inf and 0.0 <= beta < np.inf):  # NaN fails too
        raise ContractError(f"alpha and beta must be finite and nonnegative, got {alpha}, {beta}")
    tape = _tape_of(p, zn)
    pv, zv = p.value, zn.value
    positives = np.asarray(positives)
    if positives.ndim != 2 or not positives.shape[0] == pv.shape[0] == zv.shape[0]:
        raise ShapeError(
            f"loss_graph: positives {positives.shape} for p {pv.shape} and zn {zv.shape}"
        )
    if positives.size and (positives.min() < 0 or positives.max() >= bank.n):
        raise ContractError(f"loss_graph: positive row id outside [0,{bank.n})")
    weights = _contrast_weights(pv, bank, positives, alpha, beta)
    total = sum_all(mul(zn, tape.constant(weights)))
    if len(conf):
        picked = select_cols(gather_rows(p, conf.node_ids), conf.labels)
        ce = neg(mean_all(log_clamped(picked)))
        total = add(ce, total)
    return total


def project_budget(v, budget: float) -> np.ndarray:
    """Euclidean projection into { x in [0,1]^e : sum(x) <= budget }.

    Clipping into the box suffices when the budget has slack; otherwise the
    projection is clip(v - gamma, 0, 1) for the gamma at which that mass
    equals the budget. The mass is piecewise linear and nonincreasing in
    gamma, with kinks at v - 1 (an entry leaves 1) and v (it reaches 0):
    its value at every sorted kink is a suffix sum of slope times segment
    length, and gamma is solved for on the one segment that crosses the
    budget, in O(e log e). The sum then equals the budget to rounding, and
    projecting the result again returns it to rounding. Projecting a
    feasible point returns it unchanged.

    A non-finite entry of `v` raises NumericalError; a negative or NaN
    budget, ContractError.
    """
    if not budget >= 0:  # NaN fails too
        raise ContractError(f"budget must be nonnegative, got {budget}")
    v = np.asarray(v, dtype=np.float64).ravel()
    if not np.isfinite(v).all():
        i = int(np.argmin(np.isfinite(v)))
        raise NumericalError(f"edge mask step has non-finite entry {v[i]} at edge {i}")
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    kinks = np.concatenate([v - 1.0, v])
    order = np.argsort(kinks)
    kinks = kinks[order]
    inside = np.cumsum(np.where(order < v.size, 1, -1))[:-1]  # entries in (0,1) past each kink
    mass = np.append(np.cumsum((inside * np.diff(kinks))[::-1])[::-1], 0.0)
    j = np.count_nonzero(mass[1:] > budget)  # mass[j] > budget >= mass[j + 1]
    return np.clip(v - (kinks[j] + (mass[j] - budget) / inside[j]), 0.0, 1.0)


def pgd_step_structure(
    delta_a: np.ndarray, grad: np.ndarray, step: float, budget: float
) -> np.ndarray:
    """The edge mask after a gradient step and the projection onto the
    budget (`project_budget`).

    A zero step size degenerates to re-projecting the current (feasible)
    mask, which leaves it unchanged to rounding."""
    _require_step(step)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != delta_a.shape:
        raise ShapeError(f"mask grad {grad.shape} vs mask {delta_a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # project_budget names it
        stepped = delta_a - step * grad
    return project_budget(stepped, budget)


def feature_gd_step(delta_x: np.ndarray, grad: np.ndarray, step: float) -> np.ndarray:
    """The feature offset after an unconstrained gradient step.

    A non-finite entry of the new offset raises NumericalError naming it."""
    _require_step(step)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != delta_x.shape:
        raise ShapeError(f"feature grad {grad.shape} vs delta {delta_x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        new_x = delta_x - step * grad
    finite = np.isfinite(new_x)
    if not finite.all():
        node, feature = np.unravel_index(np.argmin(finite), finite.shape)
        raise NumericalError(
            f"feature step has non-finite entry {new_x[node, feature]} "
            f"at node {node}, feature {feature}"
        )
    return new_x


def _require_step(step: float) -> None:
    """A negative step size is a ContractError, a NaN one a NumericalError."""
    if not step >= 0:  # NaN fails too
        kind = NumericalError if np.isnan(step) else ContractError
        raise kind(f"step size must be nonnegative, got {step}")


def finalize_structure(delta_a: np.ndarray, seed: int) -> np.ndarray:
    """Draw the discrete graph as a boolean keep mask over the edges of the
    mask `delta_a`: edge e survives with probability 1 - delta_e, and
    `g.edges[keep]` are the surviving edges in their order."""
    rng = np.random.default_rng(seed)
    return rng.random(delta_a.size) < (1.0 - delta_a)
