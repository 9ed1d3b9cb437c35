"""End-to-end adaptation loop.

Each epoch alternates: several model updates against the adaptation loss
(deltas frozen, banks refreshed after every step), then feature-offset
steps and budget-projected structure steps against the graph loss (model
frozen). The feature offset, the edge mask and its budget are plain local
arrays: a graph step records its delta as the one leaf of a fresh tape,
`_graph_step` records the frozen model's pass on that tape and
backpropagates the graph loss, and `feature_gd_step` or
`pgd_step_structure` returns the new array. The target graph gets one
`AdjacencyLayout` per call. Only a structure step moves the edge mask, so
its normalized adjacency and neighbour matrix are built before the first
epoch and again after each epoch whose structure steps ran: the accuracy
forward and the next epoch's model and feature steps share them. The
network is evaluated once per model state: one pass of
`gnn.record_forward`, a tuple (tape, parameter leaves, representations z,
predictions p), fills the banks from the arrays
`z.value` and `p.value` at the start or gives the accuracy at the end of an
epoch, and the next model step differentiates it; a further model step in
the same epoch records its own. Edge weights are `apply_structure_delta` of
the edge-mask array, or of its live leaf in a structure step. The banks
change only in a model step, so an epoch's graph steps read one bank state
through one `UnitBank`, normalized and checked once, and drop it before the
next model step.
After the last epoch the continuous edge mask is sampled once into a keep
mask, and the final forward pass reads it off the same layout as 0/1 edge
weights, which equals the forward pass over the refined graph with the
dropped edges deleted. When the keep mask equals the last epoch's edge
weights (the mask is integral), that epoch's recorded pass already read
this adjacency and gives the predictions, after the finiteness check of
`gnn.forward` (`finite_pass`), so a labelled run with one model
step per epoch makes epochs + 1 forward passes, otherwise epochs + 2. The
report carries the edge mask and the keep mask for export; the learned
offset is in the refined graph's features.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .banks import init_banks, momentum_update
from .errors import ContractError, NumericalError
from .gnn import (
    AdamState,
    GnnModel,
    evaluate_accuracy,
    finite_pass,
    forward,
    forward_on_tape,
    record_forward,
)
from .graph_adaptation import (
    UnitBank,
    _require_finite,
    apply_feature_delta,
    apply_structure_delta,
    feature_gd_step,
    finalize_structure,
    knn_positives,
    loss_graph as _loss_graph,
    pgd_step_structure,
    select_confident,
)
from .graph_store import AdjacencyLayout, TargetGraph
from .model_adaptation import (
    compute_prototypes,
    confidence_weights,
    loss_instance_prototype,
    loss_model,
    loss_weighted_ce,
    neighborhood_pseudo_labels,
)
from .numerics import Tape, _keep_freed_heap, backward, evaluate, l2_normalize_rows

__all__ = ["AdaptConfig", "AdaptReport", "adapt", "evaluate_accuracy", "export_embeddings"]

CONVERGENCE_TOL = 1e-6
CONVERGENCE_PATIENCE = 10


@dataclass
class AdaptConfig:
    """All adaptation hyperparameters, with the documented defaults."""

    contrast_mix: float = 0.2  # weight of the instance-prototype term in the model loss
    positive_weight: float = 0.5
    negative_weight: float = 0.5
    temperature: float = 0.2
    confidence_threshold: float = 0.9
    k_neighbors: int = 5
    bank_momentum: float = 0.9
    budget_fraction: float = 0.2
    model_lr: float = 1e-3
    delta_lr: float = 0.01
    model_steps: int = 1
    feature_steps: int = 1
    structure_steps: int = 1
    epochs: int = 200
    seed: int = 0
    batch_size: int = 0  # 0 = contrast against the full graph

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError(f"{f.name} must be finite, got {value}")
        if not (0.0 <= self.contrast_mix <= 1.0):
            raise ContractError("contrast_mix must lie in [0,1]")
        if self.positive_weight < 0 or self.negative_weight < 0:
            raise ContractError("contrast weights must be nonnegative")
        if self.temperature <= 0:
            raise ContractError("temperature must be positive")
        if not (0.0 < self.confidence_threshold < 1.0):
            raise ContractError("confidence_threshold must lie in (0,1)")
        if self.k_neighbors < 1:
            raise ContractError("k_neighbors must be at least 1")
        if not (0.0 <= self.bank_momentum <= 1.0):
            raise ContractError("bank_momentum must lie in [0,1]")
        if not (0.0 <= self.budget_fraction <= 1.0):
            raise ContractError("budget_fraction must lie in [0,1]")
        if min(self.model_lr, self.delta_lr) < 0:
            raise ContractError("model_lr and delta_lr must be nonnegative")
        if min(self.model_steps, self.feature_steps, self.structure_steps) < 0:
            raise ContractError("loop counts must be nonnegative")
        if self.epochs < 0:
            raise ContractError("epochs must be nonnegative")
        if min(self.seed, self.batch_size) < 0:
            raise ContractError("seed and batch_size must be nonnegative")


@dataclass
class AdaptReport:
    """Per-epoch traces plus the final outcome. Entries are None for phases
    that ran zero steps in that epoch. `edge_mask` is the learned relaxed
    edge mask over the target edges, and `keep` marks the edges the refined
    graph kept; both stay out of the JSON document. The learned feature
    offset is already in the refined graph's features."""

    loss_model_trace: list = field(default_factory=list)
    loss_graph_trace: list = field(default_factory=list)
    accuracy_trace: list = field(default_factory=list)
    final_accuracy: float | None = None
    edges_deleted: int = 0
    seconds: float = 0.0
    edge_mask: np.ndarray | None = None
    keep: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        return {
            "loss_m": self.loss_model_trace,
            "loss_g": self.loss_graph_trace,
            "acc": self.accuracy_trace,
            "final_acc": self.final_accuracy,
            "edges_deleted": self.edges_deleted,
            "seconds": self.seconds,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2), encoding="utf-8")


def _check_finite(value: float, term: str) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"{term} became non-finite ({value})")
    return value


def adapt(model: GnnModel, g: TargetGraph, cfg: AdaptConfig):
    """Run the full adaptation and return

    (adapted model, refined target graph, argmax predictions, report).

    Deterministic for fixed (model, graph, config) at a fixed BLAS thread
    count: another thread count can change the last bits of the matrix
    products, so repeats are bitwise only per count. With all loop counts or
    epochs at zero the predictions coincide bit-for-bit with the unadapted
    model on the unmodified graph.

    A labelled run with one model step per epoch makes epochs + 1 forward
    passes when the edge mask is integral, otherwise epochs + 2: one for
    the banks, one per epoch that serves both its accuracy and the next
    epoch's model step, and the final prediction, unless the sampled keep
    mask equals the last epoch's edge weights (always so without structure
    steps or with a zero budget) and that epoch's pass is reused. No
    forward tape is kept past the model steps into the graph steps.

    When a graph step will run on a non-empty target, `cfg.k_neighbors`
    must be below its node count, else ContractError before any forward
    pass. The first pass, which fills the banks, is checked finite. A
    NumericalError raised there, in an epoch or in the final pass is raised
    again with its place appended to its message: the first pass, the
    1-based epoch and the step (model, feature or structure), or the final
    pass and the epoch it followed.

    The first call in a process keeps freed heap in the process on glibc
    (`numerics._keep_freed_heap`), so later steps fault no pages in.
    """
    if model.input_dim != g.feature_dim:
        raise ContractError(
            f"model expects {model.input_dim}-dim features, graph has {g.feature_dim}"
        )
    if g.num_classes and model.num_classes != g.num_classes:
        raise ContractError(
            f"model has {model.num_classes} classes, graph meta says {g.num_classes}"
        )
    graph_steps = cfg.epochs and (cfg.feature_steps or cfg.structure_steps)
    # an empty target fails on its first loss, a mean over no nodes
    if graph_steps and 0 < g.n <= cfg.k_neighbors:
        raise ContractError(
            f"k_neighbors ({cfg.k_neighbors}) must be below the node count n ({g.n}) "
            "when a graph step runs"
        )
    _keep_freed_heap()
    started = time.perf_counter()
    model = model.copy()
    n, e = g.n, g.num_edges
    delta_x, delta_a, budget = np.zeros((n, g.feature_dim)), np.zeros(e), cfg.budget_fraction * e
    layout = AdjacencyLayout(n, g.edges)
    x_base = g.features
    weights = apply_structure_delta(delta_a)
    adj = layout.normalized(weights)
    neighbors = None  # built by the first epoch that reads it
    x_prime = x_base + delta_x

    # no local name keeps the pass's z or p: a held tensor pins its value
    # (not its tape, which it refers to weakly) past `recorded = None`
    recorded = record_forward(model, adj, x_prime)
    opt = AdamState([p.shape for p in model.parameters()], cfg.model_lr)

    seed_seq = np.random.SeedSequence(cfg.seed)
    batch_ss, final_ss = seed_seq.spawn(2)
    batch_rng = np.random.default_rng(batch_ss)
    finalize_seed = int(final_ss.generate_state(1)[0])

    report = AdaptReport()
    quiet_epochs = 0
    prev = (None, None)
    epoch = 0
    where = "in the first pass"
    try:
        banks = init_banks(*finite_pass(recorded[2].value, recorded[3].value), cfg.bank_momentum)
        for epoch in range(1, cfg.epochs + 1):
            where = f"at epoch {epoch}, model step"
            if neighbors is None:
                neighbors = layout.neighbors(weights)

            loss_m = None
            for _ in range(cfg.model_steps):
                recorded = recorded or record_forward(model, adj, x_prime)
                banks, loss_m = _model_step(recorded, model, opt, neighbors, banks, cfg, batch_rng)
                recorded = None  # the step changed the model
            recorded = None  # no forward tape lives on into the graph steps

            loss_g = None
            bank = None  # the epoch's graph steps share one normalized bank state
            model_params = model.parameters()
            where = f"at epoch {epoch}, feature step"
            for _ in range(cfg.feature_steps):
                tape = Tape()
                dx = tape.leaf(delta_x)
                x = apply_feature_delta(tape.constant(x_base), dx)
                bank = bank or UnitBank(banks)
                loss_g = _graph_step(tape, model_params, adj, x, bank, cfg)
                delta_x = feature_gd_step(delta_x, dx.grad, cfg.delta_lr)
            x_prime = x_base + delta_x

            where = f"at epoch {epoch}, structure step"
            for _ in range(cfg.structure_steps):
                tape = Tape()
                da = tape.leaf(delta_a.reshape(-1, 1))
                adj_live = layout.normalized(apply_structure_delta(da))
                x = tape.constant(x_prime)
                bank = bank or UnitBank(banks)
                loss_g = _graph_step(tape, model_params, adj_live, x, bank, cfg)
                delta_a = pgd_step_structure(delta_a, da.grad, cfg.delta_lr, budget)
            bank = None  # dropped before the next model step moves the banks

            if cfg.structure_steps:
                weights = apply_structure_delta(delta_a)
                adj, neighbors = layout.normalized(weights), None
            report.loss_model_trace.append(loss_m)
            report.loss_graph_trace.append(loss_g)
            if g.labels is not None:
                # the next epoch's first model step differentiates this pass
                recorded = record_forward(model, adj, x_prime)
                pred = np.argmax(recorded[3].value, axis=1)
                report.accuracy_trace.append(evaluate_accuracy(pred, g.labels))

            delta_m = _trace_delta(prev[0], loss_m)
            delta_g = _trace_delta(prev[1], loss_g)
            prev = (loss_m, loss_g)
            if delta_m < CONVERGENCE_TOL and delta_g < CONVERGENCE_TOL:
                quiet_epochs += 1
                if quiet_epochs >= CONVERGENCE_PATIENCE:
                    break
            else:
                quiet_epochs = 0

        where = f"in the final pass after epoch {epoch}"
        keep = finalize_structure(delta_a, finalize_seed)
        refined = TargetGraph(n, g.edges[keep], x_prime, g.labels, g.num_classes)
        if recorded is not None and np.array_equal(keep, weights):
            # the last pass already read these 0/1 weights, features and model
            _, final_p = finite_pass(recorded[2].value, recorded[3].value)
        else:
            recorded = None  # the final prediction reads another adjacency
            keep_adj = layout.normalized(keep.astype(np.float64))
            _, final_p = forward(model, keep_adj, refined.features)
    except NumericalError as exc:
        raise NumericalError(f"{exc} {where}") from exc
    predictions = np.argmax(final_p, axis=1)
    report.edges_deleted = e - refined.num_edges
    if g.labels is not None:
        report.final_accuracy = evaluate_accuracy(predictions, g.labels)
    report.edge_mask = delta_a
    report.keep = keep
    report.seconds = time.perf_counter() - started
    return model, refined, predictions, report


def _model_step(recorded, model, opt, neighbors, banks, cfg: AdaptConfig, batch_rng):
    """One Adam step on the model loss, differentiating the recorded forward
    pass of the current model; returns the refreshed banks and the loss."""
    tape, params, z, p = recorded
    labels = neighborhood_pseudo_labels(neighbors, banks)
    unit_centroids = evaluate(l2_normalize_rows, compute_prototypes(labels, banks))
    zn = l2_normalize_rows(z)
    w = confidence_weights(zn, unit_centroids, labels)
    l_ce = loss_weighted_ce(p, labels, w)
    batch = None
    if cfg.batch_size:
        n = banks.n
        batch = batch_rng.choice(n, size=min(cfg.batch_size, n), replace=False)
    l_co = loss_instance_prototype(zn, unit_centroids, labels, cfg.temperature, batch_indices=batch)
    _check_finite(float(l_ce.value[0, 0]), "weighted cross-entropy (model loss)")
    _check_finite(float(l_co.value[0, 0]), "instance-prototype contrast (model loss)")
    l_m = loss_model(l_ce, l_co, cfg.contrast_mix)
    backward(tape, l_m)
    opt.step(model.parameters(), [t.grad for t in params])
    return momentum_update(banks, z.value, p.value), float(l_m.value[0, 0])


def _trace_delta(before, after) -> float:
    if before is None and after is None:
        return 0.0
    if before is None or after is None:
        return float("inf")
    return abs(after - before)


def _graph_step(tape, model_params, adj, x, bank, cfg: AdaptConfig) -> float:
    """Record the frozen model's pass over `adj` and `x` on the step's tape,
    normalize z once for the kNN and the graph loss against the `UnitBank`
    `bank`, check the loss finite and backpropagate it; returns the loss."""
    z, p = forward_on_tape([tape.constant(w) for w in model_params], adj, x)
    conf = select_confident(p.value, cfg.confidence_threshold)
    _require_finite(z.value, "kNN positives: z")  # a non-finite row would warn below
    zn = l2_normalize_rows(z)
    del z  # frees its n x h value: the normalization's pull reads zn, not z
    positives = knn_positives(zn.value, bank, cfg.k_neighbors)
    l_g = _loss_graph(p, zn, bank, conf, positives, cfg.positive_weight, cfg.negative_weight)
    loss = _check_finite(float(l_g.value[0, 0]), "graph adaptation loss")
    backward(tape, l_g)
    return loss


def export_embeddings(model: GnnModel, g: TargetGraph, edge_mask, path) -> None:
    """Write the node representations over `g` with the relaxed edge mask
    `edge_mask` applied (None masks no edge), one node per line,
    space-separated with round-trip precision."""
    mask = np.zeros(g.num_edges) if edge_mask is None else edge_mask
    adj = AdjacencyLayout(g.n, g.edges).normalized(apply_structure_delta(mask))
    z, _ = forward(model, adj, g.features)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, z, fmt="%.17g")
