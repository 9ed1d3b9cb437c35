"""End-to-end adaptation loop.

Each epoch alternates: several model updates against the adaptation loss
(deltas frozen, banks refreshed after every step), then feature-offset
steps and budget-projected structure steps against the graph loss (model
frozen). The target graph gets one `AdjacencyLayout` per call, normalized
once per epoch after the graph steps: the accuracy forward and the next
epoch's model and feature steps share it. The network is evaluated once per
model state: one pass of `gnn.record_forward` fills the banks at the start
or gives the accuracy at the end of an epoch, and the next model step
differentiates it; a further model step in the same epoch records its own.
After the last epoch the continuous edge mask is sampled once into a keep
mask, and the final forward pass reads it off the same layout as 0/1 edge
weights, which equals the forward pass over the refined graph with the
dropped edges deleted. The report carries the keep mask for export.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .banks import init_banks, momentum_update
from .errors import ContractError, NumericalError
from .gnn import AdamState, GnnModel, forward, forward_on_tape, record_forward, recorded_outputs
from .graph_adaptation import (
    AdaptationDeltas,
    apply_feature_delta,
    apply_structure_delta,
    feature_gd_step,
    finalize_structure,
    knn_positives,
    loss_graph as _loss_graph,
    pgd_step_structure,
    select_confident,
)
from .graph_store import AdjacencyLayout, TargetGraph, normalize_adjacency
from .model_adaptation import (
    compute_prototypes,
    confidence_weights,
    loss_instance_prototype,
    loss_model,
    loss_weighted_ce,
    neighborhood_pseudo_labels,
)
from .numerics import Tape, backward

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
    include_positive_in_denominator: bool = False

    def __post_init__(self):
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
    that ran zero steps in that epoch. `deltas` carries the learned feature
    offset and edge mask for export, and `keep` marks the target edges the
    refined graph kept; both stay out of the JSON document."""

    loss_model_trace: list = field(default_factory=list)
    loss_graph_trace: list = field(default_factory=list)
    accuracy_trace: list = field(default_factory=list)
    final_accuracy: float | None = None
    edges_deleted: int = 0
    seconds: float = 0.0
    deltas: AdaptationDeltas | None = None
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


def evaluate_accuracy(predictions, labels) -> float:
    """Fraction of exact matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ContractError(
            f"{predictions.shape[0]} predictions vs {labels.shape[0]} labels"
        )
    if predictions.size == 0:
        return 0.0
    return float(np.mean(predictions == labels))


def _check_finite(value: float, term: str) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"{term} became non-finite ({value})")
    return value


def adapt(model: GnnModel, g: TargetGraph, cfg: AdaptConfig):
    """Run the full adaptation and return

    (adapted model, refined target graph, argmax predictions, report).

    Deterministic for fixed (model, graph, config). With all loop counts or
    epochs at zero the predictions coincide bit-for-bit with the unadapted
    model on the unmodified graph.

    A labelled run with one model step per epoch makes epochs + 2 forward
    passes: one for the banks, one per epoch that serves both its accuracy
    and the next epoch's model step, and the final prediction. No forward
    tape is kept past the model steps into the graph steps.
    """
    if model.input_dim != g.feature_dim:
        raise ContractError(
            f"model expects {model.input_dim}-dim features, graph has {g.feature_dim}"
        )
    if g.num_classes and model.num_classes != g.num_classes:
        raise ContractError(
            f"model has {model.num_classes} classes, graph meta says {g.num_classes}"
        )
    started = time.perf_counter()
    model = model.copy()
    n, e = g.n, g.num_edges
    budget = cfg.budget_fraction * e
    deltas = AdaptationDeltas.zeros(n, g.feature_dim, e, budget)
    layout = AdjacencyLayout(n, g.edges)
    x_base = g.features
    weights = apply_structure_delta(g, deltas)
    adj = layout.normalized(weights)
    x_prime = x_base + deltas.delta_x

    recorded = record_forward(model, adj, x_prime)
    banks = init_banks(recorded_outputs(recorded), cfg.bank_momentum)
    opt = AdamState([p.shape for p in model.parameters()], cfg.model_lr)

    seed_seq = np.random.SeedSequence(cfg.seed)
    batch_ss, final_ss = seed_seq.spawn(2)
    batch_rng = np.random.default_rng(batch_ss)
    finalize_seed = int(final_ss.generate_state(1)[0])

    report = AdaptReport()
    quiet_epochs = 0
    prev = (None, None)
    for _ in range(cfg.epochs):
        neighbors = layout.neighbors(weights)

        loss_m = None
        for _ in range(cfg.model_steps):
            recorded = recorded or record_forward(model, adj, x_prime)
            banks, loss_m = _model_step(recorded, model, opt, neighbors, banks, cfg, batch_rng)
            recorded = None  # the step changed the model
        recorded = None  # no forward tape lives on into the graph steps

        loss_g = None
        model_params = model.parameters()
        for _ in range(cfg.feature_steps):
            tape = Tape()
            dx = tape.leaf(deltas.delta_x)
            params = [tape.constant(w) for w in model_params]
            x = apply_feature_delta(tape.constant(x_base), dx)
            z, p = forward_on_tape(params, adj, x)
            l_g = _graph_loss_on_tape(p, z, banks, cfg)
            loss_g = _check_finite(float(l_g.value[0, 0]), "graph adaptation loss")
            backward(tape, l_g)
            deltas = feature_gd_step(deltas, dx.grad, cfg.delta_lr)

        for _ in range(cfg.structure_steps):
            tape = Tape()
            da = tape.leaf(deltas.delta_a.reshape(-1, 1))
            adj_live = layout.normalized(apply_structure_delta(g, da))
            params = [tape.constant(w) for w in model_params]
            x = tape.constant(x_base + deltas.delta_x)
            z, p = forward_on_tape(params, adj_live, x)
            l_g = _graph_loss_on_tape(p, z, banks, cfg)
            loss_g = _check_finite(float(l_g.value[0, 0]), "graph adaptation loss")
            backward(tape, l_g)
            deltas = pgd_step_structure(deltas, da.grad.ravel(), cfg.delta_lr, budget)

        weights = apply_structure_delta(g, deltas)
        adj = layout.normalized(weights)
        x_prime = x_base + deltas.delta_x
        report.loss_model_trace.append(loss_m)
        report.loss_graph_trace.append(loss_g)
        if g.labels is not None:
            # the next epoch's first model step differentiates this pass
            recorded = record_forward(model, adj, x_prime)
            pred = np.argmax(recorded_outputs(recorded).predictions, axis=1)
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

    recorded = None  # the final prediction reads another adjacency
    keep = finalize_structure(g, deltas, finalize_seed)
    refined = TargetGraph(n, g.edges[keep], x_prime, g.labels, g.num_classes)
    fo = forward(model, layout.normalized(keep.astype(np.float64)), refined.features)
    predictions = np.argmax(fo.predictions, axis=1)
    report.edges_deleted = e - refined.num_edges
    if g.labels is not None:
        report.final_accuracy = evaluate_accuracy(predictions, g.labels)
    report.deltas = deltas
    report.keep = keep
    report.seconds = time.perf_counter() - started
    return model, refined, predictions, report


def _model_step(recorded, model, opt, neighbors, banks, cfg: AdaptConfig, batch_rng):
    """One Adam step on the model loss, differentiating the recorded forward
    pass of the current model; returns the refreshed banks and the loss."""
    tape, params, z, p = recorded
    pl = neighborhood_pseudo_labels(neighbors, banks)
    protos = compute_prototypes(pl, banks)
    w = confidence_weights(z, protos, pl)
    l_ce = loss_weighted_ce(p, pl, w)
    batch = None
    if cfg.batch_size:
        n = banks.n
        batch = batch_rng.choice(n, size=min(cfg.batch_size, n), replace=False)
    l_co = loss_instance_prototype(
        z,
        protos,
        pl,
        cfg.temperature,
        batch_indices=batch,
        include_positive_in_denominator=cfg.include_positive_in_denominator,
    )
    _check_finite(float(l_ce.value[0, 0]), "weighted cross-entropy (model loss)")
    _check_finite(float(l_co.value[0, 0]), "instance-prototype contrast (model loss)")
    l_m = loss_model(l_ce, l_co, cfg.contrast_mix)
    backward(tape, l_m)
    opt.step(model.parameters(), [t.grad for t in params])
    return momentum_update(banks, recorded_outputs(recorded)), float(l_m.value[0, 0])


def _trace_delta(before, after) -> float:
    if before is None and after is None:
        return 0.0
    if before is None or after is None:
        return float("inf")
    return abs(after - before)


def _graph_loss_on_tape(p, z, banks, cfg: AdaptConfig):
    conf = select_confident(p.value, cfg.confidence_threshold)
    positives = knn_positives(z.value, banks, cfg.k_neighbors)
    return _loss_graph(p, z, banks, conf, positives, cfg.positive_weight, cfg.negative_weight)


def export_embeddings(model: GnnModel, g: TargetGraph, deltas, path) -> None:
    """Write the node representations under the current deltas, one node per
    line, space-separated with round-trip precision."""
    if deltas is None:
        weights = None
        x = g.features
    else:
        weights = apply_structure_delta(g, deltas)
        x = g.features + deltas.delta_x
    fo = forward(model, normalize_adjacency(g, weights), x)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, fo.representations, fmt="%.17g")
