"""Fixed graph-convolutional backbone: L propagation layers plus a linear
softmax classifier, with supervised pretraining on a labelled source graph.

The forward pass applies ReLU after every propagation layer, so the embedding
handed to cosine-similarity consumers is the nonnegative output of the last
layer. Propagation is one `spmm` per layer, whether the adjacency's values
are frozen or a live function of the edge mask. The recorded pass takes
tensors only: the parameters, the features and the adjacency's values are
each a live leaf or a tape constant, so one pass serves model adaptation
(live parameters), feature adaptation (a live offset) and structure
adaptation (a live edge mask). `record_forward` records the pass of one
model state with its parameters as leaves; `forward` returns its values,
pretraining reads a state's validation accuracy off it and trains on it,
and the adaptation loop does the same with its banks and model steps.
Everything runs full-batch; there is no dropout, keeping recorded
computations exactly differentiable.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, ShapeError
from .graph_store import SplitMask, TargetGraph, normalize_adjacency
from .numerics import (
    SparseAdjacency,
    Tape,
    add_bias,
    backward,
    gather_rows,
    log_clamped,
    matmul,
    mean_all,
    neg,
    relu,
    row_softmax,
    select_cols,
    spmm,
)

__all__ = [
    "GnnModel",
    "ForwardOutput",
    "init_model",
    "forward",
    "forward_on_tape",
    "record_forward",
    "recorded_outputs",
    "predict",
    "pretrain_source",
    "save_checkpoint",
    "load_checkpoint",
    "AdamState",
]

CHECKPOINT_MAGIC = b"GCTA"
CHECKPOINT_VERSION = 1


class GnnModel:
    """Parameters of the feature extractor and the linear classifier."""

    __slots__ = ("layer_weights", "classifier_weight", "classifier_bias")

    def __init__(self, layer_weights, classifier_weight, classifier_bias):
        if not layer_weights:
            raise ContractError("need at least one propagation layer")
        dims = [w.shape for w in layer_weights]
        for (_, out_prev), (in_next, _) in zip(dims, dims[1:]):
            if out_prev != in_next:
                raise ShapeError(f"layer shapes do not chain: {dims}")
        h = dims[-1][1]
        if classifier_weight.shape[0] != h:
            raise ShapeError(
                f"classifier expects {classifier_weight.shape[0]} dims, extractor gives {h}"
            )
        if classifier_bias.shape != (1, classifier_weight.shape[1]):
            raise ShapeError("classifier bias must be 1 x C")
        arrays = layer_weights + [classifier_weight, classifier_bias]
        if not all(np.isfinite(a).all() for a in arrays):
            raise ContractError("model parameters must be finite")
        self.layer_weights = [np.array(w, dtype=np.float64) for w in layer_weights]
        self.classifier_weight = np.array(classifier_weight, dtype=np.float64)
        self.classifier_bias = np.array(classifier_bias, dtype=np.float64)

    @property
    def num_layers(self) -> int:
        return len(self.layer_weights)

    @property
    def input_dim(self) -> int:
        return self.layer_weights[0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.layer_weights[-1].shape[1]

    @property
    def num_classes(self) -> int:
        return self.classifier_weight.shape[1]

    def parameters(self) -> list:
        return self.layer_weights + [self.classifier_weight, self.classifier_bias]

    def copy(self) -> "GnnModel":
        return GnnModel(
            [w.copy() for w in self.layer_weights],
            self.classifier_weight.copy(),
            self.classifier_bias.copy(),
        )

    def __repr__(self):
        return (
            f"GnnModel(d={self.input_dim}, h={self.hidden_dim}, "
            f"C={self.num_classes}, L={self.num_layers})"
        )


class ForwardOutput:
    """Node representations and row-stochastic class predictions, as arrays."""

    __slots__ = ("representations", "predictions")

    def __init__(self, representations: np.ndarray, predictions: np.ndarray):
        self.representations = representations
        self.predictions = predictions


def init_model(d: int, h: int, num_classes: int, num_layers: int, seed: int) -> GnnModel:
    """Glorot-uniform weights, zero bias, deterministic per seed."""
    if min(d, h, num_classes, num_layers) < 1:
        raise ContractError(
            f"all dimensions must be positive: d={d} h={h} C={num_classes} L={num_layers}"
        )
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, size=(fan_in, fan_out))

    layer_dims = [(d, h)] + [(h, h)] * (num_layers - 1)
    layers = [glorot(a, b) for a, b in layer_dims]
    return GnnModel(layers, glorot(h, num_classes), np.zeros((1, num_classes)))


def forward_on_tape(params: list, adj_hat: SparseAdjacency, x):
    """Recorded forward pass on the tape of its operands; `params`, the
    values of `adj_hat` and `x` are each live tensors or tape constants.

    A live edge mask enters as an adjacency whose values are a Tensor (see
    `AdjacencyLayout.normalized`); `spmm` differentiates into them."""
    *layer_ws, cls_w, cls_b = params
    h = x
    for w in layer_ws:
        h = relu(spmm(adj_hat, matmul(h, w)))
    logits = add_bias(matmul(h, cls_w), cls_b)
    return h, row_softmax(logits)


def record_forward(model: GnnModel, adj_hat: SparseAdjacency, x):
    """(tape, parameter leaves, representations, predictions) of one forward
    pass recorded with the parameters as leaves: its values serve every
    reader of the model state, and one training step differentiates it."""
    tape = Tape()
    params = [tape.leaf(p) for p in model.parameters()]
    z, p = forward_on_tape(params, adj_hat, tape.constant(x))
    return tape, params, z, p


def recorded_outputs(recorded) -> ForwardOutput:
    """The values of a recorded forward pass, as arrays."""
    _, _, z, p = recorded
    return ForwardOutput(z.value, p.value)


def forward(model: GnnModel, adj_hat: SparseAdjacency, x) -> ForwardOutput:
    """The values of the recorded forward pass, after a shape check."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape[1] != model.input_dim:
        raise ShapeError(f"features have {xv.shape[1]} dims, model expects {model.input_dim}")
    if adj_hat.n != xv.shape[0]:
        raise ShapeError(f"adjacency is {adj_hat.n}x{adj_hat.n}, features have {xv.shape[0]} rows")
    return recorded_outputs(record_forward(model, adj_hat, xv))


def predict(model: GnnModel, adj_hat: SparseAdjacency, x) -> np.ndarray:
    """Argmax class ids."""
    return np.argmax(forward(model, adj_hat, x).predictions, axis=1)


class AdamState:
    """First-order adaptive moment optimizer over a list of arrays."""

    def __init__(self, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list, grads: list) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (p, g) in enumerate(zip(params, grads)):
            if self.weight_decay:
                g = g + self.weight_decay * p
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _accuracy(pred: np.ndarray, labels: np.ndarray, ids: np.ndarray) -> float:
    if ids.size == 0:
        return 0.0
    return float(np.mean(pred[ids] == labels[ids]))


def pretrain_source(
    model: GnnModel,
    source: TargetGraph,
    split: SplitMask,
    epochs: int = 200,
    lr: float = 1e-3,
    weight_decay: float = 5e-4,
):
    """Supervised training on the source train split.

    Full-batch Adam on mean cross-entropy over train nodes. Keeps the
    best-validation parameters and reports validation and test accuracy for
    that checkpoint; the test number is a sanity check only. Each model
    state is evaluated once: its recorded forward pass gives its validation
    accuracy and the next epoch differentiates it, so `epochs` epochs make
    epochs + 1 passes. The initial state is a candidate only when no epoch
    runs.
    """
    if source.labels is None:
        raise ContractError("pretraining needs source labels")
    model = model.copy()
    adj = normalize_adjacency(source)
    labels = source.labels
    opt = AdamState([p.shape for p in model.parameters()], lr, weight_decay=weight_decay)

    best_val = -1.0
    history = []
    for epoch in range(epochs + 1):
        tape, params, _, p_out = record_forward(model, adj, source.features)
        pred = np.argmax(p_out.value, axis=1)
        val_acc = _accuracy(pred, labels, split.val)
        if (epoch or not epochs) and val_acc > best_val:
            best, best_val, best_pred = model.copy(), val_acc, pred
        if epoch < epochs:
            train_p = gather_rows(p_out, split.train)
            picked = select_cols(train_p, labels[split.train])
            loss = neg(mean_all(log_clamped(picked)))
            backward(tape, loss)
            history.append(float(loss.value[0, 0]))
            opt.step(model.parameters(), [t.grad for t in params])
        tape = None  # the next pass is recorded without this one alive

    return best, {
        "val_acc": best_val,
        "test_acc": _accuracy(best_pred, labels, split.test),
        "train_loss": history,
    }


# ---------------------------------------------------------------------------
# Checkpoint format: magic, version, L d h C, then raw float64 blocks
# ---------------------------------------------------------------------------


def save_checkpoint(model: GnnModel, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                "<5I",
                CHECKPOINT_VERSION,
                model.num_layers,
                model.input_dim,
                model.hidden_dim,
                model.num_classes,
            )
        )
        for arr in model.parameters():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> GnnModel:
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ContractError(f"{path}: not a model checkpoint")
    offset = 4 + 20
    if len(blob) < offset:
        raise ContractError(f"{path}: truncated checkpoint header")
    version, L, d, h, num_classes = struct.unpack_from("<5I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"{path}: unsupported checkpoint version {version}")
    if L < 1:
        raise ContractError(f"{path}: checkpoint declares {L} layers")
    expected = offset + 8 * (d * h + (L - 1) * h * h + h * num_classes + num_classes)
    if len(blob) < expected:
        raise ContractError(
            f"{path}: truncated checkpoint ({len(blob)} of {expected} bytes)"
        )
    if len(blob) > expected:
        raise ContractError(f"{path}: trailing bytes in checkpoint")
    shapes = [(d, h)] + [(h, h)] * (L - 1) + [(h, num_classes), (1, num_classes)]
    arrays = []
    for shape in shapes:
        count = shape[0] * shape[1]
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        arrays.append(arr.astype(np.float64))
        offset += count * 8
    return GnnModel(arrays[:-2], arrays[-2], arrays[-1])
