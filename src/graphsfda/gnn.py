"""Fixed graph-convolutional backbone: L propagation layers plus a linear
softmax classifier, with supervised pretraining on a labelled source graph.

The forward pass applies ReLU after every propagation layer, so the embedding
handed to cosine-similarity consumers is the nonnegative output of the last
layer. Propagation is one sparse product per layer, at the narrower of the
layer's input and output widths (`spmm_matmul` when the layer widens its
input, else `spmm` after the dense product), whether the adjacency's values
are frozen or a live function of the edge mask. The recorded pass takes
tensors only: the parameters, the features and the adjacency's values are
each a live leaf or a tape constant, so one pass serves model adaptation
(live parameters), feature adaptation (a live offset) and structure
adaptation (a live edge mask). `record_forward` records the pass of one
model state with its parameters as leaves; `forward` returns its values as
two arrays, (representations, predictions), and raises NumericalError when
either has a non-finite entry (`finite_pass`, which `adapt` also runs on a
pass it reuses), so `eval`, `export-embeddings` and `adapt` fail on an
overflowing model instead of scoring NaN. Pretraining normalizes the
source graph once off its `AdjacencyLayout`, reads a state's validation
accuracy off the recorded pass and trains on it, and the adaptation loop
does the same with its banks and model steps. Everything runs full-batch; there is no dropout, keeping recorded
computations exactly differentiable.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, NumericalError, ShapeError
from .graph_store import AdjacencyLayout, SplitMask, TargetGraph
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
    spmm_matmul,
)

__all__ = [
    "GnnModel",
    "init_model",
    "forward",
    "forward_on_tape",
    "finite_pass",
    "record_forward",
    "predict",
    "evaluate_accuracy",
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


def init_model(d: int, h: int, num_classes: int, num_layers: int, seed: int) -> GnnModel:
    """Glorot-uniform weights, zero bias, deterministic per seed.

    Raises MemoryError before the first draw when the parameters alone
    would take more than the machine's physical memory."""
    if min(d, h, num_classes, num_layers) < 1:
        raise ContractError(
            f"all dimensions must be positive: d={d} h={h} C={num_classes} L={num_layers}"
        )
    count = d * h + (num_layers - 1) * h * h + (h + 1) * num_classes
    memory = _physical_memory()
    if memory is not None and 8 * count > memory:
        raise MemoryError(
            f"its {count} parameters need {8 * count / 2**30:.4g} GiB, "
            f"more than the machine's {memory / 2**30:.4g} GiB of memory"
        )
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, size=(fan_in, fan_out))

    layer_dims = [(d, h)] + [(h, h)] * (num_layers - 1)
    layers = [glorot(a, b) for a, b in layer_dims]
    return GnnModel(layers, glorot(h, num_classes), np.zeros((1, num_classes)))


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def forward_on_tape(params: list, adj_hat: SparseAdjacency, x):
    """Recorded forward pass on the tape of its operands; `params`, the
    values of `adj_hat` and `x` are each live tensors or tape constants.

    A live edge mask enters as an adjacency whose values are a Tensor (see
    `AdjacencyLayout.normalized`); the sparse product differentiates into
    them. A layer propagates the narrower of its input and its output: a
    layer that widens its input is `spmm_matmul`, (A h) w, and any other
    `spmm(adj_hat, matmul(h, w))`."""
    *layer_ws, cls_w, cls_b = params
    h = x
    for w in layer_ws:
        if h.shape[1] < w.shape[1]:
            h = relu(spmm_matmul(adj_hat, h, w))
        else:
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


def forward(model: GnnModel, adj_hat: SparseAdjacency, x):
    """(representations, predictions) of the recorded forward pass, as
    arrays, after a shape check. A non-finite entry in either, as when
    finite parameters overflow, raises NumericalError naming its node."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape[1] != model.input_dim:
        raise ShapeError(f"features have {xv.shape[1]} dims, model expects {model.input_dim}")
    if adj_hat.n != xv.shape[0]:
        raise ShapeError(f"adjacency is {adj_hat.n}x{adj_hat.n}, features have {xv.shape[0]} rows")
    _, _, z, p = record_forward(model, adj_hat, xv)
    return finite_pass(z.value, p.value)


def finite_pass(z: np.ndarray, p: np.ndarray):
    """(z, p), the representations and predictions of a forward pass, once
    every entry is checked finite; else NumericalError naming the node."""
    for name, values in (("representation", z), ("prediction", p)):
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            node = int(np.argmin(finite))
            raise NumericalError(f"forward pass gives a non-finite {name} at node {node}")
    return z, p


def predict(model: GnnModel, adj_hat: SparseAdjacency, x) -> np.ndarray:
    """Argmax class ids."""
    return np.argmax(forward(model, adj_hat, x)[1], axis=1)


class AdamState:
    """First-order adaptive moment optimizer over a list of arrays, with
    moment decays 0.9 and 0.999 and 1e-8 added to the root of the second
    moment."""

    def __init__(self, shapes, lr, weight_decay=0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list, grads: list) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        for i, (p, g) in enumerate(zip(params, grads)):
            if self.weight_decay:
                g = g + self.weight_decay * p
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def evaluate_accuracy(predictions, labels) -> float:
    """Fraction of exact matches; zero when there is nothing to match."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ContractError(
            f"{predictions.shape[0]} predictions vs {labels.shape[0]} labels"
        )
    if predictions.size == 0:
        return 0.0
    return float(np.mean(predictions == labels))


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
    that checkpoint (the test number is a sanity check only) and its
    `kept_epoch`, the number of training epochs behind it. Each model state
    is evaluated once: its recorded forward pass gives its validation
    accuracy and the next epoch differentiates it, so `epochs` epochs make
    epochs + 1 passes. The initial state is a candidate only when no epoch
    runs. A non-finite training loss raises NumericalError naming its epoch,
    before the step that would follow it. A negative `epochs`, and an `lr`
    or `weight_decay` that is negative or not finite, raise ContractError.
    """
    if source.labels is None:
        raise ContractError("pretraining needs source labels")
    if epochs < 0:
        raise ContractError(f"epochs must be nonnegative, got {epochs}")
    for name, value in (("lr", lr), ("weight_decay", weight_decay)):
        if not 0 <= value < np.inf:  # NaN fails too
            raise ContractError(f"{name} must be finite and nonnegative, got {value}")
    model = model.copy()
    adj = AdjacencyLayout(source.n, source.edges).normalized(np.ones(source.num_edges))
    labels = source.labels
    opt = AdamState([p.shape for p in model.parameters()], lr, weight_decay=weight_decay)

    best_val = -1.0
    history = []
    for epoch in range(epochs + 1):
        tape, params, _, p_out = record_forward(model, adj, source.features)
        pred = np.argmax(p_out.value, axis=1)
        val_acc = evaluate_accuracy(pred[split.val], labels[split.val])
        if (epoch or not epochs) and val_acc > best_val:
            best, best_val, best_pred, kept_epoch = model.copy(), val_acc, pred, epoch
        if epoch < epochs:
            train_p = gather_rows(p_out, split.train)
            picked = select_cols(train_p, labels[split.train])
            loss = neg(mean_all(log_clamped(picked)))
            history.append(float(loss.value[0, 0]))
            if not np.isfinite(history[-1]):
                raise NumericalError(
                    f"training loss became non-finite ({history[-1]}) "
                    f"at epoch {epoch + 1} of {epochs}"
                )
            backward(tape, loss)
            opt.step(model.parameters(), [t.grad for t in params])
        tape = None  # the next pass is recorded without this one alive

    return best, {
        "val_acc": best_val,
        "test_acc": evaluate_accuracy(best_pred[split.test], labels[split.test]),
        "train_loss": history,
        "kept_epoch": kept_epoch,
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
    if min(d, h, num_classes) < 1:
        raise ContractError(
            f"{path}: checkpoint declares a zero width (d={d}, h={h}, C={num_classes})"
        )
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
