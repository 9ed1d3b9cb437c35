"""Graph representation, normalization, file I/O, splits and a shift generator.

Graphs are undirected, without self-loops, with node features and optional
integer class labels. The edges are one read-only (e, 2) int64 array of
(min, max) pairs; row i is edge i for every mask and weight vector. One
vectorized function, `edge_fault`, holds the edge rules for the constructor
and the file reader alike; it finds repeats by sorting one int64 key per
unordered pair, built from the endpoints, or from their ranks where the
endpoints span too far for the key to fit. One, `mask_fault`, holds the
[0,1] rule (NaN failing it) for every edge mask and edge weight vector. The
features are one read-only, finite float64 (n, d) array, checked where a
graph is built, so no NaN enters the program through a graph. Every sparse
matrix over a graph is its one `AdjacencyLayout` carrying values, and the
normalized adjacency has one formula and one entry point,
`AdjacencyLayout.normalized`, one tape op (`numerics.sym_norm_values`):
recorded on the tape of live edge weights, evaluated for constant ones,
which it checks (one per edge, each in [0,1]) for every caller.

The text format is three UTF-8 files sharing a prefix (`.meta`, `.edges`,
`.feat`) plus an optional `.labels`; floats are written with enough digits
to round-trip exactly. `read_table` parses every text table, these files
and an edge mask alike, with NumPy's C reader (`np.loadtxt`); text that is
not plain ASCII, and any table that reader refuses, takes the per-line
path, which names the faulty line. Each file is checked for format (field
count, number syntax, int64 range) before content.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError
from .numerics import SparseAdjacency, Tensor, evaluate, sym_norm_values

__all__ = [
    "TargetGraph",
    "SplitMask",
    "ShiftSpec",
    "AdjacencyLayout",
    "edge_fault",
    "mask_fault",
    "read_table",
    "load_graph",
    "save_graph",
    "split_nodes",
    "make_shift_pair",
]

FLOAT_FMT = "%.17g"  # round-trips float64 exactly


# The largest endpoint span whose pair keys fit int64: span * span - 1 <= 2**63 - 1.
_MAX_KEY_SPAN = 3_037_000_499


def _first_same_pair(pairs: np.ndarray) -> np.ndarray:
    """For each (u, v) row, the index of the first row joining the same two
    nodes in either orientation (its own index if none comes earlier).

    Rows are grouped by one int64 key per unordered pair, (lo - base) * span
    + (hi - base), exact for every int64 endpoint: where the endpoints span
    too much for that key, their ranks stand in for them."""
    u, v = pairs[:, 0], pairs[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if not lo.size:
        return np.zeros(0, dtype=np.intp)
    base = int(lo.min())
    span = int(hi.max()) - base + 1
    if span > _MAX_KEY_SPAN:
        values, ranks = np.unique(np.concatenate([lo, hi]), return_inverse=True)
        lo, hi, base, span = ranks[: lo.size], ranks[lo.size :], 0, values.size
    key = (lo - base) * span + (hi - base)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first[inverse]


def edge_fault(n: int, pairs: np.ndarray, repeat=None):
    """(index, reason) of the first invalid (u, v) row in input order, or
    None if every row is a valid undirected edge: a self-loop, an endpoint
    outside [0, n), or a repeat of an earlier row in either orientation.
    `repeat` marks the repeats when the caller has already grouped the rows."""
    u, v = pairs[:, 0], pairs[:, 1]
    loop = u == v
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if repeat is None:
        repeat = _first_same_pair(pairs) != np.arange(len(pairs))
    bad = np.flatnonzero(loop | outside | repeat)
    if not bad.size:
        return None
    i = int(bad[0])
    u, v = int(u[i]), int(v[i])
    if loop[i]:
        return i, f"self-loop ({u},{v}) not allowed"
    if outside[i]:
        return i, f"edge ({u},{v}) endpoint outside [0,{n})"
    return i, f"duplicate undirected edge {(min(u, v), max(u, v))}"


def mask_fault(values: np.ndarray):
    """(index, reason) of the first entry outside [0,1], NaN included, or
    None if every entry of an edge mask or edge weight vector lies in it."""
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if not bad.size:
        return None
    i = int(bad[0])
    return i, f"entry {values[i]} outside [0,1]"


class TargetGraph:
    """Undirected node-classification graph: the unit of adaptation. Any
    sequence of endpoint pairs is stored as (min, max) rows in its order."""

    __slots__ = ("n", "edges", "features", "labels", "num_classes")

    def __init__(self, n, edges, features, labels=None, num_classes=0):
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ContractError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        fault = edge_fault(n, pairs)
        if fault is not None:
            raise ContractError(fault[1])
        features = np.array(features, dtype=np.float64, order="C")
        if features.ndim != 2:
            raise ContractError(f"features must be an (n, d) array, got ndim={features.ndim}")
        if features.shape[0] != n:
            raise ContractError(f"features have {features.shape[0]} rows for {n} nodes")
        if not np.isfinite(features).all():
            raise ContractError("features must be finite")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ContractError(f"expected {n} labels, got {labels.shape}")
            if num_classes and labels.size and (labels.min() < 0 or labels.max() >= num_classes):
                raise ContractError("label outside [0, num_classes)")
        canon = np.empty(pairs.shape, dtype=np.int64)
        np.minimum(pairs[:, 0], pairs[:, 1], out=canon[:, 0])
        np.maximum(pairs[:, 0], pairs[:, 1], out=canon[:, 1])
        canon.setflags(write=False)
        features.setflags(write=False)
        self.n = int(n)
        self.edges = canon
        self.features = features
        self.labels = labels
        self.num_classes = int(num_classes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __repr__(self):
        return (
            f"TargetGraph(n={self.n}, e={self.num_edges}, d={self.feature_dim}, "
            f"C={self.num_classes}, labelled={self.labels is not None})"
        )


@dataclass(frozen=True)
class SplitMask:
    """Disjoint train/val/test node ids, roughly 80/10/10."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class ShiftSpec:
    """Knobs for a synthetic two-domain pair with a controllable shift.

    Both domains share the label space and feature dimension. The source is a
    stochastic block model with per-class Gaussian features; the target
    re-draws it, then moves each class mean by `target_mean_shift` along a
    random direction and rewires an `edge_noise` fraction of edges.
    """

    nodes_per_class: int = 100
    num_classes: int = 3
    intra_p: float = 0.08
    inter_p: float = 0.002
    feature_dim: int = 16
    class_mean_separation: float = 2.0
    target_mean_shift: float = 1.0
    edge_noise: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.intra_p <= 1.0 and 0.0 <= self.inter_p <= 1.0):
            raise ContractError("edge probabilities must lie in [0,1]")
        if not (0.0 <= self.edge_noise < 1.0):
            raise ContractError("edge_noise must lie in [0,1)")
        if self.nodes_per_class < 1 or self.num_classes < 2 or self.feature_dim < 1:
            raise ContractError("degenerate shift spec")
        if not (np.isfinite(self.class_mean_separation) and np.isfinite(self.target_mean_shift)):
            raise ContractError("class_mean_separation and target_mean_shift must be finite")
        if self.seed < 0:
            raise ContractError(f"seed must be nonnegative, got {self.seed}")


class AdjacencyLayout:
    """The sparse structure of A+I over a fixed edge array (a
    `SparseAdjacency`, built once per graph), and the two matrices every
    caller puts on it: the normalized adjacency and the 0/1 neighbour
    matrix. Each gives the structure one value per edge and one per node,
    so both are exactly symmetric. A graph with some edges deleted is this
    layout with weight 0 on them.
    """

    __slots__ = ("n", "edge_u", "edge_v", "_structure")

    def __init__(self, n: int, edges):
        self.n = n
        self.edge_u = edges[:, 0]
        self.edge_v = edges[:, 1]
        self._structure = SparseAdjacency(n, edges)

    def normalized(self, edge_weights) -> SparseAdjacency:
        """The normalized adjacency under per-edge weights: an (e,) array of
        constants, or an (e x 1) Tensor whose tape then records the entries
        as a live function of the weights.

        Entry (i,j) is w_ij / sqrt(d_i * d_j) where d is the weighted degree
        plus one for the implicit unit self-loop. One value per undirected
        edge feeds both mirror slots, so the matrix stays exactly symmetric;
        weight 0 behaves exactly like deleting the edge. Constant weights
        are checked here, for every caller: one per edge, each in [0,1]
        (`mask_fault`), else ContractError.
        """
        if isinstance(edge_weights, Tensor):
            return self._structure.with_values(self._normalized_values(edge_weights))
        w = np.asarray(edge_weights, dtype=np.float64).ravel()
        if w.shape != self.edge_u.shape:
            raise ContractError(f"expected {self.edge_u.size} edge weights, got {w.size}")
        fault = mask_fault(w)
        if fault is not None:
            raise ContractError(f"edge weight {fault[1]}")
        return self._structure.with_values(evaluate(self._normalized_values, w.reshape(-1, 1)))

    def _normalized_values(self, w: Tensor) -> Tensor:
        """The ((e + n) x 1) entries of the normalized adjacency, one per edge
        and then one per node: one recorded op (`numerics.sym_norm_values`)."""
        return sym_norm_values(w, self.edge_u, self.edge_v, self.n)

    def neighbors(self, edge_weights: np.ndarray) -> SparseAdjacency:
        """0/1 neighbour matrix: 1 on both slots of every edge with positive
        weight, 0 on deleted edges and on the self-loops."""
        live = np.concatenate([edge_weights > 0.0, np.zeros(self.n, dtype=bool)])
        return self._structure.with_values(live.astype(np.float64))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def read_text(path) -> str:
    """The contents of a UTF-8 text file; ParseError naming it if it does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# The ASCII separators of `str.split` and `str.splitlines` other than space,
# tab and the line ends. NumPy's C reader ends no line at them (it splits
# fields there instead), so text holding any takes the per-line path.
_SPLIT_ONLY_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _c_read_table(text: str, width: int, dtype):
    """`read_table`'s result for `text`, parsed by NumPy's C reader
    (`np.loadtxt`), or None where the per-line path must decide. `text` is
    `read_text`'s, read with universal newlines, so each line ends in a
    line feed alone and no carriage return is left in it.

    It declines text that is not ASCII or holds a separator the two readers
    split differently, and any table the C reader refuses or warns about
    or that is not `width` fields wide. On the text it accepts, every token
    the C reader converts is one Python's `int` or `float` converts to the
    same bits; Python also accepts some tokens the C reader refuses
    (`1_0`), which is why refusal means fallback and not a fault."""
    if not text.isascii() or any(c in text for c in _SPLIT_ONLY_SEPARATORS):
        return None
    if not text or text.isspace():  # loadtxt warns that there is no data
        return np.empty((0, width), dtype), np.empty(0, np.intp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # as ASCII bytes: a StringIO would copy the text at 4 bytes a character
            values = np.loadtxt(
                io.BytesIO(text.encode("ascii")), dtype=dtype, comments=None, ndmin=2
            )
        except (ValueError, Warning):
            return None
    if values.shape[1] != width:
        return None
    rows = len(values)
    if rows == text.count("\n") + (not text.endswith("\n")):
        return values, np.arange(1, rows + 1)
    # loadtxt skips blank and whitespace-only lines, as the per-line path does
    return values, np.flatnonzero([bool(line.strip()) for line in text.split("\n")]) + 1


def read_table(path, width: int, dtype):
    """A whitespace-separated text table as a (rows, width) array of `dtype`
    (np.int64 or np.float64), and the 1-based line number of each row;
    blank lines are skipped.

    A plain ASCII table is parsed by NumPy's C reader (`_c_read_table`).
    Any other text, and any table the C reader declines, takes the per-line
    path: all rows are converted in one NumPy call, which applies Python's
    `int` or `float` to each token, and only if that fails are the rows
    converted one by one, to name in a ParseError the first line with the
    wrong number of fields or a token that is not a `dtype` number (an
    integer beyond int64 included)."""
    text = read_text(path)
    parsed = _c_read_table(text, width, dtype)
    if parsed is not None:
        return parsed
    fields = [line.split() for line in text.splitlines()]
    rows = [row for row in fields if row]
    line_numbers = np.flatnonzero(list(map(bool, fields))) + 1
    try:
        return np.array(rows, dtype=dtype).reshape(len(rows), width), line_numbers
    except (ValueError, OverflowError):
        for line, row in zip(line_numbers, rows):
            if len(row) != width:
                message = f"expected {width} fields, got {len(row)}"
                raise ParseError(f"{path}:{line}: {message}") from None
            try:
                np.array(row, dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}:{line}: {exc}") from None
        raise


def load_graph(prefix) -> TargetGraph:
    """Read `<prefix>.meta/.edges/.feat` (+ optional `.labels`).

    Each file is checked in two passes: its format first (field count,
    number syntax, int64 range), then its content (edge rules, finite
    features). A ParseError names the first line with a format fault, or,
    in a well-formed file, the first line with a content fault. A pair that
    repeats an earlier one the other way round is dropped with a warning.
    """
    prefix = Path(prefix)
    meta_path = prefix.with_suffix(prefix.suffix + ".meta")
    meta, _ = read_table(meta_path, 3, np.int64)
    if len(meta) != 1:
        raise ParseError(f"{meta_path}:1: meta must be a single 'n d C' line")
    n, d, num_classes = (int(x) for x in meta[0])
    if n < 1 or d < 1 or num_classes < 1:
        raise ContractError(f"{meta_path}: invalid sizes n={n} d={d} C={num_classes}")

    edges_path = prefix.with_suffix(prefix.suffix + ".edges")
    pairs, lines = read_table(edges_path, 2, np.int64)
    first = _first_same_pair(pairs)
    mirrored = pairs[first, 0] != pairs[:, 0]
    edges, edge_lines = pairs[~mirrored], lines[~mirrored]
    # a kept row repeats exactly when its first same pair, always kept, is earlier
    fault = edge_fault(n, edges, (first != np.arange(len(pairs)))[~mirrored])
    stop = np.inf if fault is None else edge_lines[fault[0]]
    warned = mirrored & (lines < stop)
    for line, (u, v) in zip(lines[warned], pairs[warned]):
        warnings.warn(f"{edges_path}:{line}: directed pair {u} {v} symmetrized", stacklevel=2)
    if fault is not None:
        raise ParseError(f"{edges_path}:{stop}: {fault[1]}")

    feat_path = prefix.with_suffix(prefix.suffix + ".feat")
    values, feat_lines = read_table(feat_path, d, np.float64)
    if len(values) != n:
        raise ContractError(f"{feat_path}: {len(values)} feature rows for n={n}")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ParseError(f"{feat_path}:{feat_lines[np.argmin(finite)]}: non-finite feature value")

    labels = None
    labels_path = prefix.with_suffix(prefix.suffix + ".labels")
    if labels_path.exists():
        labels = read_table(labels_path, 1, np.int64)[0].ravel()
        if len(labels) != n:
            raise ContractError(f"{labels_path}: {len(labels)} labels for n={n}")

    return TargetGraph(n, edges, values, labels, num_classes)


def save_graph(g: TargetGraph, prefix) -> None:
    """Write the three-file text format (+ `.labels` when present)."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(prefix.with_suffix(prefix.suffix + ".meta"), "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.feature_dim} {g.num_classes}\n")
    np.savetxt(prefix.with_suffix(prefix.suffix + ".edges"), g.edges, fmt="%d")
    np.savetxt(prefix.with_suffix(prefix.suffix + ".feat"), g.features, fmt=FLOAT_FMT)
    if g.labels is not None:
        np.savetxt(prefix.with_suffix(prefix.suffix + ".labels"), g.labels, fmt="%d")


# ---------------------------------------------------------------------------
# Splits and the synthetic shift generator
# ---------------------------------------------------------------------------


def split_nodes(g: TargetGraph, seed: int) -> SplitMask:
    """Random 80/10/10 node split, deterministic per seed."""
    if g.labels is None:
        raise ContractError("split_nodes needs a labelled graph")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n)
    n_train = int(round(0.8 * g.n))
    n_val = int(round(0.1 * g.n))
    train = np.sort(perm[:n_train])
    val = np.sort(perm[n_train : n_train + n_val])
    test = np.sort(perm[n_train + n_val :])
    return SplitMask(train=train, val=val, test=test)


def _sample_block_edges(rng, members_a, members_b, p, same_block):
    """Bernoulli edges between two node groups (upper triangle when equal)."""
    if p <= 0.0:
        return []
    a = np.asarray(members_a)
    b = np.asarray(members_b)
    draw = rng.random((a.size, b.size))
    if same_block:
        ii, jj = np.triu_indices(a.size, k=1)
        hit = draw[ii, jj] < p
        return list(zip(a[ii[hit]], b[jj[hit]]))
    ii, jj = np.nonzero(draw < p)
    return list(zip(a[ii], b[jj]))


def _sample_sbm(rng, spec: ShiftSpec, means: np.ndarray):
    m, c = spec.nodes_per_class, spec.num_classes
    n = m * c
    labels = np.repeat(np.arange(c, dtype=np.int64), m)
    members = [np.arange(k * m, (k + 1) * m) for k in range(c)]
    edges = []
    for a in range(c):
        for b in range(a, c):
            p = spec.intra_p if a == b else spec.inter_p
            edges.extend(_sample_block_edges(rng, members[a], members[b], p, a == b))
    feats = rng.standard_normal((n, spec.feature_dim)) + means[labels]
    return n, sorted((int(u), int(v)) for u, v in edges), feats, labels


def _rewire(rng, n: int, edges: list, fraction: float) -> list:
    """Replace a fraction of edges with fresh uniform non-edges."""
    e = len(edges)
    k = int(np.floor(fraction * e))
    if k == 0:
        return edges
    victims = rng.choice(e, size=k, replace=False)
    victim_set = set(int(i) for i in victims)
    kept = [edge for i, edge in enumerate(edges) if i not in victim_set]
    current = set(kept)
    for _ in range(k):
        while True:
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key not in current:
                current.add(key)
                kept.append(key)
                break
    return sorted(kept)


def _unit_directions(rng, count: int, dim: int) -> np.ndarray:
    d = rng.standard_normal((count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def make_shift_pair(spec: ShiftSpec):
    """Source/target graph pair sharing label space, differing by the shift.

    The target translates every class mean by `target_mean_shift` along one
    random direction (covariate shift that preserves class geometry) and
    rewires an `edge_noise` fraction of its freshly drawn edges. Target
    labels are attached for evaluation only; the adaptation pipeline never
    reads them.
    """
    rng = np.random.default_rng(spec.seed)
    # unit directions keep |means| <= separation; only the shifted sum can overflow
    means = spec.class_mean_separation * _unit_directions(
        rng, spec.num_classes, spec.feature_dim
    )
    n, src_edges, src_feats, labels = _sample_sbm(rng, spec, means)

    with np.errstate(over="ignore"):
        shifted = means + spec.target_mean_shift * _unit_directions(rng, 1, spec.feature_dim)
    if not np.isfinite(shifted).all():
        raise ContractError(
            "shifted class means overflow float64: reduce class_mean_separation "
            "or target_mean_shift"
        )
    _, tgt_edges, tgt_feats, _ = _sample_sbm(rng, spec, shifted)
    tgt_edges = _rewire(rng, n, tgt_edges, spec.edge_noise)

    source = TargetGraph(n, src_edges, src_feats, labels, spec.num_classes)
    target = TargetGraph(n, tgt_edges, tgt_feats, labels.copy(), spec.num_classes)
    return source, target
