"""Graph representation, normalization, file I/O, splits and a shift generator.

Graphs are undirected, without self-loops, with float64 node features and
optional integer class labels. The edges are one read-only (e, 2) int64 array
of (min, max) pairs; row i is edge i for every mask and weight vector. Every
sparse matrix over a graph is its one `AdjacencyLayout` carrying values. The
text format is three UTF-8 files sharing a prefix (`.meta`, `.edges`, `.feat`)
plus an optional `.labels`; floats are written with enough digits to
round-trip exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError
from .numerics import DenseMatrix, SparseAdjacency

__all__ = [
    "TargetGraph",
    "SplitMask",
    "ShiftSpec",
    "AdjacencyLayout",
    "normalize_adjacency",
    "load_graph",
    "save_graph",
    "split_nodes",
    "make_shift_pair",
]

FLOAT_FMT = "%.17g"  # round-trips float64 exactly


class TargetGraph:
    """Undirected node-classification graph: the unit of adaptation. Any
    sequence of endpoint pairs is stored as (min, max) rows in its order."""

    __slots__ = ("n", "edges", "features", "labels", "num_classes")

    def __init__(self, n, edges, features: DenseMatrix, labels=None, num_classes=0):
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ContractError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        canon = np.sort(pairs, axis=1)
        # the first bad pair in input order decides: loop, range, then repeat
        loop = pairs[:, 0] == pairs[:, 1]
        outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
        key = canon[:, 0] * n + canon[:, 1]  # one id per in-range pair
        order = np.argsort(key, kind="stable")  # a repeat sorts after its first
        repeat = np.zeros(len(pairs), dtype=bool)
        repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
        bad = np.flatnonzero(loop | outside | repeat)
        if bad.size:
            i = bad[0]
            u, v = (int(a) for a in pairs[i])
            if loop[i]:
                raise ContractError(f"self-loop ({u},{v}) not allowed")
            if outside[i]:
                raise ContractError(f"edge ({u},{v}) endpoint outside [0,{n})")
            raise ContractError(f"duplicate undirected edge {(min(u, v), max(u, v))}")
        if features.rows != n:
            raise ContractError(f"features have {features.rows} rows for {n} nodes")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ContractError(f"expected {n} labels, got {labels.shape}")
            if num_classes and labels.size and (labels.min() < 0 or labels.max() >= num_classes):
                raise ContractError("label outside [0, num_classes)")
        canon.setflags(write=False)
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
        return self.features.cols

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


class AdjacencyLayout:
    """The CSR index of A+I for a fixed edge array, built once per graph.

    `entry_source[k]` says which value fills CSR slot k: index j < e refers to
    undirected edge j (used for both of its mirror slots), index e+i refers to
    the self-loop of node i. Sharing one value per edge keeps every matrix on
    the layout exactly symmetric. `adjacency` puts values on the checked
    structure without checking it again.
    """

    __slots__ = ("n", "edge_u", "edge_v", "entry_source", "_structure")

    def __init__(self, n: int, edges):
        e = len(edges)
        u, v = edges[:, 0], edges[:, 1]
        nodes = np.arange(n, dtype=np.int64)
        rows = np.concatenate([u, v, nodes])
        cols = np.concatenate([v, u, nodes])
        src = np.concatenate([np.arange(e), np.arange(e), e + nodes])
        order = np.lexsort((cols, rows))
        offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        self.n = n
        self.edge_u = u
        self.edge_v = v
        self.entry_source = src[order]
        self._structure = SparseAdjacency(n, offsets, cols[order], np.zeros(order.size))

    def adjacency(self, values) -> SparseAdjacency:
        """A+I's structure carrying `values`, one per CSR slot: a constant
        array or an (nnz x 1) Tensor."""
        return self._structure.with_values(values)

    def normalized(self, edge_weights: np.ndarray) -> SparseAdjacency:
        """The normalized adjacency under constant per-edge weights.

        Entry (i,j) is w_ij / sqrt(d_i * d_j) where d is the weighted degree
        plus one for the implicit unit self-loop.
        """
        deg = np.ones(self.n)
        np.add.at(deg, self.edge_u, edge_weights)
        np.add.at(deg, self.edge_v, edge_weights)
        s = np.power(deg, -0.5)
        per_edge = edge_weights * s[self.edge_u] * s[self.edge_v]
        per_diag = s * s
        return self.adjacency(np.concatenate([per_edge, per_diag])[self.entry_source])

    def neighbors(self, edge_weights: np.ndarray) -> SparseAdjacency:
        """0/1 neighbour matrix: 1 on both slots of every edge with positive
        weight, 0 on deleted edges and on the self-loops."""
        live = np.concatenate([edge_weights > 0.0, np.zeros(self.n, dtype=bool)])
        return self.adjacency(live[self.entry_source].astype(np.float64))


def normalize_adjacency(g: TargetGraph, edge_weights=None) -> SparseAdjacency:
    """Symmetric degree-normalized adjacency with unit self-loops.

    Optional `edge_weights` (one per undirected edge, in [0,1]) scale each
    edge before normalization; weight 0 behaves exactly like deleting the
    edge.
    """
    e = g.num_edges
    if edge_weights is None:
        w = np.ones(e)
    else:
        w = np.asarray(edge_weights, dtype=np.float64).ravel()
        if w.shape != (e,):
            raise ContractError(f"expected {e} edge weights, got {w.shape}")
        if w.size and (w.min() < 0.0 or w.max() > 1.0):
            raise ContractError("edge weights must lie in [0,1]")
    return AdjacencyLayout(g.n, g.edges).normalized(w)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def read_text(path) -> str:
    """The contents of a UTF-8 text file; ParseError naming it if it does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_int_fields(line: str, count: int, path, lineno: int):
    parts = line.split()
    if len(parts) != count:
        raise ParseError(f"{path}:{lineno}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from None


def load_graph(prefix) -> TargetGraph:
    """Read `<prefix>.meta/.edges/.feat` (+ optional `.labels`)."""
    prefix = Path(prefix)
    meta_path = prefix.with_suffix(prefix.suffix + ".meta")
    lines = read_text(meta_path).strip().splitlines()
    if len(lines) != 1:
        raise ParseError(f"{meta_path}:1: meta must be a single 'n d C' line")
    n, d, num_classes = _parse_int_fields(lines[0], 3, meta_path, 1)
    if n < 0 or d < 1 or num_classes < 1:
        raise ContractError(f"{meta_path}: invalid sizes n={n} d={d} C={num_classes}")

    edges_path = prefix.with_suffix(prefix.suffix + ".edges")
    seen = {}
    edges = []
    for lineno, raw in enumerate(read_text(edges_path).splitlines(), 1):
        if not raw.strip():
            continue
        u, v = _parse_int_fields(raw, 2, edges_path, lineno)
        if u == v:
            raise ParseError(f"{edges_path}:{lineno}: self-loop {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"{edges_path}:{lineno}: endpoint outside [0,{n})")
        key = (min(u, v), max(u, v))
        if key in seen:
            if seen[key] == (u, v):
                raise ParseError(f"{edges_path}:{lineno}: duplicate edge {u} {v}")
            warnings.warn(
                f"{edges_path}:{lineno}: directed pair {u} {v} symmetrized",
                stacklevel=2,
            )
            continue
        seen[key] = (u, v)
        edges.append(key)

    feat_path = prefix.with_suffix(prefix.suffix + ".feat")
    rows = []
    row_lines = []
    for lineno, raw in enumerate(read_text(feat_path).splitlines(), 1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != d:
            raise ParseError(f"{feat_path}:{lineno}: expected {d} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{feat_path}:{lineno}: {exc}") from None
        row_lines.append(lineno)
    if len(rows) != n:
        raise ContractError(f"{feat_path}: {len(rows)} feature rows for n={n}")
    values = np.array(rows, dtype=np.float64).reshape(n, d)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = row_lines[int(np.argmin(finite))]
        raise ParseError(f"{feat_path}:{lineno}: non-finite feature value")
    features = DenseMatrix(n, d, values)

    labels = None
    labels_path = prefix.with_suffix(prefix.suffix + ".labels")
    if labels_path.exists():
        vals = []
        for lineno, raw in enumerate(read_text(labels_path).splitlines(), 1):
            if not raw.strip():
                continue
            (y,) = _parse_int_fields(raw, 1, labels_path, lineno)
            vals.append(y)
        if len(vals) != n:
            raise ContractError(f"{labels_path}: {len(vals)} labels for n={n}")
        labels = np.array(vals, dtype=np.int64)

    return TargetGraph(n, edges, features, labels, num_classes)


def save_graph(g: TargetGraph, prefix) -> None:
    """Write the three-file text format (+ `.labels` when present)."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(prefix.with_suffix(prefix.suffix + ".meta"), "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.feature_dim} {g.num_classes}\n")
    np.savetxt(prefix.with_suffix(prefix.suffix + ".edges"), g.edges, fmt="%d")
    np.savetxt(prefix.with_suffix(prefix.suffix + ".feat"), g.features.a, fmt=FLOAT_FMT)
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
    means = spec.class_mean_separation * _unit_directions(
        rng, spec.num_classes, spec.feature_dim
    )
    n, src_edges, src_feats, labels = _sample_sbm(rng, spec, means)

    shifted = means + spec.target_mean_shift * _unit_directions(rng, 1, spec.feature_dim)
    _, tgt_edges, tgt_feats, _ = _sample_sbm(rng, spec, shifted)
    tgt_edges = _rewire(rng, n, tgt_edges, spec.edge_noise)

    source = TargetGraph(
        n, src_edges, DenseMatrix.from_array(src_feats), labels, spec.num_classes
    )
    target = TargetGraph(
        n, tgt_edges, DenseMatrix.from_array(tgt_feats), labels.copy(), spec.num_classes
    )
    return source, target
