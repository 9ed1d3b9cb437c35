"""Dense 64-bit matrix math with a reverse-mode differentiation tape.

Everything here is float64 and two-dimensional. The tape records exactly the
primitives a small graph-convolution stack and its losses need: dense and
sparse products, row softmax, row L2 normalization, gathers, segment sums and
the usual elementwise operations. No broadcasting beyond the explicit bias and
row-scale ops, no GPU, no higher-order derivatives.

There is one sparse product, `spmm`, over one sparse type whose values may be
a recorded tensor: that is how a live edge mask reaches the convolution.
`SparseAdjacency` builds two jagged-diagonal tables once per checked
structure (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed.,
section 3.4), shared by every `with_values` copy: one over the rows for the
product, one over the columns for its gradient in x. The rows are sorted by
decreasing entry count and diagonal k holds the k-th entry of every row
longer than k, so the product is one vectorized multiply-add per diagonal.
Every output row starts at 0.0 and adds its products one at a time in CSR
order (the x-gradient: in ascending row order within each column), exactly
as a scatter-add (`np.add.at`) over the entries would, so the results are
bitwise equal to it.

One fused op, `exp_sum_others`, sums `exp(scale * a_i . a_j)` over a set of
columns j other than i without holding the n x m matrix: it works through
row blocks in the forward pass and recomputes each block in the backward
pass, so the instance contrast needs O(n * block) memory.

The products, `row_softmax` and `l2_normalize_rows` dispatch on their
operands: pass `Tensor`s and the result is recorded for differentiation, pass
`DenseMatrix`/arrays and you get a plain value back. The other ops, and the
losses built from them, need a `Tensor` operand; `evaluate(f, *values)` runs
such a function on plain values through a fresh tape. `grad_check` compares
`backward` against central finite differences and is the ground truth for
every composite loss built on top of this module.
"""

from __future__ import annotations

import copy
import weakref

import numpy as np

from .errors import ContractError, NumericalError, ShapeError

# rows of the n x m exponential block that exp_sum_others holds at once
EXP_SUM_BLOCK_ROWS = 128

__all__ = [
    "DenseMatrix",
    "SparseAdjacency",
    "Tape",
    "Tensor",
    "backward",
    "evaluate",
    "grad_check",
    "matmul",
    "spmm",
    "row_softmax",
    "l2_normalize_rows",
]


def _as2d(x) -> np.ndarray:
    """Coerce to a 2-D float64 array without copying when possible."""
    if isinstance(x, DenseMatrix):
        return x.a
    if isinstance(x, Tensor):
        raise ContractError("expected a plain value, got a Tensor")
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D value, got ndim={a.ndim}")
    return a


class DenseMatrix:
    """Immutable row-major matrix of 64-bit reals.

    Entries are checked to be finite on construction, so any `DenseMatrix`
    escaping a public operation satisfies the no-NaN/no-Inf invariant.
    """

    __slots__ = ("_a",)

    def __init__(self, rows: int, cols: int, data):
        flat = np.asarray(data, dtype=np.float64).ravel()
        if rows < 0 or cols < 0:
            raise ContractError(f"negative dimensions {rows}x{cols}")
        if flat.size != rows * cols:
            raise ShapeError(
                f"data length {flat.size} does not match {rows}x{cols}"
            )
        a = flat.reshape(rows, cols).copy()
        if not np.isfinite(a).all():
            raise NumericalError("matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def from_rows(cls, rows) -> "DenseMatrix":
        a = np.asarray(rows, dtype=np.float64)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        return cls(a.shape[0], a.shape[1], a)

    @classmethod
    def from_array(cls, a) -> "DenseMatrix":
        a = _as2d(a)
        return cls(a.shape[0], a.shape[1], a)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(rows, cols, np.zeros(rows * cols))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the entries (read-only)."""
        return self._a.ravel()

    @property
    def a(self) -> np.ndarray:
        """2-D read-only view of the entries."""
        return self._a

    @property
    def shape(self) -> tuple:
        return self._a.shape

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


class SparseAdjacency:
    """Square sparse matrix in canonical compressed-sparse-row form.

    Canonical means: `row_offsets` is nondecreasing with n+1 entries, and
    column indices are strictly increasing within every row (hence no
    duplicate entries). `values` is an (nnz x 1) column, one entry per
    stored slot: constant, or a Tensor when the entries are differentiated.
    """

    __slots__ = ("n", "row_offsets", "col_indices", "values", "_rows_expanded",
                 "_by_row", "_by_col")

    def __init__(self, n: int, row_offsets, col_indices, values):
        offsets = np.asarray(row_offsets, dtype=np.int64)
        cols = np.asarray(col_indices, dtype=np.int64)
        if offsets.shape != (n + 1,):
            raise ShapeError(f"row_offsets must have length n+1={n + 1}")
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ContractError("row_offsets must start at 0 and be nondecreasing")
        if offsets[-1] != cols.size:
            raise ShapeError(f"nnz mismatch: offsets end {offsets[-1]}, {cols.size} columns")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ContractError("column index out of range")
        # strictly increasing within each row: diffs may only be <=0 at row starts
        if cols.size > 1:
            nondec = np.diff(cols) <= 0
            starts = np.zeros(cols.size - 1, dtype=bool)
            inner = offsets[1:-1]
            starts[inner[(inner > 0) & (inner < cols.size)] - 1] = True
            if np.any(nondec & ~starts):
                raise ContractError("column indices must be strictly increasing per row")
        self.n = n
        self.row_offsets = offsets
        self.col_indices = cols
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        self._rows_expanded = rows
        self._by_row = _JaggedDiagonals(offsets, np.arange(cols.size), cols)
        by_col = np.argsort(cols, kind="stable")
        col_offsets = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
        self._by_col = _JaggedDiagonals(col_offsets, by_col, rows)
        self.values = _entry_values(values, cols.size)

    def with_values(self, values) -> "SparseAdjacency":
        """The same (already checked) structure carrying new entry values."""
        out = copy.copy(self)
        out.values = _entry_values(values, self.nnz)
        return out

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    def rows_expanded(self) -> np.ndarray:
        """Row id of every stored entry, in storage order."""
        return self._rows_expanded

    def densify(self) -> DenseMatrix:
        out = np.zeros((self.n, self.n))
        out[self._rows_expanded, self.col_indices] = _val(self.values).ravel()
        return DenseMatrix.from_array(out)


class _JaggedDiagonals:
    """Jagged-diagonal (JDS) index of a sparse product's stored entries.

    Output row i sums the entries `entries_of_row[offsets[i]:offsets[i+1]]`,
    in that order. The rows are sorted by decreasing length (stable, so rows
    of one length keep their order), and diagonal k holds the k-th entry of
    every row longer than k: a prefix of the sorted rows. Adding the
    diagonals in turn into a zeroed output therefore gives every row the
    same sums, in the same order, as a scatter-add over its entries.
    """

    __slots__ = ("entries", "sources", "bounds", "inverse")

    def __init__(self, offsets: np.ndarray, entries_of_row: np.ndarray, sources: np.ndarray):
        """`sources[e]`: the row of the dense operand that entry e multiplies."""
        n = offsets.size - 1
        lengths = np.diff(offsets)
        order = np.argsort(-lengths, kind="stable")
        self.inverse = np.empty(n, dtype=np.int64)
        self.inverse[order] = np.arange(n)
        # rows longer than k, for k = 0 .. max length - 1
        per_diagonal = n - np.cumsum(np.bincount(lengths, minlength=1))[:-1]
        bounds = np.concatenate([[0], np.cumsum(per_diagonal)])
        diagonal = np.repeat(np.arange(per_diagonal.size), per_diagonal)
        rank = np.arange(bounds[-1]) - np.repeat(bounds[:-1], per_diagonal)
        self.entries = entries_of_row[offsets[order][rank] + diagonal]
        self.sources = sources[self.entries]
        self.bounds = bounds.tolist()

    def product(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row i of the result: the sum of `values[e] * x[sources[e]]` over
        row i's entries e, accumulated from 0.0 in row order."""
        out = np.zeros((self.inverse.size, x.shape[1]))
        v = values[self.entries]
        bounds = self.bounds
        for k in range(len(bounds) - 1):
            lo, hi = bounds[k], bounds[k + 1]
            out[: hi - lo] += v[lo:hi] * x[self.sources[lo:hi]]
        return out[self.inverse]


def _entry_values(values, nnz: int):
    """Stored values as an (nnz x 1) column: a Tensor, or finite constants."""
    if isinstance(values, Tensor):
        column = values.value
    else:
        column = values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        if not np.isfinite(column).all():
            raise NumericalError("sparse values must be finite")
    if column.shape != (nnz, 1):
        raise ShapeError(f"nnz mismatch: {nnz} slots, values of shape {column.shape}")
    return values


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


class Tensor:
    """A value recorded on a tape. `grad` is populated by `backward`.

    A tensor refers to its tape weakly: the tape owns its nodes, so a tape
    nobody holds is freed at once with every value recorded on it, not at
    the next cyclic garbage collection. Tensors kept past that point still
    carry their value and gradient, but nothing more can be recorded from
    them.
    """

    __slots__ = ("_tape", "index", "value", "grad")

    def __init__(self, tape: "Tape", index: int, value: np.ndarray):
        self._tape = weakref.ref(tape)
        self.index = index
        self.value = value
        self.grad = None

    @property
    def tape(self) -> "Tape | None":
        """The tape this tensor was recorded on, or None once it is freed."""
        return self._tape()

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def matrix(self) -> DenseMatrix:
        return DenseMatrix.from_array(self.value)

    def __repr__(self):
        return f"Tensor(#{self.index}, {self.value.shape})"


class Tape:
    """Ordered record of primitive operations.

    Nodes are appended as they are computed, so every operand of node k has
    index < k and one reverse sweep suffices for all gradients.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        self._pulls: list[list] = []  # per node: [(parent_index, vjp_fn), ...]

    def leaf(self, value) -> Tensor:
        """Record a differentiable input."""
        return self._record(_as2d(value).copy(), [])

    def _record(self, value: np.ndarray, pulls) -> Tensor:
        t = Tensor(self, len(self.nodes), value)
        self.nodes.append(t)
        self._pulls.append(pulls)
        return t

    def __len__(self):
        return len(self.nodes)


def backward(tape: Tape, scalar_output: Tensor) -> None:
    """Populate `.grad` on every node of `tape` from a 1x1 output.

    Unreachable nodes get zero gradients. The reverse sweep visits nodes in
    strictly decreasing index order with plain array accumulation, so two runs
    over the same tape produce bit-identical gradients.
    """
    if not isinstance(scalar_output, Tensor) or scalar_output.tape is not tape:
        raise ContractError("output must be a Tensor recorded on this tape")
    if scalar_output.value.shape != (1, 1):
        raise ContractError(
            f"backward needs a 1x1 output, got {scalar_output.value.shape}"
        )
    grads: list = [None] * len(tape.nodes)
    grads[scalar_output.index] = np.ones((1, 1))
    for k in range(scalar_output.index, -1, -1):
        g = grads[k]
        if g is None:
            continue
        for parent_index, vjp in tape._pulls[k]:
            contrib = vjp(g)
            if grads[parent_index] is None:
                grads[parent_index] = contrib
            else:
                grads[parent_index] = grads[parent_index] + contrib
    for k, node in enumerate(tape.nodes):
        node.grad = grads[k] if grads[k] is not None else np.zeros_like(node.value)


def evaluate(f, *values) -> np.ndarray:
    """The value of `f` with each of `values` recorded as a leaf on a fresh
    tape: how a plain-valued caller reads a tensor-only function."""
    tape = Tape()
    return f(*(tape.leaf(v) for v in values)).value


def grad_check(f, points, step: float = 1e-4) -> float:
    """Max relative error between `backward` and central finite differences.

    `f` maps leaf tensors to a scalar Tensor and is re-recorded on a fresh
    tape per evaluation. `points` is one array or a sequence of arrays, one
    per leaf. Nondifferentiable points (e.g. a ReLU kink) are the caller's
    responsibility to avoid.
    """
    if not (0.0 < step <= 1e-2):
        raise ContractError(f"step must be in (0, 1e-2], got {step}")
    if isinstance(points, (DenseMatrix, np.ndarray)):
        points = [points]
    base = [_as2d(p).copy() for p in points]

    tape = Tape()
    leaves = [tape.leaf(p) for p in base]
    out = f(*leaves)
    if out.value.shape != (1, 1):
        raise ContractError("grad_check needs a scalar-valued function")
    backward(tape, out)
    analytic = [leaf.grad.copy() for leaf in leaves]

    worst = 0.0
    for i, p in enumerate(base):
        flat = p.ravel()
        for j in range(flat.size):
            bump = [q.copy() for q in base]
            bump[i].ravel()[j] = flat[j] + step
            hi = float(evaluate(f, *bump)[0, 0])
            bump[i].ravel()[j] = flat[j] - step
            lo = float(evaluate(f, *bump)[0, 0])
            numeric = (hi - lo) / (2.0 * step)
            a = analytic[i].ravel()[j]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Op plumbing
# ---------------------------------------------------------------------------


def _tensor_operands(*xs):
    tensors = [x for x in xs if isinstance(x, Tensor)]
    if not tensors:
        return None
    tape = tensors[0].tape
    if tape is None:
        raise ContractError("operand's tape has been freed")
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands recorded on different tapes")
    return tape


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Tensor) else _as2d(x)


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# Public value-level ops (also recordable)
# ---------------------------------------------------------------------------


def matmul(a, b):
    """Matrix product. Recorded when either operand is a Tensor."""
    av, bv = _val(a), _val(b)
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"matmul: {av.shape[0]}x{av.shape[1]} @ {bv.shape[0]}x{bv.shape[1]}"
        )
    tape = _tensor_operands(a, b)
    out = av @ bv
    if tape is None:
        return _wrap_like(out, a, b)
    pulls = []
    if isinstance(a, Tensor):
        pulls.append((a.index, lambda g, bv=bv: g @ bv.T))
    if isinstance(b, Tensor):
        pulls.append((b.index, lambda g, av=av: av.T @ g))
    return tape._record(out, pulls)


def spmm(adj: SparseAdjacency, x):
    """Sparse-dense product `adj @ x`; equals the densified matmul.

    Recorded when `x` or the stored values of `adj` are a Tensor, with a
    gradient into each of them that is live. The product and the x-gradient
    run over the jagged-diagonal tables of `adj`'s structure."""
    xv = _val(x)
    if adj.n != xv.shape[0]:
        raise ShapeError(f"spmm: adjacency is {adj.n}x{adj.n}, x has {xv.shape[0]} rows")
    rows, cols, vals = adj.rows_expanded(), adj.col_indices, adj.values
    vv = _val(vals)
    out = adj._by_row.product(vv, xv)
    tape = _tensor_operands(vals, x)
    if tape is None:
        return _wrap_like(out, x)
    pulls = []
    if isinstance(vals, Tensor):
        pulls.append(
            (vals.index, lambda g: (g[rows] * xv[cols]).sum(axis=1, keepdims=True))
        )
    if isinstance(x, Tensor):
        pulls.append((x.index, lambda g: adj._by_col.product(vv, g)))
    return tape._record(out, pulls)


def _row_softmax_kernel(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def row_softmax(a):
    """Row-stochastic softmax, stable under per-row max subtraction."""
    av = _val(a)
    out = _row_softmax_kernel(av)
    tape = _tensor_operands(a)
    if tape is None:
        return _wrap_like(out, a)

    def pull(g, p=out):
        return p * (g - (g * p).sum(axis=1, keepdims=True))

    return tape._record(out, [(a.index, pull)])


def _l2_normalize_kernel(x: np.ndarray, eps: float):
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    small = norms < eps
    safe = np.where(small, 1.0, norms)
    return np.where(small, x, x / safe), norms, small, safe


def l2_normalize_rows(a, eps: float = 1e-12):
    """Scale each row to unit L2 norm; rows with norm < eps pass unchanged."""
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    av = _val(a)
    out, _, small, safe = _l2_normalize_kernel(av, eps)
    tape = _tensor_operands(a)
    if tape is None:
        return _wrap_like(out, a)

    def pull(g, y=out, small=small, safe=safe):
        projected = (g - y * (y * g).sum(axis=1, keepdims=True)) / safe
        return np.where(small, g, projected)

    return tape._record(out, [(a.index, pull)])


def _wrap_like(out: np.ndarray, *operands):
    if any(isinstance(x, DenseMatrix) for x in operands):
        return DenseMatrix.from_array(out)
    return out


# ---------------------------------------------------------------------------
# Tensor-only ops (building blocks for recorded losses)
# ---------------------------------------------------------------------------


def _unary(a, out, pull):
    tape = _tensor_operands(a)
    if tape is None:
        raise ContractError("op requires a Tensor operand")
    return tape._record(out, [(a.index, pull)])


def add(a, b):
    av, bv = _val(a), _val(b)
    _same_shape(av, bv, "add")
    tape = _tensor_operands(a, b)
    if tape is None:
        raise ContractError("add requires a Tensor operand")
    pulls = []
    if isinstance(a, Tensor):
        pulls.append((a.index, lambda g: g))
    if isinstance(b, Tensor):
        pulls.append((b.index, lambda g: g))
    return tape._record(av + bv, pulls)


def sub(a, b):
    av, bv = _val(a), _val(b)
    _same_shape(av, bv, "sub")
    tape = _tensor_operands(a, b)
    if tape is None:
        raise ContractError("sub requires a Tensor operand")
    pulls = []
    if isinstance(a, Tensor):
        pulls.append((a.index, lambda g: g))
    if isinstance(b, Tensor):
        pulls.append((b.index, lambda g: -g))
    return tape._record(av - bv, pulls)


def mul(a, b):
    av, bv = _val(a), _val(b)
    _same_shape(av, bv, "mul")
    tape = _tensor_operands(a, b)
    if tape is None:
        raise ContractError("mul requires a Tensor operand")
    pulls = []
    if isinstance(a, Tensor):
        pulls.append((a.index, lambda g, bv=bv: g * bv))
    if isinstance(b, Tensor):
        pulls.append((b.index, lambda g, av=av: g * av))
    return tape._record(av * bv, pulls)


def div(a, b):
    av, bv = _val(a), _val(b)
    _same_shape(av, bv, "div")
    tape = _tensor_operands(a, b)
    if tape is None:
        raise ContractError("div requires a Tensor operand")
    out = av / bv
    pulls = []
    if isinstance(a, Tensor):
        pulls.append((a.index, lambda g, bv=bv: g / bv))
    if isinstance(b, Tensor):
        pulls.append((b.index, lambda g, out=out, bv=bv: -g * out / bv))
    return tape._record(out, pulls)


def neg(a):
    return _unary(a, -_val(a), lambda g: -g)


def add_scalar(a, c: float):
    return _unary(a, _val(a) + c, lambda g: g)


def mul_scalar(a, c: float):
    return _unary(a, _val(a) * c, lambda g, c=c: g * c)


def relu(a):
    av = _val(a)
    mask = av > 0  # subgradient 0 at the kink
    return _unary(a, av * mask, lambda g, mask=mask: g * mask)


def exp(a):
    out = np.exp(_val(a))
    return _unary(a, out, lambda g, out=out: g * out)


def log(a):
    av = _val(a)
    return _unary(a, np.log(av), lambda g, av=av: g / av)


def log_clamped(a, floor: float = 1e-12):
    """log(max(x, floor)); gradient is zero on the clamped region."""
    av = _val(a)
    live = av > floor
    out = np.log(np.maximum(av, floor))

    def pull(g, av=av, live=live):
        return np.divide(g, av, out=np.zeros_like(g), where=live)

    return _unary(a, out, pull)


def exp_sum_others(a, cols, scale: float):
    """The n x 1 column `out[i]` = sum over j with `cols[j] != i` of
    `exp(scale * a_i . a_cols[j])`: row i of `exp(scale * a a[cols]^T)`
    summed with the entries that pair i with itself left out.

    A plain sum of exponentials, without a max-shift, so it overflows where
    the dense formula does. Works through EXP_SUM_BLOCK_ROWS rows at a time
    and keeps none of them: the backward pass recomputes each block and
    pulls it into both the row operand and the gathered columns, the
    blockwise recomputation of the online softmax (Milakov & Gimelshein,
    arXiv 1805.02867) and FlashAttention (Dao et al., arXiv 2205.14135)."""
    av = _val(a)
    idx = np.asarray(cols, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("exp_sum_others cols must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise ContractError("exp_sum_others column id out of range")
    n, block = av.shape[0], EXP_SUM_BLOCK_ROWS
    b = av[idx]
    out = np.empty((n, 1))
    for start in range(0, n, block):
        out[start : start + block, 0] = _exp_block(av, b, idx, start, block, scale).sum(axis=1)

    def pull(g):
        b = av[idx]
        ga = np.empty_like(av)
        gb = np.zeros_like(b)
        for start in range(0, n, block):
            w = _exp_block(av, b, idx, start, block, scale)
            w *= g[start : start + block] * scale
            ga[start : start + block] = w @ b
            gb += w.T @ av[start : start + block]
        np.add.at(ga, idx, gb)
        return ga

    return _unary(a, out, pull)


def _exp_block(av, b, cols, start, block, scale):
    """`exp(scale * av[start:start+block] @ b^T)`, zero where `cols[j]` is
    the row's own index."""
    e = av[start : start + block] @ b.T
    e *= scale
    np.exp(e, out=e)
    own = np.flatnonzero((cols >= start) & (cols < start + e.shape[0]))
    e[cols[own] - start, own] = 0.0
    return e


def pow_scalar(a, p: float):
    av = _val(a)
    out = av ** p
    return _unary(a, out, lambda g, av=av, p=p: g * p * av ** (p - 1.0))


def transpose(a):
    return _unary(a, _val(a).T.copy(), lambda g: g.T.copy())


def row_sum(a):
    av = _val(a)
    k = av.shape[1]
    return _unary(a, av.sum(axis=1, keepdims=True), lambda g, k=k: np.repeat(g, k, axis=1))


def sum_all(a):
    av = _val(a)
    out = np.array([[av.sum()]])
    return _unary(a, out, lambda g, shape=av.shape: np.full(shape, g[0, 0]))


def mean_all(a):
    av = _val(a)
    out = np.array([[av.mean()]])
    size = av.size
    return _unary(a, out, lambda g, shape=av.shape, size=size: np.full(shape, g[0, 0] / size))


def add_bias(x, b):
    """Add a 1xk bias row to every row of an nxk tensor."""
    xv, bv = _val(x), _val(b)
    if bv.shape != (1, xv.shape[1]):
        raise ShapeError(f"add_bias: bias {bv.shape} does not fit {xv.shape}")
    tape = _tensor_operands(x, b)
    if tape is None:
        raise ContractError("add_bias requires a Tensor operand")
    pulls = []
    if isinstance(x, Tensor):
        pulls.append((x.index, lambda g: g))
    if isinstance(b, Tensor):
        pulls.append((b.index, lambda g: g.sum(axis=0, keepdims=True)))
    return tape._record(xv + bv, pulls)


def scale_rows(x, s):
    """Multiply row i of an nxk tensor by scalar s[i] (s is nx1)."""
    xv, sv = _val(x), _val(s)
    if sv.shape != (xv.shape[0], 1):
        raise ShapeError(f"scale_rows: scale {sv.shape} does not fit {xv.shape}")
    tape = _tensor_operands(x, s)
    if tape is None:
        raise ContractError("scale_rows requires a Tensor operand")
    pulls = []
    if isinstance(x, Tensor):
        pulls.append((x.index, lambda g, sv=sv: g * sv))
    if isinstance(s, Tensor):
        pulls.append((s.index, lambda g, xv=xv: (g * xv).sum(axis=1, keepdims=True)))
    return tape._record(xv * sv, pulls)


def gather_rows(a, index):
    """Select rows by integer index (repeats allowed)."""
    av = _val(a)
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise ContractError("gather_rows index out of range")
    out = av[idx]

    def pull(g, idx=idx, shape=av.shape):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g)
        return gx

    return _unary(a, out, pull)


def select_cols(a, col_index):
    """Per-row single-column selection: out[i, 0] = a[i, col_index[i]]."""
    av = _val(a)
    idx = np.asarray(col_index, dtype=np.int64)
    if idx.shape != (av.shape[0],):
        raise ShapeError("select_cols needs one column id per row")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[1]):
        raise ContractError("select_cols column id out of range")
    rows = np.arange(av.shape[0])
    out = av[rows, idx][:, None]

    def pull(g, rows=rows, idx=idx, shape=av.shape):
        gx = np.zeros(shape)
        gx[rows, idx] = g[:, 0]
        return gx

    return _unary(a, out, pull)


def segment_sum(a, segment_ids, num_segments: int):
    """Sum rows of an mxk tensor into `num_segments` buckets."""
    av = _val(a)
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.shape != (av.shape[0],):
        raise ShapeError("segment_sum needs one segment id per row")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ContractError("segment id out of range")
    out = np.zeros((num_segments, av.shape[1]))
    np.add.at(out, seg, av)
    return _unary(a, out, lambda g, seg=seg: g[seg])


def concat_rows(a, b):
    av, bv = _val(a), _val(b)
    if av.shape[1] != bv.shape[1]:
        raise ShapeError(f"concat_rows: widths {av.shape[1]} and {bv.shape[1]} differ")
    tape = _tensor_operands(a, b)
    if tape is None:
        raise ContractError("concat_rows requires a Tensor operand")
    out = np.concatenate([av, bv], axis=0)
    na = av.shape[0]
    pulls = []
    if isinstance(a, Tensor):
        pulls.append((a.index, lambda g, na=na: g[:na]))
    if isinstance(b, Tensor):
        pulls.append((b.index, lambda g, na=na: g[na:]))
    return tape._record(out, pulls)
