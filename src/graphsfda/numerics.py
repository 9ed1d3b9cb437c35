"""Dense 64-bit matrix math with a reverse-mode differentiation tape.

Everything here is float64 and two-dimensional. The tape records exactly the
primitives a small graph-convolution stack and its losses need: dense and
sparse products, row softmax, row L2 normalization, gathers, segment sums and
the usual elementwise operations. No broadcasting beyond the explicit bias
op, no GPU, no higher-order derivatives.

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
pass, so the instance contrast needs O(n * block) memory. Over every node
it computes each unordered pair once, in upper-triangular strips.

Every op takes `Tensor` operands only. A tape records two kinds of input:
`leaf`, a value that is differentiated, and `constant`, one that is not (the
active and passive inputs of reverse-mode differentiation; Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., 2008). An op drops every pull
into a constant, and an op left with no pull is itself a constant, so a
product of constants records nothing to differentiate and `backward` leaves
the `.grad` of every constant at None. `evaluate(f, *values)` runs a
function on plain values through a fresh tape. `grad_check` compares
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
# stored entries whose products the value gradient of spmm holds at once
SPMM_GRAD_CHUNK_ENTRIES = 2048

__all__ = [
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

    def densify(self) -> np.ndarray:
        values = self.values.value if isinstance(self.values, Tensor) else self.values
        out = np.zeros((self.n, self.n))
        out[self._rows_expanded, self.col_indices] = values.ravel()
        return out


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
        row i's entries e, accumulated from 0.0 in row order.

        Each diagonal is gathered into one preallocated n x h buffer,
        multiplied and added in place, so no diagonal allocates. The gather
        uses `mode="clip"` because NumPy buffers the output of a `take` in
        its default mode "raise"; no index is ever clipped, since
        `SparseAdjacency` range-checks the column indices the tables are
        built from and `spmm` checks that x has one row per node."""
        n = self.inverse.size
        out = np.zeros((n, x.shape[1]))
        buf = np.empty_like(out)
        v = values[self.entries]
        bounds = self.bounds
        for k in range(len(bounds) - 1):
            lo, hi = bounds[k], bounds[k + 1]
            o, b = out[: hi - lo], buf[: hi - lo]
            np.take(x, self.sources[lo:hi], axis=0, out=b, mode="clip")
            np.multiply(b, v[lo:hi], out=b)
            np.add(o, b, out=o)
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

    def __repr__(self):
        return f"Tensor(#{self.index}, {self.value.shape})"


class Tape:
    """Ordered record of primitive operations.

    Nodes are appended as they are computed, so every operand of node k has
    index < k and one reverse sweep suffices for all gradients.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        # per node: [(parent_index, vjp_fn), ...], or None for a constant
        self._pulls: list = []

    def leaf(self, value) -> Tensor:
        """Record a differentiable input, a copy of `value`."""
        return self._input(np.asarray(value, dtype=np.float64).copy(), [])

    def constant(self, value) -> Tensor:
        """Record an input that no gradient reaches. `value` is not copied,
        and the constant's `.grad` stays None after `backward`."""
        return self._input(np.asarray(value, dtype=np.float64), None)

    def _input(self, value: np.ndarray, pulls) -> Tensor:
        if value.ndim != 2:
            raise ShapeError(f"expected a 2-D value, got ndim={value.ndim}")
        return self._append(value, pulls)

    def _record(self, value: np.ndarray, pulls) -> Tensor:
        """Record an op's output. Each pull into a constant is dropped; an
        op left with no pull is itself a constant."""
        live = [pull for pull in pulls if self._pulls[pull[0]] is not None]
        return self._append(value, live or None)

    def _append(self, value: np.ndarray, pulls) -> Tensor:
        t = Tensor(self, len(self.nodes), value)
        self.nodes.append(t)
        self._pulls.append(pulls)
        return t

    def __len__(self):
        return len(self.nodes)


def backward(tape: Tape, scalar_output: Tensor) -> None:
    """Populate `.grad` on every node of `tape` from a 1x1 output.

    Unreachable live nodes get zero gradients; constants keep `.grad` None.
    The reverse sweep visits nodes in strictly decreasing index order with
    plain array accumulation, so two runs over the same tape produce
    bit-identical gradients.
    """
    if _tape_of(scalar_output) is not tape:
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
        for parent_index, vjp in tape._pulls[k] or ():
            contrib = vjp(g)
            if grads[parent_index] is None:
                grads[parent_index] = contrib
            else:
                grads[parent_index] = grads[parent_index] + contrib
    for node, pulls, g in zip(tape.nodes, tape._pulls, grads):
        if g is None and pulls is not None:
            g = np.zeros_like(node.value)
        node.grad = g


def evaluate(f, *values) -> np.ndarray:
    """The value of `f` with each of `values` recorded as a constant on a
    fresh tape: how a plain-valued caller reads a tensor-only function."""
    tape = Tape()
    return f(*(tape.constant(v) for v in values)).value


def grad_check(f, points, step: float = 1e-4) -> float:
    """Max relative error between `backward` and central finite differences.

    `f` maps leaf tensors to a scalar Tensor and is re-recorded on a fresh
    tape per evaluation. `points` is one array or a sequence of arrays, one
    per leaf. Nondifferentiable points (e.g. a ReLU kink) are the caller's
    responsibility to avoid.
    """
    if not (0.0 < step <= 1e-2):
        raise ContractError(f"step must be in (0, 1e-2], got {step}")
    if isinstance(points, np.ndarray):
        points = [points]
    base = [np.asarray(p, dtype=np.float64).copy() for p in points]

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
# Ops
# ---------------------------------------------------------------------------


def _tape_of(*operands) -> Tape:
    """The one live tape every operand is recorded on."""
    for x in operands:
        if not isinstance(x, Tensor):
            raise ContractError(f"expected a Tensor operand, got {type(x).__name__}")
    tape = operands[0].tape
    if tape is None:
        raise ContractError("operand's tape has been freed")
    for x in operands[1:]:
        if x.tape is not tape:
            raise ContractError("operands recorded on different tapes")
    return tape


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def matmul(a, b):
    """Matrix product."""
    tape = _tape_of(a, b)
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"matmul: {av.shape[0]}x{av.shape[1]} @ {bv.shape[0]}x{bv.shape[1]}"
        )
    return tape._record(
        av @ bv, [(a.index, lambda g: g @ bv.T), (b.index, lambda g: av.T @ g)]
    )


def spmm(adj: SparseAdjacency, x):
    """Sparse-dense product `adj @ x`; equals the densified matmul.

    Differentiates into `x` and into the stored values of `adj`, each unless
    it is a constant; constant stored values are recorded as a constant.
    The product and the x-gradient run over the jagged-diagonal tables of
    `adj`'s structure, each through one n x h buffer; the value gradient
    works through SPMM_GRAD_CHUNK_ENTRIES stored entries at a time. None of
    the three builds an nnz x h array, and each is bitwise equal to its
    scatter-add or whole-array form."""
    vals = adj.values if isinstance(adj.values, Tensor) else _tape_of(x).constant(adj.values)
    tape = _tape_of(vals, x)
    xv, vv = x.value, vals.value
    if adj.n != xv.shape[0]:
        raise ShapeError(f"spmm: adjacency is {adj.n}x{adj.n}, x has {xv.shape[0]} rows")
    rows, cols = adj.rows_expanded(), adj.col_indices
    out = adj._by_row.product(vv, xv)
    return tape._record(
        out,
        [
            (vals.index, lambda g: _entry_dots(g, rows, xv, cols)),
            (x.index, lambda g: adj._by_col.product(vv, g)),
        ],
    )


def _entry_dots(a, rows, b, cols):
    """The (nnz x 1) column of `a[rows[e]] . b[cols[e]]`, the gradient of
    `spmm` into its stored values. It gathers, multiplies and sums
    SPMM_GRAD_CHUNK_ENTRIES entries at a time, in place; each row keeps
    NumPy's own reduction, so the column is bitwise equal to
    `(a[rows] * b[cols]).sum(axis=1, keepdims=True)` without its two
    nnz x h arrays. Neither index is clipped: see `_JaggedDiagonals.product`."""
    nnz, chunk = rows.size, SPMM_GRAD_CHUNK_ENTRIES
    out = np.empty((nnz, 1))
    buf_a = np.empty((min(nnz, chunk), a.shape[1]))
    buf_b = np.empty_like(buf_a)
    for lo in range(0, nnz, chunk):
        hi = min(lo + chunk, nnz)
        ca, cb = buf_a[: hi - lo], buf_b[: hi - lo]
        np.take(a, rows[lo:hi], axis=0, out=ca, mode="clip")
        np.take(b, cols[lo:hi], axis=0, out=cb, mode="clip")
        np.multiply(ca, cb, out=ca)
        ca.sum(axis=1, out=out[lo:hi, 0])
    return out


def row_softmax(a):
    """Row-stochastic softmax, stable under per-row max subtraction."""
    tape = _tape_of(a)
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def pull(g, p=out):
        return p * (g - (g * p).sum(axis=1, keepdims=True))

    return tape._record(out, [(a.index, pull)])


def l2_normalize_rows(a, eps: float = 1e-12):
    """Scale each row to unit L2 norm; rows with norm < eps pass unchanged."""
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    tape = _tape_of(a)
    av = a.value
    norms = np.sqrt((av * av).sum(axis=1, keepdims=True))
    small = norms < eps
    safe = np.where(small, 1.0, norms)
    out = np.where(small, av, av / safe)

    def pull(g, y=out, small=small, safe=safe):
        projected = (g - y * (y * g).sum(axis=1, keepdims=True)) / safe
        return np.where(small, g, projected)

    return tape._record(out, [(a.index, pull)])


def add(a, b):
    tape = _tape_of(a, b)
    _same_shape(a.value, b.value, "add")
    return tape._record(a.value + b.value, [(a.index, lambda g: g), (b.index, lambda g: g)])


def sub(a, b):
    tape = _tape_of(a, b)
    _same_shape(a.value, b.value, "sub")
    return tape._record(a.value - b.value, [(a.index, lambda g: g), (b.index, lambda g: -g)])


def mul(a, b):
    tape = _tape_of(a, b)
    av, bv = a.value, b.value
    _same_shape(av, bv, "mul")
    return tape._record(av * bv, [(a.index, lambda g: g * bv), (b.index, lambda g: g * av)])


def neg(a):
    tape = _tape_of(a)
    return tape._record(-a.value, [(a.index, lambda g: -g)])


def add_scalar(a, c: float):
    tape = _tape_of(a)
    return tape._record(a.value + c, [(a.index, lambda g: g)])


def mul_scalar(a, c: float):
    tape = _tape_of(a)
    return tape._record(a.value * c, [(a.index, lambda g: g * c)])


def relu(a):
    tape = _tape_of(a)
    mask = a.value > 0  # subgradient 0 at the kink
    return tape._record(a.value * mask, [(a.index, lambda g: g * mask)])


def exp(a):
    tape = _tape_of(a)
    out = np.exp(a.value)
    return tape._record(out, [(a.index, lambda g: g * out)])


def log(a):
    tape = _tape_of(a)
    av = a.value
    return tape._record(np.log(av), [(a.index, lambda g: g / av)])


def log_clamped(a, floor: float = 1e-12):
    """log(max(x, floor)); gradient is zero on the clamped region."""
    tape = _tape_of(a)
    av = a.value
    live = av > floor
    out = np.log(np.maximum(av, floor))

    def pull(g):
        return np.divide(g, av, out=np.zeros_like(g), where=live)

    return tape._record(out, [(a.index, pull)])


def exp_sum_others(a, cols, scale: float):
    """The n x 1 column `out[i]` = sum over j with `cols[j] != i` of
    `exp(scale * a_i . a_cols[j])`: row i of `exp(scale * a a[cols]^T)`
    summed with the entries that pair i with itself left out. `cols` None
    means every node, j = 0..n-1.

    A plain sum of exponentials, without a max-shift, so it overflows where
    the dense formula does. Works through EXP_SUM_BLOCK_ROWS rows at a time
    and keeps none of them: the backward pass recomputes each block and
    pulls it into both the row operand and the gathered columns, the
    blockwise recomputation of the online softmax (Milakov & Gimelshein,
    arXiv 1805.02867) and FlashAttention (Dao et al., arXiv 2205.14135).

    Over every node the matrix E of the pairs j != i is symmetric, so each
    unordered pair is computed once: rows [s, s+B) meet only columns
    [s, n), with the pairs j <= i zeroed (by assignment, so an overflowing
    self pair cannot turn the sum into NaN). The strip's row sums go to
    its rows and its column sums to its columns, and the gradient
    `scale * (g * (E a) + E (g * a))` is one product of E with [a | g * a]
    taken strip by strip, once as the strip and once as its transpose."""
    tape = _tape_of(a)
    av = a.value
    n = av.shape[0]
    if cols is None:
        out = np.zeros((n, 1))
        for start, stop, strip in _upper_strips(av, scale):
            out[start:stop, 0] += strip.sum(axis=1)
            out[start:, 0] += strip.sum(axis=0)

        def pull(g):
            h = av.shape[1]
            x = np.concatenate([av, g * av], axis=1)
            y = np.zeros_like(x)
            for start, stop, strip in _upper_strips(av, scale):
                y[start:stop] += strip @ x[start:]
                y[start:] += strip.T @ x[start:stop]
            ga = g * y[:, :h]
            ga += y[:, h:]
            ga *= scale
            return ga

        return tape._record(out, [(a.index, pull)])

    idx = np.asarray(cols, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("exp_sum_others cols must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError("exp_sum_others column id out of range")
    b = av[idx]
    out = np.empty((n, 1))
    for start, stop, block in _column_blocks(av, b, idx, scale):
        out[start:stop, 0] = block.sum(axis=1)

    def pull(g):
        b = av[idx]
        ga = np.empty_like(av)
        gb = np.zeros_like(b)
        for start, stop, w in _column_blocks(av, b, idx, scale):
            w *= g[start:stop] * scale
            ga[start:stop] = w @ b
            gb += w.T @ av[start:stop]
        np.add.at(ga, idx, gb)
        return ga

    return tape._record(out, [(a.index, pull)])


def _upper_strips(av, scale):
    """Yield `(start, stop, strip)` per EXP_SUM_BLOCK_ROWS rows: the strip
    is `exp(scale * av[start:stop] @ av[start:]^T)` with the pairs j <= i,
    the leading lower triangle and diagonal, zeroed. Every strip is a view
    of one buffer, valid until the next is yielded."""
    n, block = av.shape[0], EXP_SUM_BLOCK_ROWS
    buf = np.empty(min(block, n) * n)
    lower = np.tri(min(block, n), dtype=bool)
    for start in range(0, n, block):
        stop = min(start + block, n)
        strip = _exp_block(av[start:stop], av[start:], scale, buf)
        m = stop - start
        strip[:, :m][lower[:m, :m]] = 0.0
        yield start, stop, strip


def _column_blocks(av, b, cols, scale):
    """Yield `(start, stop, block)` per EXP_SUM_BLOCK_ROWS rows: the block
    is `exp(scale * av[start:stop] @ b^T)`, zero where `cols[j]` is the
    row's own index. Every block is a view of one buffer, valid until the
    next is yielded."""
    n, block = av.shape[0], EXP_SUM_BLOCK_ROWS
    buf = np.empty(min(block, n) * b.shape[0])
    for start in range(0, n, block):
        stop = min(start + block, n)
        e = _exp_block(av[start:stop], b, scale, buf)
        own = np.flatnonzero((cols >= start) & (cols < stop))
        e[cols[own] - start, own] = 0.0
        yield start, stop, e


def _exp_block(rows, b, scale, buf):
    """`exp(scale * rows @ b^T)`, computed in the front of the flat `buf`."""
    e = buf[: rows.shape[0] * b.shape[0]].reshape(rows.shape[0], b.shape[0])
    np.matmul(rows, b.T, out=e)
    e *= scale
    np.exp(e, out=e)
    return e


def pow_scalar(a, p: float):
    tape = _tape_of(a)
    av = a.value
    return tape._record(av ** p, [(a.index, lambda g: g * p * av ** (p - 1.0))])


def row_sum(a):
    tape = _tape_of(a)
    k = a.value.shape[1]
    return tape._record(
        a.value.sum(axis=1, keepdims=True), [(a.index, lambda g: np.repeat(g, k, axis=1))]
    )


def sum_all(a):
    tape = _tape_of(a)
    shape = a.value.shape
    out = np.array([[a.value.sum()]])
    return tape._record(out, [(a.index, lambda g: np.full(shape, g[0, 0]))])


def mean_all(a):
    tape = _tape_of(a)
    shape, size = a.value.shape, a.value.size
    out = np.array([[a.value.mean()]])
    return tape._record(out, [(a.index, lambda g: np.full(shape, g[0, 0] / size))])


def add_bias(x, b):
    """Add a 1xk bias row to every row of an nxk tensor."""
    tape = _tape_of(x, b)
    xv, bv = x.value, b.value
    if bv.shape != (1, xv.shape[1]):
        raise ShapeError(f"add_bias: bias {bv.shape} does not fit {xv.shape}")
    return tape._record(
        xv + bv, [(x.index, lambda g: g), (b.index, lambda g: g.sum(axis=0, keepdims=True))]
    )


def gather_rows(a, index):
    """Select rows by integer index (repeats allowed)."""
    tape = _tape_of(a)
    av = a.value
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise ContractError("gather_rows index out of range")

    def pull(g, shape=av.shape):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g)
        return gx

    return tape._record(av[idx], [(a.index, pull)])


def select_cols(a, col_index):
    """Per-row single-column selection: out[i, 0] = a[i, col_index[i]]."""
    tape = _tape_of(a)
    av = a.value
    idx = np.asarray(col_index, dtype=np.int64)
    if idx.shape != (av.shape[0],):
        raise ShapeError("select_cols needs one column id per row")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[1]):
        raise ContractError("select_cols column id out of range")
    rows = np.arange(av.shape[0])

    def pull(g, shape=av.shape):
        gx = np.zeros(shape)
        gx[rows, idx] = g[:, 0]
        return gx

    return tape._record(av[rows, idx][:, None], [(a.index, pull)])


def segment_sum(a, segment_ids, num_segments: int):
    """Sum rows of an mxk tensor into `num_segments` buckets."""
    tape = _tape_of(a)
    av = a.value
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.shape != (av.shape[0],):
        raise ShapeError("segment_sum needs one segment id per row")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ContractError("segment id out of range")
    out = np.zeros((num_segments, av.shape[1]))
    np.add.at(out, seg, av)
    return tape._record(out, [(a.index, lambda g: g[seg])])


def concat_rows(a, b):
    tape = _tape_of(a, b)
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[1]:
        raise ShapeError(f"concat_rows: widths {av.shape[1]} and {bv.shape[1]} differ")
    na = av.shape[0]
    return tape._record(
        np.concatenate([av, bv], axis=0), [(a.index, lambda g: g[:na]), (b.index, lambda g: g[na:])]
    )
