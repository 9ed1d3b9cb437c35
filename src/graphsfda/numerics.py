"""Dense 64-bit matrix math with a reverse-mode differentiation tape.

Everything here is float64 and two-dimensional. The tape records exactly the
primitives a small graph-convolution stack and its losses need: dense and
sparse products, row softmax, row L2 normalization, gathers, segment sums and
the usual elementwise operations. No broadcasting beyond the explicit bias
op, no GPU, no higher-order derivatives.

There is one sparse product, `spmm`, over one sparse type whose values may be
a recorded tensor: that is how a live edge mask reaches the convolution.
`SparseAdjacency` is the A + I pattern of an undirected edge array, one
value per edge and one per node, so every matrix it carries is symmetric.
It builds one jagged-diagonal table over its rows (Saad, *Iterative Methods
for Sparse Linear Systems*, 2nd ed., section 3.4), shared by every
`with_values` copy, in windows of JDS_WINDOW_ROWS consecutive rows (sliced
JDS; Kreutzer et al., SIAM J. Sci. Comput. 36(5), 2014). Inside its window
a row is ranked by decreasing entry count, and diagonal k of the window
holds the k-th entry of every window row longer than k. Consecutive
diagonals of a window share one gather and one multiply, and each diagonal
is then one vectorized add, so a window's sums and gathers stay in cache.
Every output row starts at 0.0 and adds its products one at a time in CSR
order, exactly as a scatter-add (`np.add.at`) over the entries would: a
window only changes which rows a diagonal's add covers, not the order of
any row's sum. So the results are bitwise equal to the scatter-add. The
gradient in x is the transpose product, and on a symmetric matrix row j's
entries in column order are column j's entries in row order with the same
values, so the same table gives it, bitwise equal to a scatter-add over
the columns.

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
the `.grad` of every constant at None. A tape holds only what `backward`
reads: each node's pulls, and its leaves, the only tensors it gives a
`.grad`. An op output or a constant lives while a caller holds it or a
pull reads its value, so a pass keeps only the values its backward pass
needs (a relu's pull, for one, keeps a mask and not its input). The reverse
sweep holds only the gradient frontier, the adjoints not yet propagated: an
op's gradient is dropped as soon as it has been pulled into the op's
operands, and the sweep never holds one gradient per node (Griewank &
Walther; Chen et al., arXiv 1604.06174). `evaluate(f, *values)` runs a
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
# consecutive rows the sparse product sorts and sums together (the window of
# its jagged-diagonal table), and the most entries one of its gathers holds
JDS_WINDOW_ROWS = 2048

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
    """The pattern of A + I over an undirected graph: a symmetric n x n
    sparse matrix in canonical compressed-sparse-row (CSR) form.

    It is built from an (e, 2) array of distinct undirected edges without
    self-loops (`TargetGraph.edges`); only the endpoints are range-checked
    here. Its slots are the two mirror slots of every edge and the diagonal
    of every node, in CSR order: `rows` and `col_indices` give each slot's
    row and column. `entry_source[k]` names the input value that fills slot
    k: j < e for edge j, in both of its mirror slots, and e + i for the
    diagonal of node i. Every matrix is one value per edge and one per node
    (`with_values`), so it is exactly symmetric. `values` is the (nnz x 1)
    column of slot values, constant or a Tensor; a new structure carries
    unit values, the 0/1 pattern of A + I.
    """

    __slots__ = ("n", "col_indices", "rows", "entry_source", "values", "_by_row")

    def __init__(self, n: int, edges):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ContractError(f"edge endpoint outside [0,{n})")
        e = len(pairs)
        u, v = pairs[:, 0], pairs[:, 1]
        nodes = np.arange(n, dtype=np.int64)
        rows = np.concatenate([u, v, nodes])
        cols = np.concatenate([v, u, nodes])
        # CSR order: by row, then column. Every (row, col) slot is distinct,
        # so sorting one key gives lexsort's permutation. The keys stay below
        # n * n, which fits int64 for n up to 3.04e9; the n-length int64
        # arrays above already exist, and at that n each would take 24 GB.
        order = np.argsort(rows * n + cols)
        offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        self.n = n
        self.rows = rows[order]
        self.col_indices = cols[order]
        self.entry_source = np.concatenate([np.arange(e), np.arange(e), e + nodes])[order]
        self._by_row = _JaggedDiagonals(offsets, self.col_indices)
        self.values = np.ones((order.size, 1))

    def with_values(self, values) -> "SparseAdjacency":
        """The same structure carrying one value per edge and then one per
        node: an (e + n) x 1 column of finite constants, or a Tensor, whose
        tape then records the gather into the slots (`gather_rows`)."""
        live = isinstance(values, Tensor)
        column = values.value if live else np.asarray(values, dtype=np.float64).reshape(-1, 1)
        if not (live or np.isfinite(column).all()):
            raise NumericalError("sparse values must be finite")
        size = (self.nnz + self.n) // 2  # e + n: two slots per edge, one per node
        if column.shape != (size, 1):
            raise ShapeError(f"expected {size} values (e + n), got shape {column.shape}")
        out = copy.copy(self)
        out.values = gather_rows(values, self.entry_source) if live else column[self.entry_source]
        return out

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)


class _JaggedDiagonals:
    """Windowed jagged-diagonal index of a CSR matrix's stored entries: the
    sliced JDS of Kreutzer et al. (SIAM J. Sci. Comput. 36(5), 2014).

    Output row i sums the entries `offsets[i]:offsets[i+1]`, in CSR order.
    The rows are cut into windows of `window_rows` consecutive rows
    (JDS_WINDOW_ROWS when the table is built). Inside its window each row
    takes a rank, by decreasing length (stable, so rows of one length keep
    their order): `inverse[i]` is row i's rank. Diagonal k of a window holds
    the k-th entry of every window row longer than k, a prefix of its ranked
    rows, and `entries` lists the stored entries window by window, diagonal
    by diagonal, rank by rank. `windows` holds, per window, its first and
    end row and its groups: runs of consecutive diagonals whose entries,
    `entries[lo:hi]`, are at most `window_rows`, with each diagonal's
    length. Adding a window's diagonals in turn into zeroed sums gives every
    row the same sums, in the same order, as a scatter-add over its entries.
    """

    __slots__ = ("entries", "sources", "inverse", "windows", "window_rows")

    def __init__(self, offsets: np.ndarray, sources: np.ndarray):
        """`sources[e]`: the row of the dense operand that entry e multiplies."""
        n, size = offsets.size - 1, JDS_WINDOW_ROWS
        lengths = np.diff(offsets)
        nodes = np.arange(n)
        window = nodes // size
        order = np.lexsort((-lengths, window))  # stays inside each window
        local = nodes - window * size  # a row's, or a position's, place in its window
        self.inverse = np.empty(n, dtype=np.int64)
        self.inverse[order] = local
        # every stored entry as (sorted position, diagonal), position by position
        ranked = lengths[order]
        position = np.repeat(nodes, ranked)
        diagonal = np.arange(position.size) - np.repeat(np.cumsum(ranked) - ranked, ranked)
        # a window has as many diagonals as its longest row, its first ranked
        # one: window w's are diagonals[w]:diagonals[w + 1] of the flat list
        diagonals = np.concatenate([[0], np.cumsum(ranked[::size])])
        flat = diagonals[window[position]] + diagonal
        count = np.bincount(flat, minlength=diagonals[-1])
        start = np.concatenate([[0], np.cumsum(count)])
        self.entries = np.empty(position.size, dtype=np.int64)
        self.entries[start[flat] + local[position]] = offsets[order][position] + diagonal
        self.sources = sources[self.entries]
        self.window_rows = size
        # a diagonal has at most a window's rows, so each group takes one or more
        bounds, count = start.tolist(), count.tolist()
        self.windows = []
        for w, lo in enumerate(range(0, n, size)):
            groups, d, end = [], int(diagonals[w]), int(diagonals[w + 1])
            while d < end:
                stop = min(int(np.searchsorted(start, bounds[d] + size, "right")) - 1, end)
                groups.append((bounds[d], bounds[stop], count[d:stop]))
                d = stop
            self.windows.append((lo, min(lo + size, n), groups))

    def product(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row i of the result: the sum of `values[e] * x[sources[e]]` over
        row i's entries e, accumulated from 0.0 in CSR order.

        A window's rows are summed in one zeroed window x h array. Each group
        of its diagonals is gathered, multiplied into one window-sized buffer,
        and each diagonal is then added in place to the prefix of the sums it
        covers, in diagonal order: row i still adds its entries one at a
        time, in CSR order. The finished window is permuted back into the
        result by `inverse`, so the product holds one n x h array and two
        window x h ones, and no diagonal allocates. Each gather uses
        `mode="clip"` because NumPy buffers the output of a `take` in its
        default mode "raise"; no index is ever clipped, since
        `SparseAdjacency` range-checks the edge endpoints the table is
        built from and `spmm` checks that x has one row per node."""
        n, h = self.inverse.size, x.shape[1]
        out = np.empty((n, h))
        sums = np.empty((min(n, self.window_rows), h))
        buf = np.empty((min(self.entries.size, self.window_rows), h))
        v = values[self.entries]
        for first, end, groups in self.windows:
            acc = sums[: end - first]
            acc.fill(0.0)
            for lo, hi, counts in groups:
                b = buf[: hi - lo]
                x.take(self.sources[lo:hi], axis=0, out=b, mode="clip")
                np.multiply(b, v[lo:hi], out=b)
                for c in counts:
                    o = acc[:c]
                    np.add(o, b[:c], out=o)
                    b = b[c:]
            acc.take(self.inverse[first:end], axis=0, out=out[first:end], mode="clip")
        return out


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


class Tensor:
    """A value recorded on a tape. `grad` is populated by `backward`.

    A tensor refers to its tape weakly, so a tape nobody holds is freed at
    once, not at the next cyclic garbage collection. Tensors kept past
    that point still carry their value and gradient, but nothing more can
    be recorded from them.
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

    Nodes are numbered as they are computed, so every operand of node k has
    index < k and one reverse sweep suffices for all gradients. The tape
    holds each node's pulls, and of the tensors only its leaves, the ones
    `backward` gives a gradient: `nodes` lists them in recording order. An
    op output or a constant lives while a caller or a pull reads it.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        # per node: [(parent_index, vjp_fn), ...], [] for a leaf, None for a constant
        self._pulls: list = []

    def leaf(self, value) -> Tensor:
        """Record a differentiable input, a copy of `value`."""
        t = self._input(np.asarray(value, dtype=np.float64).copy(), [])
        self.nodes.append(t)
        return t

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
        self._pulls.append(pulls)
        return Tensor(self, len(self._pulls) - 1, value)

    def __len__(self):
        """The number of recorded nodes: leaves, constants and op outputs."""
        return len(self._pulls)


def backward(tape: Tape, scalar_output: Tensor) -> None:
    """Populate `.grad` on every leaf of `tape` from a 1x1 output.

    Unreachable leaves get zero gradients; constants and op outputs get
    `.grad` None. The reverse sweep visits nodes in strictly decreasing
    index order with plain array accumulation, so two runs over the same
    tape produce bit-identical gradients. It holds only the gradient
    frontier: an op's gradient is dropped as soon as its pulls have run,
    so the sweep keeps the adjoints not yet propagated, not one per node.
    """
    if _tape_of(scalar_output) is not tape:
        raise ContractError("output must be a Tensor recorded on this tape")
    if scalar_output.value.shape != (1, 1):
        raise ContractError(
            f"backward needs a 1x1 output, got {scalar_output.value.shape}"
        )
    grads: list = [None] * len(tape)
    grads[scalar_output.index] = np.ones((1, 1))
    for k in range(scalar_output.index, -1, -1):
        g, pulls = grads[k], tape._pulls[k]
        if g is None or not pulls:
            continue  # unreached, or a leaf, which keeps its gradient
        grads[k] = None  # the frontier moves past an op once its pulls have run
        for parent_index, vjp in pulls:
            contrib = vjp(g)
            if grads[parent_index] is None:
                grads[parent_index] = contrib
            else:
                grads[parent_index] = grads[parent_index] + contrib
    for leaf in tape.nodes:
        g = grads[leaf.index]
        leaf.grad = np.zeros_like(leaf.value) if g is None else g


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
    The product and the x-gradient run over the one jagged-diagonal table
    of `adj`'s structure, each through two window-sized buffers: `adj` is
    symmetric, so its transpose product is its product. The value gradient
    works through SPMM_GRAD_CHUNK_ENTRIES stored entries at a time. None of
    the three builds an nnz x h array, and each is bitwise equal to its
    scatter-add or whole-array form."""
    vals = adj.values if isinstance(adj.values, Tensor) else _tape_of(x).constant(adj.values)
    tape = _tape_of(vals, x)
    xv, vv = x.value, vals.value
    if adj.n != xv.shape[0]:
        raise ShapeError(f"spmm: adjacency is {adj.n}x{adj.n}, x has {xv.shape[0]} rows")
    rows, cols = adj.rows, adj.col_indices
    out = adj._by_row.product(vv, xv)
    return tape._record(
        out,
        [
            (vals.index, lambda g: _entry_dots(g, rows, xv, cols)),
            (x.index, lambda g: adj._by_row.product(vv, g)),
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
        a.take(rows[lo:hi], axis=0, out=ca, mode="clip")
        b.take(cols[lo:hi], axis=0, out=cb, mode="clip")
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


def l2_normalize_rows(a):
    """Scale each row to unit L2 norm; rows with norm < 1e-12 pass unchanged."""
    tape = _tape_of(a)
    av = a.value
    norms = np.sqrt((av * av).sum(axis=1, keepdims=True))
    small = norms < 1e-12
    safe = np.where(small, 1.0, norms)
    out = np.where(small, av, av / safe)

    def pull(g, y=out, small=small, safe=safe):
        # (g - y * rowsum(y * g)) / safe, with g itself on the small rows,
        # built in one n x k buffer
        projected = y * g
        np.multiply(y, projected.sum(axis=1, keepdims=True), out=projected)
        np.subtract(g, projected, out=projected)
        projected /= safe
        np.copyto(projected, g, where=small)
        return projected

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


def log_clamped(a):
    """log(max(x, 1e-12)); gradient is zero on the clamped region."""
    tape = _tape_of(a)
    av = a.value
    live = av > 1e-12
    out = np.log(np.maximum(av, 1e-12))

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
