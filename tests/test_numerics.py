import gc
import weakref

import numpy as np
import pytest

from graphsfda import numerics
from graphsfda.errors import ContractError, ShapeError
from graphsfda.numerics import (
    SparseAdjacency,
    Tape,
    add,
    add_bias,
    add_scalar,
    backward,
    concat_rows,
    evaluate,
    exp,
    exp_sum_others,
    gather_rows,
    grad_check,
    l2_normalize_rows,
    log,
    log_clamped,
    matmul,
    mean_all,
    mul,
    mul_scalar,
    neg,
    pow_scalar,
    relu,
    row_softmax,
    row_sum,
    segment_sum,
    select_cols,
    spmm,
    sub,
    sum_all,
)

from conftest import transposed


class TestMatmul:
    def test_identity(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        out = evaluate(matmul, a, [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(out, a)

    def test_hand_case(self):
        out = evaluate(matmul, [[1.0, 0.0], [0.0, 2.0]], [[3.0], [4.0]])
        assert np.array_equal(out, [[3.0], [8.0]])

    def test_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match="2x3 @ 2x2"):
            evaluate(matmul, np.zeros((2, 3)), np.zeros((2, 2)))


def spmm_value(adj, x):
    return evaluate(lambda t: spmm(adj, t), x)


class TestSpmm:
    def test_zero_edges(self):
        adj = SparseAdjacency(3, [0, 0, 0, 0], [], [])
        out = spmm_value(adj, [[1.0], [2.0], [3.0]])
        assert np.array_equal(out, np.zeros((3, 1)))

    def test_identity_pattern(self):
        adj = SparseAdjacency(2, [0, 1, 2], [0, 1], [1.0, 1.0])
        x = [[5.0, 1.0], [2.0, 3.0]]
        assert np.array_equal(spmm_value(adj, x), x)

    def test_path_graph(self):
        # unweighted 3-node path, no self-loops
        adj = SparseAdjacency(3, [0, 1, 3, 4], [1, 0, 2, 1], [1.0] * 4)
        out = spmm_value(adj, [[1.0], [2.0], [3.0]])
        assert np.array_equal(out, [[2.0], [4.0], [2.0]])

    def test_matches_densified_matmul(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 51))
            nnz_rows = []
            cols = []
            vals = []
            offsets = [0]
            for _ in range(n):
                row_cols = np.sort(
                    rng.choice(n, size=int(rng.integers(0, min(n, 6) + 1)), replace=False)
                )
                cols.extend(row_cols)
                vals.extend(rng.standard_normal(row_cols.size))
                offsets.append(len(cols))
            adj = SparseAdjacency(n, offsets, cols, vals)
            x = rng.standard_normal((n, 3))
            dense = adj.densify() @ x
            assert np.max(np.abs(spmm_value(adj, x) - dense)) <= 1e-12

    def test_dimension_mismatch(self):
        adj = SparseAdjacency(2, [0, 0, 0], [], [])
        with pytest.raises(ShapeError):
            spmm_value(adj, np.zeros((3, 1)))


class TestRowSoftmax:
    def test_symmetry(self):
        assert np.allclose(evaluate(row_softmax, [[0.0, 0.0]]), [[0.5, 0.5]])

    def test_stability(self):
        out = evaluate(row_softmax, [[1000.0, 1000.0]])
        assert np.allclose(out, [[0.5, 0.5]])
        assert np.isfinite(out).all()

    def test_closed_form(self):
        out = evaluate(row_softmax, [[0.0, np.log(3.0)]])
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = evaluate(row_softmax, rng.standard_normal((20, 7)) * 50)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-9

    def test_shift_invariance(self, rng):
        # |c| kept <= 1e3 so that x + c itself stays exact to ~1e-13; larger
        # shifts round the *input* away before softmax ever runs
        x = rng.standard_normal((8, 5))
        for c in (-7.5, 3.0, 1000.0):
            a = evaluate(row_softmax, x)
            b = evaluate(row_softmax, x + c)
            assert np.max(np.abs(a - b)) <= 1e-12


class TestL2Normalize:
    def test_hand_case(self):
        assert np.allclose(evaluate(l2_normalize_rows, [[3.0, 4.0]]), [[0.6, 0.8]])

    def test_zero_row_unchanged(self):
        assert np.array_equal(evaluate(l2_normalize_rows, [[0.0, 0.0]]), [[0.0, 0.0]])

    def test_already_unit(self):
        assert np.allclose(evaluate(l2_normalize_rows, [[1.0, 0.0]]), [[1.0, 0.0]])

    def test_unit_norms(self, rng):
        out = evaluate(l2_normalize_rows, rng.standard_normal((30, 6)))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-9

    def test_bad_eps(self):
        with pytest.raises(ContractError):
            evaluate(lambda t: l2_normalize_rows(t, eps=0.0), [[1.0]])


class TestBackward:
    def test_sum_of_squares(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        backward(tape, sum_all(mul(x, x)))
        assert np.allclose(x.grad, [[2.0, 4.0]])

    def test_constant_function(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        y = tape.leaf([[3.0]])
        backward(tape, sum_all(mul(y, y)))
        assert np.array_equal(x.grad, [[0.0, 0.0]])  # unreferenced leaf

    def test_dead_relu(self):
        tape = Tape()
        x = tape.leaf([[-1.0]])
        backward(tape, sum_all(relu(x)))
        assert np.array_equal(x.grad, [[0.0]])

    def test_non_scalar_output_rejected(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        with pytest.raises(ContractError):
            backward(tape, mul(x, x))

    def test_deterministic(self, rng):
        x0 = rng.standard_normal((4, 3))

        def run():
            tape = Tape()
            x = tape.leaf(x0)
            out = mean_all(mul(row_softmax(x), x))
            backward(tape, out)
            return x.grad.copy()

        assert np.array_equal(run(), run())

    def test_two_backward_runs_bit_identical(self, rng):
        tape = Tape()
        x = tape.leaf(rng.standard_normal((3, 3)))
        out = sum_all(exp(mul_scalar(x, 0.5)))
        backward(tape, out)
        g1 = x.grad.copy()
        backward(tape, out)
        assert np.array_equal(g1, x.grad)

    def test_dropped_tape_freed_without_cyclic_gc(self, rng):
        gc.disable()
        try:
            tape = Tape()
            x = tape.leaf(rng.standard_normal((3, 3)))
            out = sum_all(mul(x, x))
            backward(tape, out)
            dead = weakref.ref(tape)
            del tape
            assert dead() is None  # no reference cycle keeps it alive
            assert x.tape is None and np.array_equal(x.grad, 2.0 * x.value)
            with pytest.raises(ContractError):
                mul(x, x)  # recording onto a freed tape
        finally:
            gc.enable()


class TestConstants:
    def test_consumer_pulls_only_into_live_operands(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0]])
        value = np.array([[3.0, 4.0]])
        c = tape.constant(value)
        assert c.value is value  # recorded without a copy
        y = mul(x, c)
        assert [parent for parent, _ in tape._pulls[y.index]] == [x.index]
        backward(tape, sum_all(y))
        assert c.grad is None
        assert np.array_equal(x.grad, [[3.0, 4.0]])

    def test_op_over_constants_is_constant(self):
        tape = Tape()
        a = tape.constant(np.eye(2))
        w = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        x = tape.leaf([[1.0], [1.0]])
        h = matmul(a, w)
        assert tape._pulls[h.index] is None
        backward(tape, sum_all(matmul(h, x)))
        assert a.grad is None and w.grad is None and h.grad is None
        assert np.array_equal(x.grad, [[4.0], [6.0]])

    def test_constant_must_be_2d(self):
        with pytest.raises(ShapeError):
            Tape().constant(np.ones(3))


IDENTITY_2 = SparseAdjacency(2, [0, 1, 2], [0, 1], [1.0, 1.0])
# op and the shapes of its tensor operands
OPS = {
    "matmul": (matmul, [(2, 2), (2, 2)]),
    "add": (add, [(2, 2), (2, 2)]),
    "sub": (sub, [(2, 2), (2, 2)]),
    "mul": (mul, [(2, 2), (2, 2)]),
    "add_bias": (add_bias, [(2, 2), (1, 2)]),
    "concat_rows": (concat_rows, [(2, 2), (2, 2)]),
    "spmm": (lambda x: spmm(IDENTITY_2, x), [(2, 2)]),
    "row_softmax": (row_softmax, [(2, 2)]),
    "l2_normalize_rows": (l2_normalize_rows, [(2, 2)]),
    "neg": (neg, [(2, 2)]),
    "add_scalar": (lambda a: add_scalar(a, 1.0), [(2, 2)]),
    "mul_scalar": (lambda a: mul_scalar(a, 2.0), [(2, 2)]),
    "relu": (relu, [(2, 2)]),
    "exp": (exp, [(2, 2)]),
    "log": (log, [(2, 2)]),
    "log_clamped": (log_clamped, [(2, 2)]),
    "exp_sum_others": (lambda a: exp_sum_others(a, np.array([0, 1]), 1.0), [(2, 2)]),
    "exp_sum_others-all": (lambda a: exp_sum_others(a, None, 1.0), [(2, 2)]),
    "pow_scalar": (lambda a: pow_scalar(a, 2.0), [(2, 2)]),
    "row_sum": (row_sum, [(2, 2)]),
    "sum_all": (sum_all, [(2, 2)]),
    "mean_all": (mean_all, [(2, 2)]),
    "gather_rows": (lambda a: gather_rows(a, np.array([1, 0])), [(2, 2)]),
    "select_cols": (lambda a: select_cols(a, np.array([1, 0])), [(2, 2)]),
    "segment_sum": (lambda a: segment_sum(a, np.array([0, 0]), 1), [(2, 2)]),
}


@pytest.mark.parametrize("name", list(OPS))
def test_op_rejects_plain_operand(name):
    op, shapes = OPS[name]
    tape = Tape()
    assert op(*(tape.leaf(np.ones(shape)) for shape in shapes)).tape is tape
    for plain in range(len(shapes)):
        operands = [np.ones(shape) if i == plain else tape.leaf(np.ones(shape))
                    for i, shape in enumerate(shapes)]
        with pytest.raises(ContractError, match="expected a Tensor operand"):
            op(*operands)


class TestGradCheck:
    def test_sum_of_squares(self):
        err = grad_check(lambda x: sum_all(mul(x, x)), np.array([[1.0, 2.0]]), step=1e-4)
        assert err < 1e-6

    def test_linear_exact(self):
        c = np.array([[2.0, -3.0]])
        err = grad_check(
            lambda x: sum_all(mul(x, x.tape.constant(c))), np.array([[0.3, 0.7]]), step=1e-4
        )
        assert err < 1e-10

    def test_step_contract(self):
        with pytest.raises(ContractError):
            grad_check(lambda x: sum_all(x), np.array([[1.0]]), step=0.5)


ELEMENTWISE_CASES = [
    ("relu", relu, (0.2, 2.0)),
    ("exp", exp, (-1.0, 1.0)),
    ("log", log, (0.5, 2.0)),
    ("neg", neg, (-1.0, 1.0)),
    ("sqrt_inv", lambda t: pow_scalar(t, -0.5), (0.5, 2.0)),
    ("square", lambda t: pow_scalar(t, 2.0), (-1.0, 1.0)),
]


@pytest.mark.parametrize("name,op,box", ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
def test_elementwise_gradients(name, op, box, rng):
    x = rng.uniform(box[0], box[1], size=(3, 4))
    err = grad_check(lambda t: mean_all(op(t)), x)
    assert err <= 1e-6


def test_binary_and_structural_gradients(rng):
    a0 = rng.uniform(0.5, 1.5, size=(4, 3))
    b0 = rng.uniform(0.5, 1.5, size=(4, 3))
    cases = {
        "add": lambda a, b: mean_all(add(a, b)),
        "sub": lambda a, b: mean_all(sub(a, b)),
        "mul": lambda a, b: mean_all(mul(a, b)),
        "matmul": lambda a, b: mean_all(matmul(a, transposed(b))),
    }
    for name, f in cases.items():
        assert grad_check(f, [a0, b0]) <= 1e-6, name

    idx = np.array([0, 2, 2, 1])
    seg = np.array([1, 0, 1, 1])
    structural = {
        "gather": lambda a: mean_all(mul(gather_rows(a, idx), gather_rows(a, idx))),
        "select": lambda a: mean_all(select_cols(a, np.array([2, 0, 1, 1]))),
        "segsum": lambda a: mean_all(pow_scalar(segment_sum(a, seg, 2), 2.0)),
        "concat": lambda a: mean_all(mul_scalar(concat_rows(a, a), 0.5)),
        "rowsum": lambda a: mean_all(pow_scalar(row_sum(a), 2.0)),
        "bias": lambda a: mean_all(add_bias(a, a.tape.constant([[1.0, -1.0, 0.5]]))),
        "softmax": lambda a: mean_all(mul(row_softmax(a), a)),
        "l2norm": lambda a: mean_all(mul(l2_normalize_rows(a), a)),
        "logclamp": lambda a: mean_all(log_clamped(a)),
        "addsc": lambda a: mean_all(pow_scalar(add_scalar(a, 2.0), 2.0)),
    }
    for name, f in structural.items():
        assert grad_check(f, a0) <= 1e-6, name


def test_spmm_gradients_wrt_values_and_x(rng):
    # entries (0,1) (0,2) (1,2) (2,0) (2,2) in CSR order, values live
    structure = SparseAdjacency(3, [0, 2, 3, 5], [1, 2, 2, 0, 2], np.zeros(5))
    v0 = rng.uniform(0.2, 1.0, size=(5, 1))
    x0 = rng.standard_normal((3, 2))

    def f(v, x):
        y = spmm(structure.with_values(v), x)
        return mean_all(mul(y, y))

    assert grad_check(f, [v0, x0]) <= 1e-6


def test_spmm_gradient_wrt_dense(rng):
    adj = SparseAdjacency(3, [0, 2, 3, 4], [0, 2, 1, 0], [0.5, 1.0, -0.7, 0.3])

    def f(x):
        y = spmm(adj, x)
        return mean_all(mul(y, y))

    assert grad_check(f, rng.standard_normal((3, 2))) <= 1e-6


def scatter_spmm(adj, values, x):
    """The scatter-add product `spmm` used before its jagged-diagonal tables,
    kept as their bitwise oracle: entries added one at a time, in CSR order,
    into a zeroed output."""
    out = np.zeros((adj.n, x.shape[1]))
    np.add.at(out, adj.rows_expanded(), values * x[adj.col_indices])
    return out


def scatter_spmm_grad_x(adj, values, g):
    """The x-gradient of `scatter_spmm` by the same scatter-add."""
    gx = np.zeros((adj.n, g.shape[1]))
    np.add.at(gx, adj.col_indices, values * g[adj.rows_expanded()])
    return gx


def spmm_grad_values(adj, g, x):
    """The value gradient of `spmm` as one row-wise product of two nnz x h
    gathers, kept as the bitwise oracle of its chunked form."""
    return (g[adj.rows_expanded()] * x[adj.col_indices]).sum(axis=1, keepdims=True)


def csr(n, dense_pattern):
    """Canonical CSR structure of a boolean n x n pattern."""
    rows, cols = np.nonzero(dense_pattern)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return SparseAdjacency(n, offsets, cols, np.zeros(rows.size))


def random_pattern(rng, n, p):
    pattern = rng.random((n, n)) < p
    pattern[rng.choice(n, size=n // 4, replace=False)] = False  # empty rows
    return pattern


def hub_pattern(rng, n):
    pattern = rng.random((n, n)) < 3.0 / n
    pattern[0, 1:] = True  # row 0 has degree n-1
    return pattern


SPMM_STRUCTURES = {
    "random-with-empty-rows": lambda rng: csr(40, random_pattern(rng, 40, 0.2)),
    "random-dense": lambda rng: csr(17, random_pattern(rng, 17, 0.7)),
    "no-entries": lambda rng: csr(5, np.zeros((5, 5), dtype=bool)),
    "single-self-loop": lambda rng: csr(1, np.ones((1, 1), dtype=bool)),
    "not-symmetric": lambda rng: csr(4, np.array(
        [[0, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]], dtype=bool)),
    "hub-row": lambda rng: csr(60, hub_pattern(rng, 60)),
    "hub-column": lambda rng: csr(60, hub_pattern(rng, 60).T),
}


@pytest.mark.parametrize("live", [False, True], ids=["frozen", "live"])
@pytest.mark.parametrize("structure", list(SPMM_STRUCTURES))
def test_spmm_bitwise_equals_scatter_add(rng, structure, live):
    adj = SPMM_STRUCTURES[structure](rng)
    # magnitudes over 16 decades: any change of summation order shows
    values = rng.standard_normal((adj.nnz, 1)) * 10.0 ** rng.uniform(-8, 8, (adj.nnz, 1))
    x0 = rng.standard_normal((adj.n, 3)) * 10.0 ** rng.uniform(-8, 8, (adj.n, 3))
    g = rng.standard_normal((adj.n, 3))
    tape = Tape()
    x = tape.leaf(x0)
    v = tape.leaf(values) if live else values
    y = spmm(adj.with_values(v), x)
    backward(tape, sum_all(mul(y, tape.constant(g))))
    assert np.array_equal(y.value, scatter_spmm(adj, values, x0))
    assert np.array_equal(x.grad, scatter_spmm_grad_x(adj, values, g))
    assert np.array_equal(spmm_value(adj.with_values(values), x0), y.value)
    if live:
        assert np.array_equal(v.grad, spmm_grad_values(adj, g, x0))


@pytest.mark.parametrize("chunk", [1, 7, 10_000], ids=["chunk1", "chunk7", "one-chunk"])
def test_spmm_value_gradient_across_chunks(rng, monkeypatch, chunk):
    monkeypatch.setattr(numerics, "SPMM_GRAD_CHUNK_ENTRIES", chunk)
    adj = SPMM_STRUCTURES["hub-row"](rng)
    values = rng.standard_normal((adj.nnz, 1))
    x0 = rng.standard_normal((adj.n, 32)) * 10.0 ** rng.uniform(-8, 8, (adj.n, 32))
    g = rng.standard_normal((adj.n, 32))
    tape = Tape()
    v = tape.leaf(values)
    backward(tape, sum_all(mul(spmm(adj.with_values(v), tape.constant(x0)), tape.constant(g))))
    assert np.array_equal(v.grad, spmm_grad_values(adj, g, x0))


def test_with_values_shares_the_tables(monkeypatch, rng):
    adj = csr(30, random_pattern(rng, 30, 0.3))
    tables = (adj._by_row, adj._by_col)

    def rebuilt(*_):
        raise AssertionError("jagged-diagonal tables rebuilt")

    monkeypatch.setattr(numerics, "_JaggedDiagonals", rebuilt)
    tape = Tape()
    for values in (np.ones(adj.nnz), tape.leaf(np.ones((adj.nnz, 1)))):
        other = adj.with_values(values)
        assert other._by_row is tables[0] and other._by_col is tables[1]
        spmm(other, tape.constant(np.ones((30, 2))))


def test_hub_of_degree_n_minus_1_at_20k_nodes(rng):
    # a star plus a sparse random graph; the tables stay O(n + nnz) in size
    n = 20_000
    extra = rng.integers(0, n, size=(3 * n, 2))
    u = np.concatenate([np.zeros(n - 1, dtype=np.int64), extra[:, 0]])
    v = np.concatenate([np.arange(1, n), extra[:, 1]])
    ids = np.unique(np.concatenate([u * n + v, v * n + u]))
    rows, cols = ids // n, ids % n
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    values = rng.standard_normal(ids.size)
    adj = SparseAdjacency(n, offsets, cols, values)
    degree = int(np.diff(offsets).max())
    assert degree >= n - 1
    for table in (adj._by_row, adj._by_col):
        assert table.entries.size == table.sources.size == adj.nnz
        assert len(table.bounds) == degree + 1
    x0 = rng.standard_normal((n, 32))
    tape = Tape()
    x = tape.leaf(x0)
    y = spmm(adj, x)
    backward(tape, sum_all(y))
    assert np.array_equal(y.value, scatter_spmm(adj, values[:, None], x0))
    assert np.array_equal(x.grad, scatter_spmm_grad_x(adj, values[:, None], np.ones((n, 32))))


EXP_SUM_COLS = {
    "full": np.arange(7),
    "all": None,  # every node, each unordered pair computed once
    "batch-with-own-rows": np.array([5, 0, 3, 3]),  # rows 0, 3 and 5 leave out their own
    "batch-of-one": np.array([6]),  # row 6 has nothing left to sum
}


def dense_exp_others(a0, cols, scale):
    """The dense n x m matrix that `exp_sum_others` sums, self pairs zeroed."""
    idx = np.arange(a0.shape[0]) if cols is None else cols
    own = idx[None, :] == np.arange(a0.shape[0])[:, None]
    with np.errstate(over="ignore"):  # an overflowing self pair is zeroed
        return np.where(own, 0.0, np.exp(scale * a0 @ a0[idx].T))


def check_exp_sum_others(rng, a0, cols):
    """Gradient against finite differences, value against the dense sum."""
    weight = rng.uniform(0.5, 1.5, size=(a0.shape[0], 1))  # a different upstream gradient per row
    def f(a):
        return sum_all(mul(exp_sum_others(a, cols, 0.7), a.tape.constant(weight)))

    assert grad_check(f, a0) <= 1e-6
    value = numerics.evaluate(lambda a: exp_sum_others(a, cols, 0.7), a0)
    dense = dense_exp_others(a0, cols, 0.7).sum(axis=1, keepdims=True)
    assert np.allclose(value, dense, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("block", [1, 3, 7, 12], ids=["block1", "block3", "block-n", "block-n+5"])
@pytest.mark.parametrize("cols", list(EXP_SUM_COLS))
def test_exp_sum_others_gradient(rng, monkeypatch, cols, block):
    monkeypatch.setattr(numerics, "EXP_SUM_BLOCK_ROWS", block)
    check_exp_sum_others(rng, rng.standard_normal((7, 3)), EXP_SUM_COLS[cols])


@pytest.mark.parametrize("n", [1, 4, 5], ids=["one-node", "n=block", "n=block+1"])
def test_exp_sum_others_all_nodes_at_block_edges(rng, monkeypatch, n):
    monkeypatch.setattr(numerics, "EXP_SUM_BLOCK_ROWS", 4)
    a0 = rng.standard_normal((n, 3))
    check_exp_sum_others(rng, a0, None)
    if n == 1:
        tape = Tape()
        a = tape.leaf(a0)
        out = exp_sum_others(a, None, 0.7)
        backward(tape, sum_all(out))
        assert out.value[0, 0] == 0.0 and np.array_equal(a.grad, np.zeros((1, 3)))


@pytest.mark.parametrize("cols", ["all", "full"])
def test_exp_sum_others_self_overflow_stays_finite(rng, monkeypatch, cols):
    # unit rows at 1/tau = 800: every exp(800 * a_i . a_i) overflows, the
    # off-diagonal pairs (cosines below 709 / 800) do not
    monkeypatch.setattr(numerics, "EXP_SUM_BLOCK_ROWS", 3)
    n, scale = 7, 800.0
    a0 = rng.standard_normal((n, 8))
    a0 /= np.linalg.norm(a0, axis=1, keepdims=True)
    cos = a0 @ a0.T
    assert np.max(cos[~np.eye(n, dtype=bool)]) < 709.0 / scale
    idx = EXP_SUM_COLS[cols]
    tape = Tape()
    a = tape.leaf(a0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        out = exp_sum_others(a, idx, scale)
    with pytest.warns(RuntimeWarning, match="overflow"):
        backward(tape, sum_all(out))
    e = dense_exp_others(a0, idx, scale)
    assert np.all(np.isfinite(e))
    assert np.allclose(out.value, e.sum(axis=1, keepdims=True), rtol=1e-12, atol=0.0)
    dense_grad = 2.0 * scale * (e @ a0)  # upstream gradient 1, E symmetric
    assert np.all(np.isfinite(a.grad))
    assert np.allclose(a.grad, dense_grad, rtol=1e-12, atol=0.0)


def test_exp_sum_others_rejects_bad_columns():
    tape = Tape()
    a = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ContractError):
        exp_sum_others(a, np.array([0, 3]), 1.0)
    with pytest.raises(ShapeError):
        exp_sum_others(a, np.array([[0, 1]]), 1.0)


def test_log_clamped_gradient_zero_on_clamped_entries():
    # an exact zero would divide by zero if the clamped region were divided too
    x0 = np.array([[0.0, 1e-13, 0.5], [2.0, 1e-12, 3.0]])
    g0 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    tape = Tape()
    x = tape.leaf(x0)
    backward(tape, sum_all(mul(log_clamped(x), tape.constant(g0))))
    live = x0 > 1e-12
    assert np.array_equal(x.grad[~live], np.zeros(3))
    assert np.array_equal(x.grad[live], g0[live] / x0[live])


def test_composite_losses_pass_grad_check_at_random_points(rng):
    # ten random non-degenerate points through a softmax/normalize/log stack
    w = rng.standard_normal((4, 3))
    for _ in range(10):
        x = rng.standard_normal((5, 4)) + 0.1

        def f(t):
            z = l2_normalize_rows(relu(matmul(t, t.tape.constant(w))))
            p = row_softmax(matmul(z, transposed(z)))
            return neg(mean_all(log_clamped(p)))

        assert grad_check(f, x, step=1e-4) <= 1e-4


class TestSparseAdjacencyValidation:
    def test_bad_offsets(self):
        with pytest.raises(ContractError):
            SparseAdjacency(2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_column_out_of_range(self):
        with pytest.raises(ContractError):
            SparseAdjacency(2, [0, 1, 2], [0, 2], [1.0, 1.0])

    def test_duplicate_column_rejected(self):
        with pytest.raises(ContractError):
            SparseAdjacency(2, [0, 2, 2], [1, 1], [1.0, 1.0])

    def test_densify_round_trip(self):
        adj = SparseAdjacency(3, [0, 1, 3, 4], [1, 0, 2, 1], [1.0, 2.0, 3.0, 4.0])
        d = adj.densify()
        assert d[0, 1] == 1.0 and d[1, 0] == 2.0 and d[1, 2] == 3.0 and d[2, 1] == 4.0
