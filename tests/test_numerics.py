import gc
import inspect
import weakref

import numpy as np
import pytest

from graphsfda import numerics
from graphsfda.errors import ContractError, ShapeError
from graphsfda.graph_store import AdjacencyLayout, ShiftSpec, make_shift_pair
from graphsfda.numerics import (
    SparseAdjacency,
    Tape,
    _tape_of,
    add,
    add_bias,
    add_scalar,
    backward,
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
    relu,
    row_dots,
    row_softmax,
    row_sum,
    select_cols,
    spmm,
    spmm_matmul,
    sub,
    sum_all,
    sym_norm_values,
)

from conftest import densify, traced_kept, traced_peak, transposed


# The normalization written as a chain of generic tape ops,
# `chain_normalized_values`, is the bitwise oracle of `sym_norm_values`; the
# package needs none of these three ops, so they live here.


def pow_scalar(a, p: float):
    tape = _tape_of(a)
    av = a.value
    return tape._record(av ** p, [(a.index, lambda g: g * p * av ** (p - 1.0))])


def segment_sum(a, segment_ids, num_segments: int):
    """Sum rows of an mxk tensor into `num_segments` buckets."""
    tape = _tape_of(a)
    av = a.value
    seg = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments, av.shape[1]))
    np.add.at(out, seg, av)
    return tape._record(out, [(a.index, lambda g: g[seg])])


def concat_rows(a, b):
    tape = _tape_of(a, b)
    av, bv = a.value, b.value
    na = av.shape[0]
    return tape._record(
        np.concatenate([av, bv], axis=0), [(a.index, lambda g: g[:na]), (b.index, lambda g: g[na:])]
    )


def chain_normalized_values(w, edge_u, edge_v, n):
    """The normalized adjacency's entries, one per edge and then one per
    node, recorded as a chain of ten generic ops."""
    nodes = np.arange(n)
    terms = concat_rows(w.tape.constant(np.ones((n, 1))), concat_rows(w, w))
    deg = segment_sum(terms, np.concatenate([nodes, edge_u, edge_v]), n)
    s = pow_scalar(deg, -0.5)
    per_edge = mul(mul(w, gather_rows(s, edge_u)), gather_rows(s, edge_v))
    per_diag = mul(s, s)
    return concat_rows(per_edge, per_diag)


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
        adj = SparseAdjacency(3, []).with_values(np.zeros(3))
        out = spmm_value(adj, [[1.0], [2.0], [3.0]])
        assert np.array_equal(out, np.zeros((3, 1)))

    def test_identity_pattern(self):
        adj = SparseAdjacency(2, [])  # A + I without edges, unit values
        x = [[5.0, 1.0], [2.0, 3.0]]
        assert np.array_equal(spmm_value(adj, x), x)

    def test_path_graph(self):
        # unweighted 3-node path, zero on the diagonal
        adj = SparseAdjacency(3, [(0, 1), (1, 2)]).with_values([1.0, 1.0, 0.0, 0.0, 0.0])
        out = spmm_value(adj, [[1.0], [2.0], [3.0]])
        assert np.array_equal(out, [[2.0], [4.0], [2.0]])

    def test_matches_densified_matmul(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 51))
            adj = random_structure(rng, n, rng.uniform(0.0, 0.3))
            adj = adj.with_values(rng.standard_normal(value_count(adj)))
            x = rng.standard_normal((n, 3))
            dense = densify(adj) @ x
            assert np.max(np.abs(spmm_value(adj, x) - dense)) <= 1e-12

    def test_dimension_mismatch(self):
        adj = SparseAdjacency(2, [])
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

    def test_bitwise_equals_plain_formula(self, rng):
        # the adaptation steps normalized with this formula before they
        # called l2_normalize_rows; zero rows, rows with norm below 1e-12
        # and rows whose squares overflow included
        def plain(x):
            norm = np.linalg.norm(x, axis=1, keepdims=True)
            return x / np.where(norm < 1e-12, 1.0, norm)

        for _ in range(20):
            x = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-320, 300, (40, 1))
            x[0] = 0.0
            x[1] = rng.standard_normal(5) * 1e-14
            x[2] = rng.standard_normal(5) * 1e200
            with np.errstate(over="ignore"):
                out, expected = evaluate(l2_normalize_rows, x), plain(x)
                assert np.linalg.norm(x[1]) < 1e-12 and np.isinf(np.linalg.norm(x[2]))
            assert out.tobytes() == expected.tobytes()


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

    def test_second_sweep_raises(self, rng):
        # a sweep consumes its tape: it cannot be swept again or extended,
        # and the leaf keeps the gradient of the one sweep
        tape = Tape()
        x = tape.leaf(rng.standard_normal((3, 3)))
        out = sum_all(exp(mul_scalar(x, 0.5)))
        backward(tape, out)
        g1 = x.grad.copy()
        with pytest.raises(ContractError, match="swept"):
            backward(tape, out)
        for record in (lambda: mul(x, x), lambda: tape.constant(np.ones((1, 1))),
                       lambda: tape.leaf(np.ones((1, 1)))):
            with pytest.raises(ContractError, match="swept"):
                record()
        assert np.array_equal(g1, x.grad) and tape.nodes == [x]

    def test_sweep_frees_what_only_a_pull_read(self, rng):
        # exp's pull reads its output; once the sweep has passed the outer
        # exp, its output is freed before the inner exp's pull runs, and the
        # inner one's once the sweep ends, while the tape is still held
        tape = Tape()
        x = tape.leaf(rng.standard_normal((3, 2)))
        inner = exp(x)
        outer = exp(inner)
        refs = [weakref.ref(inner.value), weakref.ref(outer.value)]
        k, out = inner.index, sum_all(outer)
        del inner, outer
        assert all(ref() is not None for ref in refs)  # only the pulls read them
        seen = []

        def probe(g, vjp=tape._pulls[k][0][1]):
            seen.append(refs[1]() is None)  # the outer exp's output
            return vjp(g)

        tape._pulls[k] = [(x.index, probe)]
        del probe  # the tape's pull is then the one reference
        backward(tape, out)
        assert seen == [True]
        assert all(ref() is None for ref in refs)
        assert np.allclose(x.grad, np.exp(x.value + np.exp(x.value)))

    def test_sweep_holds_only_its_frontier(self):
        # a chain of K live ops: the sweep drops each op's gradient once it
        # has pulled it into its operand, so it never holds K of them
        k, c, shape = 20, 2.0, (2000, 64)
        tape = Tape()
        x = tape.leaf(np.ones(shape))
        chain = [x]
        for _ in range(k):
            chain.append(mul_scalar(chain[-1], c))
        out = sum_all(chain[-1])
        _, peak = traced_peak(lambda: backward(tape, out))
        assert peak < 4 * x.value.nbytes
        assert all(t.grad is None for t in chain[1:] + [out])
        assert np.array_equal(x.grad, np.full(shape, c**k))

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


IDENTITY_2 = SparseAdjacency(2, [])
# op and the shapes of its tensor operands
OPS = {
    "matmul": (matmul, [(2, 2), (2, 2)]),
    "add": (add, [(2, 2), (2, 2)]),
    "sub": (sub, [(2, 2), (2, 2)]),
    "mul": (mul, [(2, 2), (2, 2)]),
    "add_bias": (add_bias, [(2, 2), (1, 2)]),
    "concat_rows": (concat_rows, [(2, 2), (2, 2)]),
    "spmm": (lambda x: spmm(IDENTITY_2, x), [(2, 2)]),
    "spmm_matmul": (lambda x, w: spmm_matmul(IDENTITY_2, x, w), [(2, 2), (2, 3)]),
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
    "row_dots": (lambda a: row_dots(a, np.ones((3, 2)), np.array([2, 0])), [(2, 2)]),
    "row_sum": (row_sum, [(2, 2)]),
    "sum_all": (sum_all, [(2, 2)]),
    "mean_all": (mean_all, [(2, 2)]),
    "gather_rows": (lambda a: gather_rows(a, np.array([1, 0])), [(2, 2)]),
    "select_cols": (lambda a: select_cols(a, np.array([1, 0])), [(2, 2)]),
    "segment_sum": (lambda a: segment_sum(a, np.array([0, 0]), 1), [(2, 2)]),
    "sym_norm_values": (lambda w: sym_norm_values(w, np.array([0]), np.array([1]), 2), [(1, 1)]),
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


def test_every_tape_op_has_a_row():
    # every public function of numerics that records an op is in OPS
    recorders = {
        name
        for name, f in vars(numerics).items()
        if inspect.isfunction(f) and f.__module__ == numerics.__name__
        and not name.startswith("_") and {"_tape_of", "_record"} <= set(f.__code__.co_names)
    }
    assert recorders and recorders <= {name.split("-")[0] for name in OPS}


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
    # edges (0,1) (0,2) then the three diagonals, values live
    structure = SparseAdjacency(3, [(0, 1), (0, 2)])
    v0 = rng.uniform(0.2, 1.0, size=(5, 1))
    x0 = rng.standard_normal((3, 2))

    def f(v, x):
        y = spmm(structure.with_values(v), x)
        return mean_all(mul(y, y))

    assert grad_check(f, [v0, x0]) <= 1e-6


def test_spmm_gradient_wrt_dense(rng):
    adj = SparseAdjacency(3, [(0, 2), (1, 2)]).with_values([0.5, 1.0, -0.7, 0.3, 0.0])

    def f(x):
        y = spmm(adj, x)
        return mean_all(mul(y, y))

    assert grad_check(f, rng.standard_normal((3, 2))) <= 1e-6


@pytest.mark.parametrize("seed, nodes_per_class", [(0, 100), (1, 200), (2, 400)])
def test_sym_norm_values_bitwise_equals_the_chain(rng, seed, nodes_per_class):
    # a ShiftSpec target with a quarter of its edges at weight 0 and one
    # more node, which no edge meets
    _, g = make_shift_pair(ShiftSpec(nodes_per_class=nodes_per_class, edge_noise=0.3, seed=seed))
    n, e = g.n + 1, g.num_edges
    u, v = g.edges[:, 0], g.edges[:, 1]
    w0 = rng.uniform(0.0, 1.0, (e, 1)) * (rng.random((e, 1)) >= 0.25)
    upstream = spread_values(rng, (e + n, 1))
    results = []
    for op in (sym_norm_values, chain_normalized_values):
        tape = Tape()
        w = tape.leaf(w0)
        out = op(w, u, v, n)
        backward(tape, sum_all(mul(out, tape.constant(upstream))))
        results.append((out.value, w.grad))
    (values, grad), (chain_values, chain_grad) = results
    assert np.array_equal(values, chain_values)
    assert np.array_equal(grad, chain_grad)
    assert np.array_equal(np.signbit(grad), np.signbit(chain_grad))
    assert values[-1, 0] == 1.0  # the isolated node keeps its unit self-loop


def test_sym_norm_values_gradient(rng):
    edges = random_edges(rng, 12, 0.3, isolated=2)
    u, v = edges[:, 0], edges[:, 1]
    c = rng.standard_normal((len(edges) + 12, 1))

    def f(w):
        return sum_all(mul(sym_norm_values(w, u, v, 12), w.tape.constant(c)))

    assert grad_check(f, rng.uniform(0.2, 1.0, (len(edges), 1))) <= 1e-6
    with pytest.raises(ShapeError, match="weights for"):
        evaluate(lambda w: sym_norm_values(w, u, v, 12), np.ones((len(edges) + 1, 1)))


def csr_order(adj):
    """The permutation that puts `adj`'s slots in CSR order, by row and then
    column, whatever order the structure stores them in."""
    return np.lexsort((adj.col_indices, adj.rows))


def scatter_spmm(adj, values, x):
    """The scatter-add product `spmm` used before its jagged-diagonal tables,
    kept as their bitwise oracle: entries added one at a time, in CSR order,
    into a zeroed output."""
    csr = csr_order(adj)
    out = np.zeros((adj.n, x.shape[1]))
    np.add.at(out, adj.rows[csr], values[csr] * x[adj.col_indices[csr]])
    return out


def scatter_spmm_grad_x(adj, values, g):
    """The x-gradient of `scatter_spmm` by the same scatter-add over the
    slots in CSR order, so each column adds its terms in row order."""
    csr = csr_order(adj)
    gx = np.zeros((adj.n, g.shape[1]))
    np.add.at(gx, adj.col_indices[csr], values[csr] * g[adj.rows[csr]])
    return gx


def spmm_grad_values(adj, g, x):
    """The value gradient of `spmm` as one row-wise product of two nnz x h
    gathers, kept as the bitwise oracle of its chunked form."""
    return (g[adj.rows] * x[adj.col_indices]).sum(axis=1, keepdims=True)


def value_count(adj):
    """e + n: how many values `with_values` takes, one per edge, one per node."""
    return (adj.nnz + adj.n) // 2


def column_grad(adj, g, x):
    """The gradient of `spmm` into the column `with_values` took: each
    value's gradient sums those of the slots it fills."""
    out = np.zeros((value_count(adj), 1))
    np.add.at(out, adj.entry_source, spmm_grad_values(adj, g, x))
    return out


def spread_values(rng, shape):
    """Magnitudes over 16 decades: any change of summation order shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


def unique_edges(u, v):
    """The distinct undirected edges among the pairs (u, v), self-loops dropped."""
    pairs = np.sort(np.stack([u, v], axis=1), axis=1)
    return np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0).reshape(-1, 2)


def random_edges(rng, n, p, isolated=0):
    """Each node pair an edge with probability p; the first `isolated`
    nodes of a random order keep none."""
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < p
    lonely = rng.permutation(n)[:isolated]
    keep &= ~(np.isin(u, lonely) | np.isin(v, lonely))
    return unique_edges(u[keep], v[keep])


def random_structure(rng, n, p, isolated=0):
    return SparseAdjacency(n, random_edges(rng, n, p, isolated))


def hub_edges(rng, n):
    """Node 0 joined to every other node, plus about 1.5 n random edges."""
    extra = rng.integers(0, n, size=(3 * n // 2, 2))
    u = np.concatenate([np.zeros(n - 1, dtype=np.int64), extra[:, 0]])
    v = np.concatenate([np.arange(1, n), extra[:, 1]])
    return unique_edges(u, v)


def windowed_edges(rng, n=5000):
    """About 1.5 n random edges over n nodes (n a multiple of none of the
    tested windows), with 300 isolated nodes. One node of degree 40 sits in
    the first default window, one of degree 90 in the second, and a hub
    joined to every other non-isolated node in the last, so each window has
    its own longest row."""
    hubs = {100: 40, 3000: 90, n - 2: n}
    lonely = rng.choice(np.setdiff1d(np.arange(n), list(hubs)), size=300, replace=False)
    pairs = rng.integers(0, n, size=(3 * n // 2, 2))
    spokes = [
        np.stack([np.full(d, h), rng.choice(n, size=d, replace=False)], axis=1)
        for h, d in hubs.items()
    ]
    pairs = np.concatenate([pairs, *spokes])
    pairs = pairs[~np.isin(pairs, lonely).any(axis=1)]
    return unique_edges(pairs[:, 0], pairs[:, 1])


SPMM_STRUCTURES = {
    # an isolated node's row holds its diagonal slot alone
    "random-with-empty-rows": lambda rng: random_structure(rng, 40, 0.2, isolated=10),
    "random-dense": lambda rng: random_structure(rng, 17, 0.7),
    "no-entries": lambda rng: SparseAdjacency(5, []),  # diagonal slots only
    "single-self-loop": lambda rng: SparseAdjacency(1, []),
    "hub-row": lambda rng: SparseAdjacency(60, hub_edges(rng, 60)),
    "several-windows": lambda rng: SparseAdjacency(5000, windowed_edges(rng)),
}


def normalized_random(rng):
    """The normalized adjacency the program builds: a random graph with
    isolated nodes and about 30% zero edge weights."""
    edges = random_edges(rng, 40, 0.2, isolated=10)
    weights = rng.uniform(0.1, 1.0, len(edges)) * (rng.random(len(edges)) >= 0.3)
    return AdjacencyLayout(40, edges), weights


def normalized_hub(rng):
    edges = hub_edges(rng, 60)
    return AdjacencyLayout(60, edges), rng.uniform(0.0, 1.0, len(edges))


# built by `AdjacencyLayout.normalized`, live on the edge weights' tape
NORMALIZED_STRUCTURES = {"normalized-random": normalized_random, "normalized-hub": normalized_hub}


# each structure at the default JDS_WINDOW_ROWS (None) and at windows of 1,
# 3 and 7 rows, which cut even the small structures into several windows
WINDOWED_STRUCTURES = [
    (structure, window)
    for structure in [*SPMM_STRUCTURES, *NORMALIZED_STRUCTURES]
    for window in (None, 1, 3, 7)
]


@pytest.mark.parametrize("live", [False, True], ids=["frozen", "live"])
@pytest.mark.parametrize(
    "structure, window",
    WINDOWED_STRUCTURES,
    ids=[s if w is None else f"{s}-window{w}" for s, w in WINDOWED_STRUCTURES],
)
def test_spmm_bitwise_equals_scatter_add(rng, monkeypatch, structure, window, live):
    if window is not None:  # the table takes its window when it is built
        monkeypatch.setattr(numerics, "JDS_WINDOW_ROWS", window)
    if structure in SPMM_STRUCTURES:
        adj = SPMM_STRUCTURES[structure](rng)
        make, v0 = adj.with_values, spread_values(rng, (value_count(adj), 1))
    else:
        layout, weights = NORMALIZED_STRUCTURES[structure](rng)
        make, v0 = layout.normalized, weights.reshape(-1, 1)
    tape = Tape()
    v = tape.leaf(v0) if live else v0
    adj = make(v)
    values = adj.values.value if live else adj.values  # one per slot
    x0 = spread_values(rng, (adj.n, 3))
    g = rng.standard_normal((adj.n, 3))
    x = tape.leaf(x0)
    y = spmm(adj, x)
    backward(tape, sum_all(mul(y, tape.constant(g))))
    assert np.array_equal(y.value, scatter_spmm(adj, values, x0))
    assert np.array_equal(x.grad, scatter_spmm_grad_x(adj, values, g))
    assert np.array_equal(spmm_value(make(v0), x0), y.value)
    if live and structure in SPMM_STRUCTURES:
        assert np.array_equal(v.grad, column_grad(adj, g, x0))


@pytest.mark.parametrize("chunk", [1, 7, 10_000], ids=["chunk1", "chunk7", "one-chunk"])
def test_spmm_value_gradient_across_chunks(rng, monkeypatch, chunk):
    # the value gradient walks a window's worth of slots at a time
    monkeypatch.setattr(numerics, "JDS_WINDOW_ROWS", chunk)
    adj = SPMM_STRUCTURES["hub-row"](rng)
    values = rng.standard_normal((value_count(adj), 1))
    x0 = spread_values(rng, (adj.n, 32))
    g = rng.standard_normal((adj.n, 32))
    tape = Tape()
    v = tape.leaf(values)
    backward(tape, sum_all(mul(spmm(adj.with_values(v), tape.constant(x0)), tape.constant(g))))
    assert np.array_equal(v.grad, column_grad(adj, g, x0))


def test_with_values_shares_the_tables(rng):
    # every copy carries new values on the same table arrays and windows
    adj = random_structure(rng, 30, 0.3)
    tape = Tape()
    for values in (np.ones(value_count(adj)), tape.leaf(np.ones((value_count(adj), 1)))):
        other = adj.with_values(values)
        for name in ("rows", "col_indices", "entry_source", "inverse", "windows"):
            assert getattr(other, name) is getattr(adj, name), name
        assert other.window_rows == adj.window_rows
        spmm(other, tape.constant(np.ones((30, 2))))


def loop_structure(n, edges, window):
    """(rows, col_indices, entry_source, inverse, windows) of A + I in the
    table order `SparseAdjacency` stores, built row by row in Python: each
    row's slots sorted by column, each window's rows ranked by decreasing
    slot count (ties by row), diagonal k the k-th slot of every ranked row
    longer than k, and each group the longest run of consecutive diagonals
    of at most `window` slots."""
    e = len(edges)
    by_row = [[(i, e + i)] for i in range(n)]  # (column, source), diagonal first
    for j, (a, b) in enumerate(edges.tolist()):
        by_row[a].append((b, j))
        by_row[b].append((a, j))
    for row in by_row:
        row.sort()
    rows, cols, source, inverse, windows = [], [], [], [0] * n, []
    for first in range(0, n, window):
        end = min(first + window, n)
        ranked = sorted(range(first, end), key=lambda i: -len(by_row[i]))
        for rank, i in enumerate(ranked):
            inverse[i] = rank
        lo, lengths = len(rows), []
        for k in range(len(by_row[ranked[0]])):
            longer = [i for i in ranked if len(by_row[i]) > k]
            lengths.append(len(longer))
            for i in longer:
                rows.append(i)
                cols.append(by_row[i][k][0])
                source.append(by_row[i][k][1])
        groups = []
        while lengths:
            take = 1
            while take < len(lengths) and sum(lengths[: take + 1]) <= window:
                take += 1
            groups.append((lo, lo + sum(lengths[:take]), lengths[:take]))
            lo, lengths = lo + sum(lengths[:take]), lengths[take:]
        windows.append((first, end, groups))
    return rows, cols, source, inverse, windows


def shuffled(rng, edges):
    """`edges` in a random order, each pair flipped with probability 1/2."""
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges


CSR_GRAPHS = {
    "random-with-isolated": lambda rng: (40, random_edges(rng, 40, 0.2, isolated=10)),
    "random-dense": lambda rng: (17, random_edges(rng, 17, 0.7)),
    "hub-degree-n-minus-1": lambda rng: (60, hub_edges(rng, 60)),
    "no-edges": lambda rng: (5, np.zeros((0, 2), dtype=np.int64)),
    "one-node": lambda rng: (1, np.zeros((0, 2), dtype=np.int64)),
}


@pytest.mark.parametrize("graph", list(CSR_GRAPHS))
def test_csr_order_is_lexsort_order(rng, monkeypatch, graph):
    # the stored table, whose rows each keep their slots in CSR order,
    # against `loop_structure`, at the default window and at windows of 1,
    # 3 and 7 rows
    for window in (numerics.JDS_WINDOW_ROWS, 1, 3, 7):
        monkeypatch.setattr(numerics, "JDS_WINDOW_ROWS", window)
        for _ in range(5):
            n, edges = CSR_GRAPHS[graph](rng)
            edges = shuffled(rng, edges)
            adj = SparseAdjacency(n, edges)
            rows, cols, source, inverse, windows = loop_structure(n, edges, window)
            assert np.array_equal(adj.rows, rows)
            assert np.array_equal(adj.col_indices, cols)
            assert np.array_equal(adj.entry_source, source)
            assert np.array_equal(adj.inverse, inverse)
            assert adj.windows == windows
            assert adj.window_rows == window


def test_hub_of_degree_n_minus_1_at_20k_nodes(rng):
    # a star plus a sparse random graph; the table stays O(n + nnz) in size
    n = 20_000
    adj = SparseAdjacency(n, hub_edges(rng, n))
    adj = adj.with_values(rng.standard_normal(value_count(adj)))
    values = adj.values
    lengths = np.bincount(adj.rows, minlength=n)
    degree = int(lengths.max())
    assert degree == n  # the hub's n - 1 edges and its diagonal
    # the table is linear in n + nnz: a window has as many diagonals as its
    # longest row (the hub's, n, in the first), and no gather holds more
    # than a window's rows
    size = numerics.JDS_WINDOW_ROWS
    assert adj.rows.size == adj.entry_source.size == adj.values.size == adj.nnz
    assert [(first, end) for first, end, _ in adj.windows] == [
        (lo, min(lo + size, n)) for lo in range(0, n, size)
    ]
    diagonals = [sum(len(counts) for *_, counts in groups) for *_, groups in adj.windows]
    assert diagonals == [int(lengths[lo : lo + size].max()) for lo in range(0, n, size)]
    assert diagonals[0] == degree
    gathers = [(lo, hi) for *_, groups in adj.windows for lo, hi, _ in groups]
    assert max(hi - lo for lo, hi in gathers) <= size
    assert [lo for lo, _ in gathers[1:]] == [hi for _, hi in gathers[:-1]]
    assert gathers[0][0] == 0 and gathers[-1][1] == adj.nnz
    x0 = rng.standard_normal((n, 32))
    tape = Tape()
    x = tape.leaf(x0)
    y = spmm(adj, x)
    backward(tape, sum_all(y))
    assert np.array_equal(y.value, scatter_spmm(adj, values, x0))
    assert np.array_equal(x.grad, scatter_spmm_grad_x(adj, values, np.ones((n, 32))))


def test_spmm_holds_two_n_by_h_arrays_and_a_window(rng):
    # x and the product's result are the two n x h arrays; the product
    # allocates the result, a window's sums and one group's gather. It reads
    # the values in table order, so no array has a row per stored slot.
    # Besides them, NumPy's ufunc buffer for the broadcast multiply
    # (`np.getbufsize()` elements) and the op's few Python objects.
    n, h = 20_000, 32
    adj = SparseAdjacency(n, unique_edges(*rng.integers(0, n, size=(2, 3 * n))))
    adj = adj.with_values(rng.uniform(0.1, 1.0, value_count(adj)))
    x0 = rng.standard_normal((n, h))
    tape = Tape()
    x = tape.constant(x0)
    y, peak = traced_peak(lambda: spmm(adj, x))
    floats = n * h + 2 * numerics.JDS_WINDOW_ROWS * h + np.getbufsize()
    assert peak < 8 * floats + 16_384
    assert np.array_equal(y.value, scatter_spmm(adj, adj.values, x0))


# the operands of `spmm_matmul` that a grad check differentiates: each alone,
# the others tape constants, and all three at once
SPMM_MATMUL_LIVE = [("values",), ("x",), ("w",), ("values", "x", "w")]


@pytest.mark.parametrize("live", SPMM_MATMUL_LIVE, ids="+".join)
def test_spmm_matmul_gradients(rng, live):
    structure = SparseAdjacency(4, [(0, 1), (0, 2), (2, 3)])
    points = {
        "values": rng.uniform(0.2, 1.0, (7, 1)),
        "x": rng.standard_normal((4, 2)),
        "w": rng.standard_normal((2, 3)),
    }

    def f(*leaves):
        tape = leaves[0].tape
        given = dict(zip(live, leaves))
        v, x, w = (
            given[k] if k in given else tape.constant(points[k]) for k in ("values", "x", "w")
        )
        y = spmm_matmul(structure.with_values(v), x, w)
        return mean_all(mul(y, y))

    assert grad_check(f, [points[k] for k in live]) <= 1e-6


@pytest.mark.parametrize(
    "structure, window",
    WINDOWED_STRUCTURES,
    ids=[s if w is None else f"{s}-window{w}" for s, w in WINDOWED_STRUCTURES],
)
def test_spmm_matmul_bitwise_equals_the_chain(rng, monkeypatch, structure, window):
    # value and all three gradients are those of matmul(spmm(adj, x), w),
    # though the op keeps no adj @ x for the pull into w
    if window is not None:
        monkeypatch.setattr(numerics, "JDS_WINDOW_ROWS", window)
    if structure in SPMM_STRUCTURES:
        adj = SPMM_STRUCTURES[structure](rng)
        make, v0 = adj.with_values, spread_values(rng, (value_count(adj), 1))
    else:
        layout, weights = NORMALIZED_STRUCTURES[structure](rng)
        make, v0 = layout.normalized, weights.reshape(-1, 1)
    n = make(v0).n
    x0, w0, g = spread_values(rng, (n, 3)), spread_values(rng, (3, 5)), spread_values(rng, (n, 5))
    results = []
    for op in (spmm_matmul, lambda adj, x, w: matmul(spmm(adj, x), w)):
        tape = Tape()
        v, x, w = tape.leaf(v0), tape.leaf(x0), tape.leaf(w0)
        out = op(make(v), x, w)
        backward(tape, sum_all(mul(out, tape.constant(g))))
        results.append([out.value, v.grad, x.grad, w.grad])
    for fused, chain in zip(*results):
        assert fused.tobytes() == chain.tobytes()


def test_spmm_matmul_keeps_no_product(rng):
    # the tape keeps the operands and the caller the n x h result; the chain
    # matmul(spmm(adj, x), w) also keeps adj @ x, n x d, for the pull into w
    n, d, h = 20_000, 16, 32
    adj = SparseAdjacency(n, unique_edges(*rng.integers(0, n, size=(2, 3 * n))))
    adj = adj.with_values(rng.uniform(0.1, 1.0, value_count(adj)))
    tape = Tape()
    x = tape.constant(rng.standard_normal((n, d)))
    w = tape.leaf(rng.standard_normal((d, h)))
    y, kept = traced_kept(lambda: spmm_matmul(adj, x, w))
    assert kept < 8 * n * h + 16_384
    backward(tape, sum_all(y))
    assert np.array_equal(w.grad, spmm_value(adj, x.value).T @ np.ones((n, h)))


def test_spmm_matmul_shape_errors():
    adj = SparseAdjacency(2, [])
    tape = Tape()
    with pytest.raises(ShapeError, match="adjacency is 2x2"):
        spmm_matmul(adj, tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((2, 2))))
    with pytest.raises(ShapeError, match="x has 2 columns, w has 3 rows"):
        spmm_matmul(adj, tape.leaf(np.ones((2, 2))), tape.leaf(np.ones((3, 2))))


def test_structure_keeps_four_words_per_slot(rng):
    # rows, col_indices, entry_source and the unit values, each one word
    # per slot in table order, beside the n ranks of `inverse` and the
    # windows' groups: no second copy of the slots in another order
    n = 20_000
    edges = unique_edges(*rng.integers(0, n, size=(2, 3 * n)))
    adj, kept = traced_kept(lambda: SparseAdjacency(n, edges))
    assert kept <= 8 * (4 * adj.nnz + 2 * n)


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


def test_row_dots_gradient(rng):
    table = rng.standard_normal((4, 3))
    idx = np.array([3, 0, 0, 2, 1])

    def f(a):
        d = row_dots(a, table, idx)
        return mean_all(mul(d, d))

    assert grad_check(f, rng.standard_normal((5, 3))) <= 1e-6


@pytest.mark.parametrize("n", [1, numerics.ROW_DOTS_CHUNK_ROWS, numerics.ROW_DOTS_CHUNK_ROWS + 1])
def test_row_dots_bitwise_equals_the_chain(rng, n):
    # the chain it replaces: a gathered constant, a product and a row sum
    h, m = 37, 5  # past NumPy's 8-wide unrolled sums
    a0 = spread_values(rng, (n, h))
    table = spread_values(rng, (m, h))
    idx = rng.integers(0, m, n)
    upstream = spread_values(rng, (n, 1))
    chain = lambda a: row_sum(mul(a, a.tape.constant(table[idx])))
    results = []
    for op in (lambda a: row_dots(a, table, idx), chain):
        tape = Tape()
        a = tape.leaf(a0)
        out = op(a)
        backward(tape, sum_all(mul(out, tape.constant(upstream))))
        results.append((out.value, a.grad))
    (values, grad), (chain_values, chain_grad) = results
    assert values.tobytes() == chain_values.tobytes()
    assert grad.tobytes() == chain_grad.tobytes()


def test_row_dots_rejects_bad_rows():
    tape = Tape()
    a = tape.leaf(np.ones((3, 2)))
    for bad in ([0, 1, 4], [0, -1, 1]):
        with pytest.raises(ContractError, match="row id"):
            row_dots(a, np.ones((4, 2)), np.array(bad))
    with pytest.raises(ShapeError):
        row_dots(a, np.ones((4, 2)), np.array([0, 1]))
    with pytest.raises(ShapeError):
        row_dots(a, np.ones((4, 3)), np.array([0, 1, 2]))


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
    def test_column_out_of_range(self):
        for edge in [(0, 2), (-1, 1)]:
            with pytest.raises(ContractError, match="endpoint"):
                SparseAdjacency(2, [edge])

    def test_values_one_per_edge_and_node(self):
        # 1 edge and 3 nodes take 4 values; 5 is the slot count
        adj = SparseAdjacency(3, [(0, 1)])
        with pytest.raises(ShapeError, match="expected 4 values"):
            adj.with_values(np.ones(5))
        with pytest.raises(ShapeError, match="expected 4 values"):
            adj.with_values(Tape().leaf(np.ones((3, 1))))

    def test_densify_round_trip(self):
        adj = SparseAdjacency(3, [(0, 1), (1, 2)]).with_values([1.0, 2.0, 3.0, 4.0, 5.0])
        d = densify(adj)
        assert d[0, 1] == d[1, 0] == 1.0 and d[1, 2] == d[2, 1] == 2.0
        assert np.array_equal(np.diag(d), [3.0, 4.0, 5.0])
