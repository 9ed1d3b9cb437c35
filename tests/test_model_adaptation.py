import numpy as np
import pytest

from graphsfda import numerics
from graphsfda.banks import MemoryBanks, init_banks
from graphsfda.errors import ContractError
from graphsfda.gnn import init_model, record_forward
from graphsfda.graph_adaptation import ConfidentSet, loss_graph
from graphsfda.graph_store import AdjacencyLayout
from graphsfda.model_adaptation import (
    compute_prototypes,
    confidence_weights,
    loss_instance_prototype,
    loss_model,
    loss_weighted_ce,
    neighborhood_pseudo_labels,
)
from graphsfda.numerics import (
    Tape,
    Tensor,
    add,
    backward,
    evaluate,
    exp,
    gather_rows,
    l2_normalize_rows,
    log,
    matmul,
    mul,
    mul_scalar,
    row_sum,
    select_cols,
    sub,
    sum_all,
)

from conftest import adjacency, random_graph, traced_kept, traced_peak, transposed


def banks_with(pred, repr_=None):
    pred = np.asarray(pred, dtype=np.float64)
    if repr_ is None:
        repr_ = np.zeros((pred.shape[0], 2))
    return MemoryBanks(np.asarray(repr_, dtype=np.float64), pred, 0.9)


def neighbor_matrix(n, edges):
    """0/1 neighbour matrix of the n-node graph with these undirected edges."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return AdjacencyLayout(n, pairs).neighbors(np.ones(len(pairs)))


def loop_pseudo_labels(lists, banks):
    """The per-node loop the sparse product replaced, kept as an oracle."""
    agg = np.empty_like(banks.pred_bank)
    for i, ns in enumerate(lists):
        agg[i] = banks.pred_bank[ns].mean(axis=0) if len(ns) else banks.pred_bank[i]
    return np.argmax(agg, axis=1)


class TestPseudoLabels:
    def test_single_neighbor(self):
        banks = banks_with([[0.5, 0.5], [0.2, 0.8]])
        pl = neighborhood_pseudo_labels(neighbor_matrix(2, [(0, 1)]), banks)
        assert pl[0] == 1

    def test_two_neighbor_mean(self):
        banks = banks_with([[0.4, 0.6], [0.9, 0.1], [0.2, 0.8]])
        pl = neighborhood_pseudo_labels(neighbor_matrix(3, [(0, 1), (0, 2)]), banks)
        # mean of [0.9,0.1] and [0.2,0.8] is [0.55,0.45]; node 0's own row says class 1
        assert pl[0] == 0

    def test_isolated_falls_back_to_own_row(self):
        banks = banks_with([[0.1, 0.9]])
        pl = neighborhood_pseudo_labels(neighbor_matrix(1, []), banks)
        assert pl[0] == 1

    def test_tie_breaks_low(self):
        banks = banks_with([[0.5, 0.5]])
        pl = neighborhood_pseudo_labels(neighbor_matrix(1, []), banks)
        assert pl[0] == 0

    def test_matches_per_node_loop(self, rng):
        # random graph with masked edges, an isolated node and tie-prone banks
        for _ in range(5):
            g = random_graph(rng, 60, 1, 4, edge_p=0.1)
            keep = (g.edges != 0).all(axis=1)  # node 0 loses every edge
            keep &= rng.random(g.num_edges) >= 0.3
            pred = rng.dirichlet(np.ones(4), size=g.n)
            halves = np.eye(4)[rng.integers(4, size=(2, g.n))]
            pred[::7] = 0.5 * (halves[0] + halves[1])[::7]  # exact ties in the means
            banks = banks_with(pred)
            lists = [[] for _ in range(g.n)]
            for (u, v), kept in zip(g.edges.tolist(), keep):
                if kept:
                    lists[u].append(v)
                    lists[v].append(u)
            lists = [np.array(sorted(ns), dtype=np.int64) for ns in lists]
            assert lists[0].size == 0
            layout = AdjacencyLayout(g.n, g.edges)
            pl = neighborhood_pseudo_labels(layout.neighbors(keep.astype(np.float64)), banks)
            assert np.array_equal(pl, loop_pseudo_labels(lists, banks))

    def test_onehot_shape(self):
        banks = banks_with([[0.1, 0.2, 0.7], [0.6, 0.3, 0.1]])
        pl = neighborhood_pseudo_labels(neighbor_matrix(2, []), banks)
        assert pl.dtype == np.int64 and np.array_equal(pl, [2, 0])
        assert compute_prototypes(pl, banks).shape[0] == 3


class TestPrototypes:
    def test_singleton(self):
        banks = banks_with([[1.0, 0.0]], repr_=[[3.0, 4.0]])
        protos = compute_prototypes(np.array([0]), banks)
        assert np.array_equal(protos[0], [3.0, 4.0])

    def test_mean_of_two(self):
        banks = banks_with([[1, 0], [1, 0]], repr_=[[1.0, 0.0], [0.0, 1.0]])
        protos = compute_prototypes(np.array([0, 0]), banks)
        assert np.allclose(protos[0], [0.5, 0.5])

    def test_empty_class_flagged_zero(self):
        banks = banks_with([[1, 0]], repr_=[[2.0, 2.0]])
        protos = compute_prototypes(np.array([0]), banks)
        assert np.array_equal(protos[1], [0.0, 0.0])

    def test_order_invariance(self, rng):
        repr_ = rng.standard_normal((10, 4))
        cls = rng.integers(0, 3, 10)
        banks = MemoryBanks(repr_, np.full((10, 3), 1 / 3), 0.9)
        protos = compute_prototypes(cls, banks)
        perm = rng.permutation(10)
        banks_p = MemoryBanks(repr_[perm], np.full((10, 3), 1 / 3), 0.9)
        protos_p = compute_prototypes(cls[perm], banks_p)
        assert np.allclose(protos, protos_p, atol=1e-12)


class TestConfidenceWeights:
    def test_self_similarity(self):
        protos = np.array([[1.0, 2.0]])
        w = evaluate(lambda z: confidence_weights(z, protos, np.array([0])), [[1.0, 2.0]])
        assert np.allclose(w, [[1.0]])

    def test_orthogonal(self):
        protos = np.array([[0.0, 1.0]])
        w = evaluate(lambda z: confidence_weights(z, protos, np.array([0])), [[1.0, 0.0]])
        assert np.allclose(w, [[0.0]])

    def test_hand_cosine(self):
        protos = np.array([[1.0, 1.0]])
        w = evaluate(lambda z: confidence_weights(z, protos, np.array([0])), [[1.0, 0.0]])
        assert np.allclose(w, [[1.0 / np.sqrt(2.0)]])

    def test_negative_cosine_clamped(self):
        protos = np.array([[-1.0, 0.0]])
        w = evaluate(lambda z: confidence_weights(z, protos, np.array([0])), [[1.0, 0.0]])
        assert np.array_equal(w, [[0.0]])

    def test_zero_norm_gives_zero(self):
        protos = np.array([[0.0, 0.0]])
        w = evaluate(lambda z: confidence_weights(z, protos, np.array([0])), [[1.0, 1.0]])
        assert np.array_equal(w, [[0.0]])

    def test_scale_invariance(self, rng):
        z = rng.standard_normal((6, 3))
        protos = rng.standard_normal((2, 3))
        pl = rng.integers(0, 2, 6)
        w1 = evaluate(lambda t: confidence_weights(t, protos, pl), z)
        w2 = evaluate(lambda t: confidence_weights(t, protos, pl), 7.3 * z)
        assert np.allclose(w1, w2, atol=1e-12)


def weighted_ce(p, pl, w):
    """The loss on plain probabilities and an (n x 1) weight column."""
    return evaluate(lambda t, wt: loss_weighted_ce(t, pl, wt), p, w)[0, 0]


class TestWeightedCE:
    def test_perfect_prediction(self):
        p = [[1.0, 0.0]]
        assert weighted_ce(p, np.array([0]), np.array([[1.0]])) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_binary(self):
        p = [[0.5, 0.5]]
        out = weighted_ce(p, np.array([0]), np.array([[1.0]]))
        assert out == pytest.approx(np.log(2.0), abs=1e-12)

    def test_zero_weights_zero_loss(self, rng):
        p = rng.dirichlet(np.ones(3), 5)
        out = weighted_ce(p, rng.integers(0, 3, 5), np.zeros((5, 1)))
        assert out == 0.0

    def test_nonnegative(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4), 6)
            w = rng.uniform(0, 1, (6, 1))
            pl = rng.integers(0, 4, 6)
            assert weighted_ce(p, pl, w) >= 0.0


def instance_prototype(z, protos, pl, tau, **kwargs):
    """The contrast on plain representations."""
    return evaluate(lambda t: loss_instance_prototype(t, protos, pl, tau, **kwargs), z)[0, 0]


class TestInstancePrototypeLoss:
    def two_class_protos(self):
        return np.array([[1.0, 0.0], [0.0, 1.0]])

    def test_single_node_closed_form(self):
        z = [[1.0, 0.0]]
        out = instance_prototype(z, self.two_class_protos(), np.array([0]), 0.2)
        assert out == pytest.approx(-5.0, abs=1e-9)

    def test_huge_temperature_limit(self):
        z = [[1.0, 0.0]]
        out = instance_prototype(z, self.two_class_protos(), np.array([0]), 1e9)
        assert out == pytest.approx(0.0, abs=1e-6)

    def test_better_alignment_lowers_loss(self):
        pl = np.array([0])
        aligned = instance_prototype([[1.0, 0.0]], self.two_class_protos(), pl, 0.5)
        misaligned = instance_prototype([[0.7, 0.7]], self.two_class_protos(), pl, 0.5)
        assert aligned < misaligned

    def test_batch_restriction_matches_full_on_all_indices(self, rng):
        z = rng.standard_normal((5, 3))
        protos = rng.standard_normal((2, 3))
        pl = rng.integers(0, 2, 5)
        full = instance_prototype(z, protos, pl, 0.3)
        batched = instance_prototype(z, protos, pl, 0.3, batch_indices=np.arange(5))
        assert full == pytest.approx(batched, abs=1e-12)

    def test_bad_temperature(self):
        with pytest.raises(ContractError):
            loss_instance_prototype(
                np.array([[1.0, 0.0]]),
                self.two_class_protos(),
                np.array([0]),
                0.0,
            )


def dense_instance_prototype_oracle(z, protos, pl, tau, batch_indices=None):
    """The contrast as it was before `exp_sum_others`: the whole n x n (or
    n x batch) exponential matrix on the tape, the self terms subtracted
    (full) or masked out (batch). Kept as the reference of the streamed op."""
    n = pl.size
    inv_tau = 1.0 / tau
    const = z.tape.constant
    zn = l2_normalize_rows(z)
    proto_sims = matmul(zn, const(evaluate(l2_normalize_rows, protos).T.copy()))
    pos = select_cols(proto_sims, pl)
    pos_exp = exp(mul_scalar(pos, inv_tau))
    proto_sum = sub(row_sum(exp(mul_scalar(proto_sims, inv_tau))), pos_exp)
    if batch_indices is None:
        inst_exp = exp(mul_scalar(matmul(zn, transposed(zn)), inv_tau))
        inst_sum = sub(row_sum(inst_exp), select_cols(inst_exp, np.arange(n)))
    else:
        batch = np.asarray(batch_indices, dtype=np.int64)
        others = exp(mul_scalar(matmul(zn, transposed(gather_rows(zn, batch))), inv_tau))
        not_self = (batch[None, :] != np.arange(n)[:, None]).astype(np.float64)
        inst_sum = row_sum(mul(others, const(not_self)))
    per_node = sub(mul_scalar(pos, inv_tau), log(add(proto_sum, inst_sum)))
    return mul_scalar(sum_all(per_node), -1.0 / n)


def value_and_grad(f, z0):
    tape = Tape()
    z = tape.leaf(z0)
    out = f(z)
    backward(tape, out)
    return out.value[0, 0], z.grad


class TestStreamedContrastMatchesDense:
    @pytest.mark.parametrize("block", [1, 3, None], ids=["block1", "block3", "module-block"])
    @pytest.mark.parametrize("batch", ["full", "batch"])
    def test_value_and_gradient(self, rng, monkeypatch, block, batch):
        if block is not None:
            monkeypatch.setattr(numerics, "EXP_SUM_BLOCK_ROWS", block)
        n = 300
        z0 = rng.standard_normal((n, 8))
        protos = rng.standard_normal((3, 8))
        pl = rng.integers(0, 3, n)
        # the batch holds some rows' own index and not others'
        cols = None if batch == "full" else rng.choice(n, size=40, replace=False)
        streamed, g_streamed = value_and_grad(
            lambda z: loss_instance_prototype(z, protos, pl, 0.2, batch_indices=cols), z0
        )
        dense, g_dense = value_and_grad(
            lambda z: dense_instance_prototype_oracle(z, protos, pl, 0.2, cols), z0
        )
        assert abs(streamed - dense) <= 1e-12 * abs(dense)
        assert np.max(np.abs(g_streamed - g_dense)) <= 1e-12 * np.max(np.abs(g_dense))


def test_contrast_memory_below_one_dense_matrix(rng):
    n, h, c = 2000, 32, 3
    z0 = rng.standard_normal((n, h))
    pl = rng.integers(0, c, n)
    protos = rng.standard_normal((c, h))
    tape = Tape()
    z = tape.leaf(z0)
    _, peak = traced_peak(lambda: backward(tape, loss_instance_prototype(z, protos, pl, 0.2)))
    assert np.all(np.isfinite(z.grad)) and peak < n * n * 8  # one dense n x n float64 array


def model_step_inputs():
    """The adjacency, neighbour matrix, model and features of a model step at
    n = 4000, h = 32 over a 2-layer model, with the rng that drew them."""
    n, d, h, c = 4000, 16, 32, 3
    rng = np.random.default_rng(0)
    ring = np.arange(n)
    pairs = np.concatenate(
        [np.stack([ring, (ring + 1) % n], axis=1), rng.integers(0, n, (3 * n, 2))]
    )
    edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    layout = AdjacencyLayout(n, edges)
    ones = np.ones(len(edges))
    model = init_model(d, h, c, 2, seed=0)
    return layout.normalized(ones), layout.neighbors(ones), model, rng.standard_normal((n, d)), rng


def record_model_loss(adj, neighbors, model, x, rng):
    """(tape, parameter leaves, model loss) of a model step with a sampled
    contrast batch, as on large graphs."""
    tape, params, z, p = record_forward(model, adj, x)
    banks = init_banks(z.value, p.value, 0.9)
    pl = neighborhood_pseudo_labels(neighbors, banks)
    protos = compute_prototypes(pl, banks)
    batch = rng.choice(banks.n, size=256, replace=False)
    l_ce = loss_weighted_ce(p, pl, confidence_weights(z, protos, pl))
    l_co = loss_instance_prototype(z, protos, pl, 0.2, batch_indices=batch)
    return tape, params, loss_model(l_ce, l_co, 0.2)


def n_by_h(x, model):
    """The bytes of one n x h float64 array."""
    return x.shape[0] * model.hidden_dim * 8


def test_model_loss_backward_holds_only_its_frontier():
    # the sweep holds about 4 n x h arrays at its peak; keeping every node's
    # gradient held about 12
    adj, neighbors, model, x, rng = model_step_inputs()
    tape, params, l_m = record_model_loss(adj, neighbors, model, x, rng)
    _, peak = traced_peak(lambda: backward(tape, l_m))
    assert all(np.all(np.isfinite(t.grad)) for t in params)
    assert peak < 6 * n_by_h(x, model)


def test_tape_keeps_only_what_backward_reads():
    # the tape holds its leaves, and an op output lives while a pull reads
    # it: a recorded pass keeps about 2.4 n x h arrays and the model step
    # about 6.9 before its sweep, where a tape that held every op output
    # kept about 6.6 and 12.6
    adj, neighbors, model, x, rng = model_step_inputs()
    nh = n_by_h(x, model)
    recorded, kept = traced_kept(lambda: record_forward(model, adj, x))
    assert kept <= 3 * nh
    del recorded
    (tape, params, l_m), kept = traced_kept(
        lambda: record_model_loss(adj, neighbors, model, x, rng)
    )
    assert kept <= 8 * nh
    backward(tape, l_m)
    assert all(np.all(np.isfinite(t.grad)) for t in params)


def mixed(l_ce, l_co, lam):
    """The model loss of two plain scalars."""
    return evaluate(lambda a, b: loss_model(a, b, lam), [[l_ce]], [[l_co]])[0, 0]


class TestLossModel:
    def test_endpoints(self):
        assert mixed(1.25, -3.0, 0.0) == 1.25
        assert mixed(1.25, -3.0, 1.0) == -3.0

    def test_mix(self):
        assert mixed(1.0, 0.5, 0.2) == pytest.approx(0.9, abs=1e-12)

    def test_lambda_range(self):
        with pytest.raises(ContractError):
            loss_model(1.0, 1.0, 1.5)

    def test_tensor_endpoints_exact(self):
        tape = Tape()
        a = tape.leaf([[1.25]])
        b = tape.leaf([[-3.0]])
        assert loss_model(a, b, 0.0).value[0, 0] == 1.25
        assert loss_model(a, b, 1.0).value[0, 0] == -3.0


def test_losses_are_tensor_only(rng):
    """Every loss records onto its operands' tape and refuses plain values."""
    z0 = rng.standard_normal((4, 3))
    p0 = rng.dirichlet(np.ones(2), 4)
    pl = np.array([0, 1, 0, 1])
    protos = rng.standard_normal((2, 3))
    banks = MemoryBanks(rng.standard_normal((4, 3)), rng.dirichlet(np.ones(2), 4), 0.9)
    conf = ConfidentSet(np.array([0, 2]), np.array([0, 0]))
    positives = np.array([[1], [2], [3], [0]])
    losses = {
        "confidence_weights": (lambda z: confidence_weights(z, protos, pl), [z0]),
        "loss_weighted_ce": (lambda p, w: loss_weighted_ce(p, pl, w), [p0, np.ones((4, 1))]),
        "loss_instance_prototype": (lambda z: loss_instance_prototype(z, protos, pl, 0.2), [z0]),
        "loss_model": (lambda a, b: loss_model(a, b, 0.3), [[[1.0]], [[2.0]]]),
        "loss_graph": (lambda p, z: loss_graph(p, z, banks, conf, positives, 0.5, 0.5), [p0, z0]),
    }
    for name, (f, values) in losses.items():
        tape = Tape()
        out = f(*(tape.leaf(v) for v in values))
        assert isinstance(out, Tensor) and out.tape is tape, name
        with pytest.raises(ContractError):
            f(*(np.asarray(v, dtype=np.float64) for v in values))


def test_model_loss_gradients_on_random_instance(rng):
    # end-to-end L_M gradient fidelity on a small random instance
    from graphsfda.gnn import forward, forward_on_tape, init_model
    from graphsfda.numerics import grad_check
    from conftest import random_graph

    g = random_graph(rng, 20, 4, 3, edge_p=0.25)
    model = init_model(4, 5, 3, 2, seed=6)
    adj = adjacency(g)
    z0, p0 = forward(model, adj, g.features)
    banks = MemoryBanks(z0.copy(), p0.copy(), 0.9)
    from graphsfda.graph_store import AdjacencyLayout

    pl = neighborhood_pseudo_labels(
        AdjacencyLayout(g.n, g.edges).neighbors(np.ones(g.num_edges)), banks
    )
    protos = compute_prototypes(pl, banks)

    def f(*params):
        tape = params[0].tape
        z, p = forward_on_tape(list(params), adj, tape.constant(g.features))
        w = confidence_weights(z, protos, pl)
        l_ce = loss_weighted_ce(p, pl, w)
        l_co = loss_instance_prototype(z, protos, pl, 0.2)
        return loss_model(l_ce, l_co, 0.2)

    err = grad_check(f, [w.copy() for w in model.parameters()], step=1e-4)
    assert err <= 1e-4
