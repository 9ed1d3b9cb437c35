import tracemalloc

import numpy as np
import pytest

from graphsfda import graph_adaptation
from graphsfda.banks import MemoryBanks
from graphsfda.errors import ContractError
from graphsfda.gnn import forward, forward_on_tape, init_model
from graphsfda.graph_adaptation import (
    AdaptationDeltas,
    ConfidentSet,
    apply_feature_delta,
    apply_structure_delta,
    feature_gd_step,
    finalize_structure,
    knn_positives,
    loss_graph,
    pgd_step_structure,
    project_budget,
    select_confident,
)
from graphsfda.graph_store import AdjacencyLayout, TargetGraph, normalize_adjacency
from graphsfda.numerics import (
    Tape,
    Tensor,
    add,
    backward,
    evaluate,
    gather_rows,
    grad_check,
    l2_normalize_rows,
    log_clamped,
    matmul,
    mean_all,
    mul,
    mul_scalar,
    neg,
    row_softmax,
    select_cols,
    sum_all,
)

from conftest import random_graph


def grid_project_oracle(v, budget, step=1e-6):
    """Grid search on the shift multiplier, refined down to `step`.

    The clipped sum is nonincreasing in the multiplier, so a coarse pass
    brackets the crossing and a dense pass at the target resolution finishes;
    this visits the same minimizer the full dense grid would.
    """
    v = np.asarray(v, dtype=np.float64)
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    hi = float(v.max())
    coarse = np.linspace(0.0, hi, 2001)
    sums = np.clip(v[None, :] - coarse[:, None], 0.0, 1.0).sum(axis=1)
    idx = int(np.searchsorted(-(sums - budget), 0.0))
    lo_b = coarse[max(idx - 1, 0)]
    hi_b = coarse[min(idx, coarse.size - 1)]
    fine = np.arange(lo_b, hi_b + step, step)
    sums = np.clip(v[None, :] - fine[:, None], 0.0, 1.0).sum(axis=1)
    gamma = fine[int(np.argmin(np.abs(sums - budget)))]
    return np.clip(v - gamma, 0.0, 1.0)


def unit_rows(x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms < 1e-12, 1.0, norms)


def argsort_knn_oracle(z, banks, k):
    """Stable descending sort of the whole n x n similarity matrix."""
    sims = unit_rows(z) @ unit_rows(banks.repr_bank).T
    np.fill_diagonal(sims, -np.inf)
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


def tie_heavy_rows(rng, n, h=6):
    """Rows with four entries of +-1 and the rest 0: they normalize to +-0.5
    exactly, so every cosine is exact whatever the product's summation
    order, and many of them tie."""
    signs = rng.choice([-1.0, 1.0], size=(n, h))
    support = np.argsort(rng.random((n, h)), axis=1) < 4
    return signs * support


def pair_mask(shape, per_node_indices):
    mask = np.zeros(shape)
    for i, idx in enumerate(per_node_indices):
        mask[i, np.asarray(idx, dtype=np.int64)] = 1.0
    return mask


def label_negatives(p, banks: MemoryBanks, positives: np.ndarray) -> list:
    """Bank indices whose banked argmax disagrees with the node's own live
    argmax, minus that node's positives: the negative set `loss_graph`
    never enumerates, spelled out as an oracle."""
    pv = np.asarray(p, dtype=np.float64)
    own = np.argmax(pv, axis=1)
    banked = np.argmax(banks.pred_bank, axis=1)
    out = []
    for i in range(pv.shape[0]):
        mism = np.nonzero(banked != own[i])[0]
        out.append(np.setdiff1d(mism, positives[i], assume_unique=False))
    return out


def dense_loss_graph_oracle(p, z, banks, conf, positives, alpha, beta):
    """The graph loss as written: cosine matrix times 0/1 pair masks, with
    the negatives enumerated by `label_negatives`."""
    shape = (z.value.shape[0], banks.n)
    negatives = label_negatives(p.value, banks, positives)
    const = z.tape.constant
    sims = matmul(l2_normalize_rows(z), const(unit_rows(banks.repr_bank).T.copy()))
    pos_sum = sum_all(mul(sims, const(pair_mask(shape, positives))))
    neg_sum = sum_all(mul(sims, const(pair_mask(shape, negatives))))
    total = add(mul_scalar(pos_sum, -alpha), mul_scalar(neg_sum, beta))
    if len(conf):
        picked = select_cols(gather_rows(p, conf.node_ids), conf.labels)
        total = add(neg(mean_all(log_clamped(picked))), total)
    return total


class TestDeltas:
    def test_box_violation(self):
        with pytest.raises(ContractError):
            AdaptationDeltas(np.zeros((2, 2)), np.array([1.2]), 5.0)

    def test_budget_violation(self):
        with pytest.raises(ContractError):
            AdaptationDeltas(np.zeros((2, 2)), np.array([0.9, 0.9]), 1.0)

    def test_zeros_feasible(self):
        d = AdaptationDeltas.zeros(3, 2, 4, 0.0)
        assert d.delta_a.sum() == 0.0


class TestApplyFeatureDelta:
    def test_zero_delta_identity(self, rng):
        x = rng.standard_normal((3, 2))
        d = AdaptationDeltas.zeros(3, 2, 0, 1.0)
        assert np.array_equal(evaluate(apply_feature_delta, x, d.delta_x), x)

    def test_hand_case(self):
        x = np.array([[1.0, 2.0]])
        d = AdaptationDeltas(np.array([[-1.0, 0.0]]), np.zeros(0), 1.0)
        assert np.array_equal(evaluate(apply_feature_delta, x, d.delta_x), [[0.0, 2.0]])

    def test_full_masking(self, rng):
        x = rng.standard_normal((4, 3))
        d = AdaptationDeltas(-x, np.zeros(0), 1.0)
        assert np.array_equal(evaluate(apply_feature_delta, x, d.delta_x), np.zeros((4, 3)))


class TestApplyStructureDelta:
    def graph(self):
        return TargetGraph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), None, 1)

    def test_semantics(self):
        g = self.graph()
        d = AdaptationDeltas(np.zeros((3, 1)), np.array([0.0, 1.0]), 2.0)
        assert np.allclose(apply_structure_delta(g, d), [1.0, 0.0])
        d2 = AdaptationDeltas(np.zeros((3, 1)), np.array([0.3, 0.0]), 2.0)
        assert np.allclose(apply_structure_delta(g, d2), [0.7, 1.0])

    def test_alignment_checked(self):
        g = self.graph()
        with pytest.raises(ContractError):
            apply_structure_delta(g, AdaptationDeltas(np.zeros((3, 1)), np.array([0.5]), 2.0))


class TestSelectConfident:
    def test_examples(self):
        p = np.array([[0.95, 0.05], [0.6, 0.4], [0.5, 0.5]])
        conf = select_confident(p, 0.9)
        assert list(conf.node_ids) == [0]
        assert list(conf.labels) == [0]

    def test_uniform_rows_empty(self):
        conf = select_confident(np.array([[0.5, 0.5]]), 0.9)
        assert len(conf) == 0

    def test_monotone_in_threshold(self, rng):
        p = rng.dirichlet(np.ones(3), size=50)
        sizes = [len(select_confident(p, w)) for w in (0.4, 0.6, 0.8, 0.95)]
        assert sizes == sorted(sizes, reverse=True)

    def test_threshold_range(self):
        with pytest.raises(ContractError):
            select_confident(np.array([[1.0]]), 1.0)


class TestKnnPositives:
    def test_exact_duplicate_found(self):
        banks = MemoryBanks(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.full((3, 2), 0.5), 0.9)
        z = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        out = knn_positives(z, banks, 1)
        assert out[0, 0] == 2  # the duplicate of row 0, self excluded

    def test_tie_resolves_to_lowest_index(self):
        banks = MemoryBanks(np.eye(3), np.full((3, 3), 1 / 3), 0.9)
        z = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        out = knn_positives(z, banks, 1)
        assert out[0, 0] == 1  # cos ties between banks 0 and 1; 0 is self

    def test_k_bounds(self):
        banks = MemoryBanks(np.eye(2), np.full((2, 2), 0.5), 0.9)
        with pytest.raises(ContractError):
            knn_positives(np.eye(2), banks, 2)

    def test_self_never_included(self, rng):
        n = 10
        banks = MemoryBanks(rng.standard_normal((n, 4)), np.full((n, 2), 0.5), 0.9)
        out = knn_positives(banks.repr_bank, banks, 3)
        for i in range(n):
            assert i not in out[i]

    @pytest.mark.parametrize(
        "n, block, k, ties",
        [
            (53, 8, 5, False),  # last block partial
            (64, 16, 3, False),  # blocks tile the rows exactly
            (53, 8, 5, True),
            (200, 7, 4, True),
            (41, 1, 40, True),  # one row per block, every other row kept
            (401, None, 5, True),  # the module's own block size
        ],
    )
    def test_blocked_equals_full_stable_argsort(self, rng, monkeypatch, n, block, k, ties):
        if block is not None:
            monkeypatch.setattr(graph_adaptation, "KNN_BLOCK_ROWS", block)
        assert graph_adaptation.KNN_BLOCK_ROWS < n
        make = tie_heavy_rows if ties else (lambda rng, n: rng.standard_normal((n, 6)))
        z, bank = make(rng, n), make(rng, n)
        banks = MemoryBanks(bank, np.full((n, 2), 0.5), 0.9)
        expected = argsort_knn_oracle(z, banks, k)
        assert np.array_equal(knn_positives(z, banks, k), expected)
        if ties and k < n - 1:  # the tie rule decides the k-th place somewhere
            sims = unit_rows(z) @ unit_rows(bank).T
            np.fill_diagonal(sims, -np.inf)
            ranked = -np.sort(-sims, axis=1)
            assert np.any(ranked[:, k - 1] == ranked[:, k])


class TestLabelNegatives:
    def test_no_disagreement_empty(self):
        banks = MemoryBanks(np.eye(2), np.array([[0.9, 0.1], [0.8, 0.2]]), 0.9)
        p = np.array([[0.7, 0.3], [0.6, 0.4]])
        negs = label_negatives(p, banks, np.array([[1], [0]]))
        assert all(len(x) == 0 for x in negs)

    def test_enumeration(self):
        banks = MemoryBanks(np.eye(3), np.array([[0.9, 0.1], [0.1, 0.9], [0.2, 0.8]]), 0.9)
        p = np.array([[0.9, 0.1], [0.9, 0.1], [0.9, 0.1]])
        negs = label_negatives(p, banks, np.array([[2], [2], [1]]))
        # bank argmaxes (0,1,1); node argmaxes all 0 -> disagree {1,2} minus positives
        assert list(negs[0]) == [1]
        assert list(negs[1]) == [1]
        assert list(negs[2]) == [2]

    def test_positive_exclusion(self):
        banks = MemoryBanks(np.eye(2), np.array([[0.9, 0.1], [0.1, 0.9]]), 0.9)
        p = np.array([[0.9, 0.1], [0.9, 0.1]])
        negs = label_negatives(p, banks, np.array([[1], [1]]))
        assert list(negs[0]) == []  # bank 1 disagrees but is a positive
        assert all(1 not in set(negs[i]) for i in range(2))


def graph_loss(p, z, banks, conf, positives, alpha, beta):
    """The graph loss of plain probabilities and representations."""
    return evaluate(
        lambda pt, zt: loss_graph(pt, zt, banks, conf, positives, alpha, beta), p, z
    )[0, 0]


class TestLossGraph:
    def test_pure_ce_zero_for_perfect(self):
        banks = MemoryBanks(np.eye(2), np.eye(2), 0.9)
        p = [[1.0, 0.0], [0.0, 1.0]]
        z = [[1.0, 0.0], [0.0, 1.0]]
        conf = ConfidentSet(np.array([0, 1]), np.array([0, 1]))
        positives = np.zeros((2, 0), dtype=int)
        assert graph_loss(p, z, banks, conf, positives, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_single_positive_cosine(self):
        banks = MemoryBanks(np.array([[0.0, 1.0], [2.0, 0.0]]), np.eye(2), 0.9)
        z = [[3.0, 0.0]]  # cos with bank row 1 is exactly 1
        conf = ConfidentSet(np.array([], dtype=int), np.array([], dtype=int))
        positives = np.array([[1]])
        out = graph_loss([[0.5, 0.5]], z, banks, conf, positives, 1.0, 0.0)
        assert out == pytest.approx(-1.0, abs=1e-12)

    def test_negative_term_sign(self):
        banks = MemoryBanks(np.array([[0.0, 1.0], [2.0, 0.0]]), np.eye(2), 0.9)
        z = [[3.0, 0.0]]
        conf = ConfidentSet(np.array([], dtype=int), np.array([], dtype=int))
        positives = np.zeros((1, 0), dtype=int)
        out = graph_loss([[0.5, 0.5]], z, banks, conf, positives, 0.0, 0.7)
        assert out == pytest.approx(0.7, abs=1e-12)


class TestClosedFormContrast:
    def inputs(self, rng, n=40, h=6, c=3, k=4):
        z0 = rng.standard_normal((n, h))
        p0 = evaluate(row_softmax, 2.0 * rng.standard_normal((n, c)))
        banks = MemoryBanks(rng.standard_normal((n, h)), rng.dirichlet(np.ones(c), n), 0.9)
        positives = knn_positives(z0, banks, k)
        own = np.argmax(p0, axis=1)
        banked = np.argmax(banks.pred_bank, axis=1)
        # cover both corrections in W: own bank row among the negatives, and
        # positives whose banked class differs from the node's class
        assert np.any(banked != own)
        assert np.any(banked[positives] != own[:, None])
        assert np.any(banked[positives] == own[:, None])
        return p0, z0, banks, positives

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (1.3, 0.2), (0.0, 0.7), (0.9, 0.0)])
    def test_matches_dense_mask_oracle(self, rng, alpha, beta):
        p0, z0, banks, positives = self.inputs(rng)
        conf = select_confident(p0, 0.5)
        assert len(conf)
        results = []
        for loss in (
            lambda p, z: loss_graph(p, z, banks, conf, positives, alpha, beta),
            lambda p, z: dense_loss_graph_oracle(p, z, banks, conf, positives, alpha, beta),
        ):
            tape = Tape()
            p, z = tape.leaf(p0), tape.leaf(z0)
            out = loss(p, z)
            backward(tape, out)
            results.append((out.value[0, 0], p.grad, z.grad))
        (v, gp, gz), (v_ref, gp_ref, gz_ref) = results
        assert abs(v - v_ref) <= 1e-12 * abs(v_ref)
        assert np.max(np.abs(gp - gp_ref)) <= 1e-12 * np.max(np.abs(gp_ref))
        assert np.max(np.abs(gz - gz_ref)) <= 1e-12 * np.max(np.abs(gz_ref))


def test_graph_loss_memory_below_one_dense_matrix(rng):
    n, h, c = 2000, 32, 3
    banks = MemoryBanks(rng.standard_normal((n, h)), rng.dirichlet(np.ones(c), n), 0.9)
    z0 = rng.standard_normal((n, h))
    p0 = rng.dirichlet(np.full(c, 0.3), n)
    tracemalloc.start()
    try:
        tape = Tape()
        z, p = tape.leaf(z0), tape.leaf(p0)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        conf = select_confident(p.value, 0.9)
        positives = knn_positives(z.value, banks, 5)
        backward(tape, loss_graph(p, z, banks, conf, positives, 0.5, 0.5))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(conf) and peak < n * n * 8  # one dense n x n float64 array


class TestProjectBudget:
    def test_slack_case(self):
        assert np.array_equal(project_budget([0.5, 0.5], 2.0), [0.5, 0.5])

    def test_clip_only(self):
        assert np.array_equal(project_budget([1.5, -0.2], 2.0), [1.0, 0.0])

    def test_bisection_case(self):
        assert np.allclose(project_budget([0.9, 0.9], 1.0), [0.5, 0.5], atol=1e-8)

    def test_constraints_and_oracle_quick(self, rng):
        for _ in range(150):
            size = int(rng.integers(1, 51))
            v = rng.uniform(-0.5, 1.5, size)
            budget = float(rng.uniform(0.0, 0.8 * size))
            out = project_budget(v, budget)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.sum() <= budget + 1e-6
            assert np.max(np.abs(out - grid_project_oracle(v, budget))) <= 1e-5

    def test_idempotent(self, rng):
        for _ in range(30):
            v = rng.uniform(-0.5, 1.5, 20)
            budget = float(rng.uniform(0.0, 8.0))
            once = project_budget(v, budget)
            twice = project_budget(once, budget)
            assert np.max(np.abs(once - twice)) <= 1e-9

    def test_negative_budget(self):
        with pytest.raises(ContractError):
            project_budget([0.5], -1.0)


class TestSteps:
    def deltas(self):
        return AdaptationDeltas(np.zeros((3, 2)), np.array([0.1, 0.2]), 1.0)

    def test_pgd_zero_grad_fixed_point(self):
        d = self.deltas()
        out = pgd_step_structure(d, np.zeros(2), 0.05, 1.0)
        assert np.allclose(out.delta_a, d.delta_a, atol=1e-12)

    def test_pgd_zero_step(self):
        d = self.deltas()
        out = pgd_step_structure(d, np.array([5.0, -3.0]), 0.0, 1.0)
        assert np.array_equal(out.delta_a, d.delta_a)

    def test_pgd_saturation_under_headroom(self):
        d = AdaptationDeltas(np.zeros((3, 2)), np.zeros(3), 0.4)
        grad = np.array([-1000.0, 0.0, 0.0])
        out = pgd_step_structure(d, grad, 0.01, 0.4)
        assert out.delta_a[0] == pytest.approx(0.4, abs=1e-8)  # headroom binds
        big = pgd_step_structure(AdaptationDeltas(np.zeros((3, 2)), np.zeros(3), 3.0), grad, 0.01, 3.0)
        assert big.delta_a[0] == pytest.approx(1.0, abs=1e-12)  # box binds

    def test_feature_step_examples(self, rng):
        d = AdaptationDeltas(np.zeros((2, 2)), np.zeros(0), 0.0)
        grad = rng.standard_normal((2, 2))
        out = feature_gd_step(d, grad, 0.1)
        assert np.allclose(out.delta_x, -0.1 * grad, atol=1e-15)
        two = feature_gd_step(feature_gd_step(d, grad, 0.1), grad, 0.1)
        one = feature_gd_step(d, grad, 0.2)
        assert np.allclose(two.delta_x, one.delta_x, atol=1e-15)
        unchanged = feature_gd_step(d, np.zeros((2, 2)), 0.1)
        assert np.array_equal(unchanged.delta_x, d.delta_x)


class TestFinalize:
    def test_all_zero_keeps_graph(self, rng):
        g = random_graph(rng, 8, 2, 2, edge_p=0.5)
        d = AdaptationDeltas.zeros(8, 2, g.num_edges, 1.0)
        keep = finalize_structure(g, d, seed=3)
        assert np.array_equal(g.edges[keep], g.edges)

    def test_all_one_removes_everything(self, rng):
        g = random_graph(rng, 8, 2, 2, edge_p=0.5)
        d = AdaptationDeltas(np.zeros((8, 2)), np.ones(g.num_edges), float(g.num_edges))
        keep = finalize_structure(g, d, seed=3)
        assert keep.sum() == 0

    def test_deterministic(self, rng):
        g = random_graph(rng, 10, 2, 2, edge_p=0.5)
        d = AdaptationDeltas(np.zeros((10, 2)), np.full(g.num_edges, 0.5), float(g.num_edges))
        assert np.array_equal(
            finalize_structure(g, d, seed=7), finalize_structure(g, d, seed=7)
        )


def test_live_normalization_equals_constant_bitwise(rng):
    for _ in range(10):
        g = random_graph(rng, 12, 3, 2, edge_p=0.4)
        w = rng.uniform(0.0, 1.0, g.num_edges)
        w[rng.random(g.num_edges) < 0.25] = 0.0
        w[rng.random(g.num_edges) < 0.25] = 1.0
        layout = AdjacencyLayout(g.n, g.edges)
        tape = Tape()
        live = layout.normalized(tape.leaf(w.reshape(-1, 1))).values
        assert isinstance(live, Tensor)
        constant = layout.normalized(w).values
        assert live.value.tobytes() == constant.tobytes()


def test_mask_one_equals_physical_deletion(rng):
    for _ in range(10):
        g = random_graph(rng, 8, 3, 2, edge_p=0.5)
        if g.num_edges < 2:
            continue
        m = init_model(3, 4, 2, 2, seed=1)
        kill = int(rng.integers(g.num_edges))
        w = np.ones(g.num_edges)
        w[kill] = 0.0
        fo_masked = forward(m, normalize_adjacency(g, w), g.features)
        g_removed = TargetGraph(
            g.n,
            [e for i, e in enumerate(g.edges) if i != kill],
            g.features,
            g.labels,
            g.num_classes,
        )
        fo_removed = forward(m, normalize_adjacency(g_removed), g_removed.features)
        assert np.max(np.abs(fo_masked.predictions - fo_removed.predictions)) <= 1e-12


def test_graph_loss_gradients_wrt_deltas(rng):
    g = random_graph(rng, 12, 3, 3, edge_p=0.35)
    model = init_model(3, 4, 3, 2, seed=4)
    layout = AdjacencyLayout(g.n, g.edges)
    fo = forward(model, normalize_adjacency(g), g.features)
    banks = MemoryBanks(fo.representations.copy(), fo.predictions.copy(), 0.9)
    conf = select_confident(fo.predictions, 0.5)
    positives = knn_positives(fo.representations, banks, 3)
    delta_a0 = rng.uniform(0.2, 0.8, (g.num_edges, 1))
    params = model.parameters()

    def f_dx(dx):
        tape = dx.tape
        adj = normalize_adjacency(g, 1.0 - delta_a0.ravel())
        x = apply_feature_delta(tape.constant(g.features), dx)
        z, p = forward_on_tape([tape.constant(w) for w in params], adj, x)
        return loss_graph(p, z, banks, conf, positives, 0.5, 0.5)

    assert grad_check(f_dx, rng.uniform(-0.2, 0.2, g.features.shape)) <= 1e-4

    def f_da(da):
        tape = da.tape
        adj_live = layout.normalized(apply_structure_delta(g, da))
        constants = [tape.constant(w) for w in params]
        z, p = forward_on_tape(constants, adj_live, tape.constant(g.features))
        return loss_graph(p, z, banks, conf, positives, 0.5, 0.5)

    assert grad_check(f_da, delta_a0) <= 1e-4
