import numpy as np
import pytest

from graphsfda import graph_adaptation
from graphsfda.banks import MemoryBanks
from graphsfda.errors import ContractError, NumericalError, ShapeError
from graphsfda.gnn import forward, forward_on_tape, init_model
from graphsfda.graph_adaptation import (
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
from graphsfda.graph_store import AdjacencyLayout, TargetGraph
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

from conftest import adjacency, random_graph, traced_peak


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


def knn_operands(rng, n, k, kind, group_size):
    """(z, representation bank) for the kNN tests."""
    if kind == "gauss":
        return rng.standard_normal((n, 6)), rng.standard_normal((n, 6))
    if kind == "ties":
        return tie_heavy_rows(rng, n), tie_heavy_rows(rng, n)
    if kind == "repeated":  # each bank row four times, and z the bank itself
        bank = np.repeat(rng.standard_normal((-(-n // 4), 6)), 4, axis=0)[:n]
        return bank.copy(), bank
    if kind == "all-equal":  # every entry of a row ties; row 0 of z is zero
        z = tie_heavy_rows(rng, n)
        z[0] = 0.0
        return z, np.tile([1.0, 1.0, 1.0, 1.0, 0.0, 0.0], (n, 1))
    # "one-group": row 0's k nearest bank rows all lie in strided group 3
    z, bank = tie_heavy_rows(rng, n), tie_heavy_rows(rng, n)
    z[0] = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    bank[:, 4:] = 0.0
    bank[3 + (n // group_size) * np.arange(k), 4:] = 1.0 + np.arange(k)[:, None]
    return z, bank


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
    """The edge mask's invariants, held where they are enforced: constant
    edge weights are checked by the layout, and `pgd_step_structure`, the
    only producer of a mask, projects onto the budget."""

    def layout(self):
        return AdjacencyLayout(3, np.array([[0, 1], [1, 2]]))

    def test_box_violation(self):
        with pytest.raises(ContractError, match="outside"):
            self.layout().normalized(apply_structure_delta(np.array([1.2, 0.0])))

    def test_budget_violation(self):
        out = pgd_step_structure(np.array([0.9, 0.9]), np.zeros(2), 0.0, 1.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zeros_feasible(self):
        assert np.array_equal(pgd_step_structure(np.zeros(4), np.zeros(4), 0.1, 0.0), np.zeros(4))

    def test_nan_mask_entry(self):
        with pytest.raises(ContractError, match="nan"):
            self.layout().normalized(apply_structure_delta(np.array([0.5, np.nan])))

    def test_nan_budget(self):
        with pytest.raises(ContractError, match="budget"):
            pgd_step_structure(np.zeros(1), np.zeros(1), 0.1, np.nan)


class TestApplyFeatureDelta:
    def test_zero_delta_identity(self, rng):
        x = rng.standard_normal((3, 2))
        assert np.array_equal(evaluate(apply_feature_delta, x, np.zeros((3, 2))), x)

    def test_hand_case(self):
        x = np.array([[1.0, 2.0]])
        assert np.array_equal(evaluate(apply_feature_delta, x, [[-1.0, 0.0]]), [[0.0, 2.0]])

    def test_full_masking(self, rng):
        x = rng.standard_normal((4, 3))
        assert np.array_equal(evaluate(apply_feature_delta, x, -x), np.zeros((4, 3)))


class TestApplyStructureDelta:
    def test_semantics(self):
        assert np.allclose(apply_structure_delta(np.array([0.0, 1.0])), [1.0, 0.0])
        assert np.allclose(apply_structure_delta(np.array([0.3, 0.0])), [0.7, 1.0])

    def test_alignment_checked(self):
        # the layout, where the weights meet the edges, checks their count
        layout = AdjacencyLayout(3, np.array([[0, 1], [1, 2]]))
        with pytest.raises(ContractError, match="expected 2 edge weights, got 1"):
            layout.normalized(apply_structure_delta(np.array([0.5])))


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
        "n, block, k, bank, group",
        [
            # the module's grouping rule; these keep their first ids
            pytest.param(53, 8, 5, "gauss", None, id="53-8-5-False"),  # last block partial
            pytest.param(64, 16, 3, "gauss", None, id="64-16-3-False"),  # blocks tile the rows
            pytest.param(53, 8, 5, "ties", None, id="53-8-5-True"),
            pytest.param(200, 7, 4, "ties", None, id="200-7-4-True"),
            # one row per block, every other row kept
            pytest.param(41, 1, 40, "ties", None, id="41-1-40-True"),
            pytest.param(401, None, 5, "ties", None, id="401-None-5-True"),  # module block size
            # grouped path forced: (group size, fewest groups)
            pytest.param(200, 16, 4, "ties", (4, 1), id="grouped-ties"),
            pytest.param(300, 64, 5, "repeated", (16, 1), id="grouped-repeated-rows"),
            pytest.param(64, 16, 5, "all-equal", (4, 1), id="grouped-all-equal"),
            pytest.param(53, 8, 5, "gauss", (4, 1), id="grouped-n-not-multiple"),
            pytest.param(101, 32, 7, "ties", (8, 1), id="grouped-n-not-multiple-ties"),
            pytest.param(64, 16, 16, "ties", (4, 1), id="grouped-largest-k"),
            pytest.param(64, 16, 17, "ties", (4, 1), id="k-beyond-groups"),  # whole rows
            # fewer groups than the 4 leftover columns need: whole rows
            pytest.param(20, 8, 1, "ties", (16, 1), id="groups-below-group-size"),
            pytest.param(64, 16, 5, "one-group", (8, 1), id="grouped-top-k-in-one-group"),
            pytest.param(1100, None, 5, "gauss", None, id="grouped-module-rule"),
        ],
    )
    def test_blocked_equals_full_stable_argsort(self, rng, monkeypatch, n, block, k, bank, group):
        if block is not None:
            monkeypatch.setattr(graph_adaptation, "KNN_BLOCK_ROWS", block)
        assert graph_adaptation.KNN_BLOCK_ROWS < n
        if group is not None:
            monkeypatch.setattr(graph_adaptation, "KNN_GROUP_SIZE", group[0])
            monkeypatch.setattr(graph_adaptation, "KNN_MIN_GROUPS", group[1])
        z, repr_bank = knn_operands(rng, n, k, bank, graph_adaptation.KNN_GROUP_SIZE)
        banks = MemoryBanks(repr_bank, np.full((n, 2), 0.5), 0.9)
        partitioned = []
        partition = np.partition

        def spy(a, kth, axis):
            partitioned.append(a.shape[axis])
            return partition(a, kth, axis=axis)

        with monkeypatch.context() as patch:
            patch.setattr(np, "partition", spy)
            got = knn_positives(z, banks, k)
        assert np.array_equal(got, argsort_knn_oracle(z, banks, k))
        # grouping needs at least max(KNN_MIN_GROUPS, KNN_GROUP_SIZE, k) groups,
        # and then no whole row is partitioned
        size = graph_adaptation.KNN_GROUP_SIZE
        grouped = n // size >= max(graph_adaptation.KNN_MIN_GROUPS, size, k)
        assert set(partitioned) == {n // size if grouped else n}
        if bank in ("ties", "all-equal", "one-group") and k < n - 1:  # exact cosines:
            # the tie rule decides the k-th place somewhere
            sims = unit_rows(z) @ unit_rows(repr_bank).T
            np.fill_diagonal(sims, -np.inf)
            ranked = -np.sort(-sims, axis=1)
            assert np.any(ranked[:, k - 1] == ranked[:, k])

    @pytest.mark.parametrize("operand", ["z", "representation bank"])
    @pytest.mark.parametrize("row", [3, 9])  # the last row used to raise IndexError
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises(self, rng, operand, row, bad):
        z, bank = rng.standard_normal((10, 4)), rng.standard_normal((10, 4))
        (z if operand == "z" else bank)[row, 1] = bad
        banks = MemoryBanks(bank, np.full((10, 2), 0.5), 0.9)
        with pytest.raises(NumericalError, match=f"{operand} has a non-finite entry in row {row}"):
            knn_positives(z, banks, 3)


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

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5)])
    def test_non_finite_weight(self, alpha, beta):
        banks = MemoryBanks(np.eye(2), np.eye(2), 0.9)
        conf = ConfidentSet(np.array([0]), np.array([0]))
        positives = np.zeros((2, 0), dtype=int)
        with pytest.raises(ContractError):
            graph_loss(np.eye(2), np.eye(2), banks, conf, positives, alpha, beta)


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
    tape = Tape()
    z, p = tape.leaf(z0), tape.leaf(p0)

    def graph_step():
        conf = select_confident(p.value, 0.9)
        positives = knn_positives(z.value, banks, 5)
        backward(tape, loss_graph(p, z, banks, conf, positives, 0.5, 0.5))
        return conf

    conf, peak = traced_peak(graph_step)
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


def exact_projection_cases():
    """(name, v, budget) for the exact projection at e = 1, 50 and 20,000."""
    rng = np.random.default_rng(14)
    for e in (1, 50, 20_000):
        grid = np.round(rng.uniform(-0.5, 1.5, e), 1)  # heavy ties
        yield f"grid-{e}", grid, 0.3 * np.clip(grid, 0.0, 1.0).sum()
        yield f"equal-{e}", np.full(e, 0.7), 0.25 * e
        yield f"zero-budget-{e}", rng.uniform(-0.5, 1.5, e), 0.0
        yield f"above-one-{e}", rng.uniform(1.001, 3.0, e), 0.4 * e
        yield f"all-but-full-{e}", rng.uniform(1.0, 3.0, e), np.nextafter(float(e), 0.0)
        # entries on both kinks of gamma = 0.25 (out 0 and out 1), between and below
        kinks = np.array([0.25, 1.25, 0.25 + rng.uniform(0.01, 0.99), rng.uniform(-1.0, 0.2)])
        v = kinks[np.arange(e) % 4]
        yield f"on-kinks-{e}", v, np.clip(v - 0.25, 0.0, 1.0).sum()


EXACT_CASES = list(exact_projection_cases())


class TestExactProjection:
    @pytest.mark.parametrize(
        "v, budget", [case[1:] for case in EXACT_CASES], ids=[case[0] for case in EXACT_CASES]
    )
    def test_projection_properties(self, v, budget):
        out = project_budget(v, budget)
        assert out.min() >= 0.0 and out.max() <= 1.0
        if np.clip(v, 0.0, 1.0).sum() <= budget:
            assert np.array_equal(out, np.clip(v, 0.0, 1.0))
            return
        assert abs(out.sum() - budget) <= 1e-9 * max(1.0, budget)
        interior = (out > 0.0) & (out < 1.0)
        if interior.any():  # one multiplier, and every other entry on its side of it
            gamma = v[interior] - out[interior]
            assert np.ptp(gamma) <= 1e-12
            assert (v[out == 0.0] <= gamma[0] + 1e-12).all()
            assert (v[out == 1.0] >= gamma[0] + 1.0 - 1e-12).all()
        if v.size <= 50:
            assert np.max(np.abs(out - grid_project_oracle(v, budget))) <= 1e-5
        assert np.max(np.abs(project_budget(out, budget) - out)) <= 1e-9

    def test_entries_on_the_kinks(self):
        for name, v, budget in EXACT_CASES:
            if name.startswith("on-kinks"):
                expected = np.clip(v - 0.25, 0.0, 1.0)
                assert np.max(np.abs(project_budget(v, budget) - expected)) <= 1e-12, name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(NumericalError):
            project_budget([0.5, bad, 0.2], 1.0)

    def test_nan_budget(self):
        with pytest.raises(ContractError):
            project_budget([0.9, 0.9], np.nan)


class TestSteps:
    MASK = np.array([0.1, 0.2])
    OFFSET = np.zeros((3, 2))

    def test_pgd_zero_grad_fixed_point(self):
        out = pgd_step_structure(self.MASK, np.zeros(2), 0.05, 1.0)
        assert np.allclose(out, self.MASK, atol=1e-12)

    def test_pgd_zero_step(self):
        out = pgd_step_structure(self.MASK, np.array([5.0, -3.0]), 0.0, 1.0)
        assert np.array_equal(out, self.MASK)

    def test_pgd_saturation_under_headroom(self):
        grad = np.array([-1000.0, 0.0, 0.0])
        out = pgd_step_structure(np.zeros(3), grad, 0.01, 0.4)
        assert out[0] == pytest.approx(0.4, abs=1e-8)  # headroom binds
        big = pgd_step_structure(np.zeros(3), grad, 0.01, 3.0)
        assert big[0] == pytest.approx(1.0, abs=1e-12)  # box binds

    def test_pgd_overflow(self):
        # finite operands whose step overflows, without a RuntimeWarning
        with pytest.raises(NumericalError, match="non-finite entry -inf at edge 1"):
            pgd_step_structure(self.MASK, np.array([0.0, 1e308]), 1e10, 1.0)

    def test_pgd_nan_step(self):
        with pytest.raises(NumericalError):
            pgd_step_structure(self.MASK, np.array([1.0, -1.0]), np.nan, 1.0)

    @pytest.mark.parametrize("which", ["structure", "feature"])
    def test_grad_shape_checked(self, which):
        with pytest.raises(ShapeError):
            if which == "structure":
                pgd_step_structure(self.MASK, np.zeros(3), 0.1, 1.0)
            else:
                feature_gd_step(self.OFFSET, np.zeros((2, 3)), 0.1)

    @pytest.mark.parametrize("which,step", [
        ("structure", -0.1), ("feature", -0.1), ("feature", np.nan),  # structure NaN: above
    ], ids=["structure-negative", "feature-negative", "feature-nan"])
    def test_bad_step_size(self, which, step):
        kind = NumericalError if np.isnan(step) else ContractError
        with pytest.raises(kind, match="step size"):
            if which == "structure":
                pgd_step_structure(self.MASK, np.zeros(2), step, 1.0)
            else:
                feature_gd_step(self.OFFSET, np.zeros((3, 2)), step)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_feature_step_non_finite_gradient(self, bad):
        grad = np.zeros((3, 2))
        grad[1, 0] = bad
        grad[2, 1] = bad  # only the first bad entry is named
        with pytest.raises(NumericalError, match="at node 1, feature 0"):
            feature_gd_step(self.OFFSET, grad, 0.1)

    def test_feature_step_overflow(self):
        # finite operands whose step overflows
        with pytest.raises(NumericalError, match="entry -inf at node 0, feature 1"):
            feature_gd_step(self.OFFSET, np.array([[0.0, 1e308], [0, 0], [0, 0]]), 1e10)

    def test_feature_step_examples(self, rng):
        d = np.zeros((2, 2))
        grad = rng.standard_normal((2, 2))
        out = feature_gd_step(d, grad, 0.1)
        assert np.allclose(out, -0.1 * grad, atol=1e-15)
        two = feature_gd_step(feature_gd_step(d, grad, 0.1), grad, 0.1)
        one = feature_gd_step(d, grad, 0.2)
        assert np.allclose(two, one, atol=1e-15)
        unchanged = feature_gd_step(d, np.zeros((2, 2)), 0.1)
        assert np.array_equal(unchanged, d)


class TestFinalize:
    def test_all_zero_keeps_graph(self, rng):
        g = random_graph(rng, 8, 2, 2, edge_p=0.5)
        keep = finalize_structure(np.zeros(g.num_edges), seed=3)
        assert np.array_equal(g.edges[keep], g.edges)

    def test_all_one_removes_everything(self, rng):
        g = random_graph(rng, 8, 2, 2, edge_p=0.5)
        keep = finalize_structure(np.ones(g.num_edges), seed=3)
        assert keep.sum() == 0

    def test_deterministic(self, rng):
        g = random_graph(rng, 10, 2, 2, edge_p=0.5)
        mask = np.full(g.num_edges, 0.5)
        assert np.array_equal(finalize_structure(mask, seed=7), finalize_structure(mask, seed=7))


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
        _, p_masked = forward(m, adjacency(g, w), g.features)
        g_removed = TargetGraph(
            g.n,
            [e for i, e in enumerate(g.edges) if i != kill],
            g.features,
            g.labels,
            g.num_classes,
        )
        _, p_removed = forward(m, adjacency(g_removed), g_removed.features)
        assert np.max(np.abs(p_masked - p_removed)) <= 1e-12


def test_graph_loss_gradients_wrt_deltas(rng):
    g = random_graph(rng, 12, 3, 3, edge_p=0.35)
    model = init_model(3, 4, 3, 2, seed=4)
    layout = AdjacencyLayout(g.n, g.edges)
    z0, p0 = forward(model, adjacency(g), g.features)
    banks = MemoryBanks(z0.copy(), p0.copy(), 0.9)
    conf = select_confident(p0, 0.5)
    positives = knn_positives(z0, banks, 3)
    delta_a0 = rng.uniform(0.2, 0.8, (g.num_edges, 1))
    params = model.parameters()

    def f_dx(dx):
        tape = dx.tape
        adj = adjacency(g, 1.0 - delta_a0.ravel())
        x = apply_feature_delta(tape.constant(g.features), dx)
        z, p = forward_on_tape([tape.constant(w) for w in params], adj, x)
        return loss_graph(p, z, banks, conf, positives, 0.5, 0.5)

    assert grad_check(f_dx, rng.uniform(-0.2, 0.2, g.features.shape)) <= 1e-4

    def f_da(da):
        tape = da.tape
        adj_live = layout.normalized(apply_structure_delta(da))
        constants = [tape.constant(w) for w in params]
        z, p = forward_on_tape(constants, adj_live, tape.constant(g.features))
        return loss_graph(p, z, banks, conf, positives, 0.5, 0.5)

    assert grad_check(f_da, delta_a0) <= 1e-4
