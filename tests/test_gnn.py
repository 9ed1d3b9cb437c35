import struct

import numpy as np
import pytest

from graphsfda import gnn
from graphsfda.errors import ContractError, NumericalError, ShapeError
from graphsfda.gnn import (
    AdamState,
    forward,
    forward_on_tape,
    init_model,
    load_checkpoint,
    predict,
    pretrain_source,
    save_checkpoint,
)
from graphsfda.graph_store import (
    ShiftSpec,
    TargetGraph,
    make_shift_pair,
    split_nodes,
)
from graphsfda.numerics import (
    Tape,
    backward,
    gather_rows,
    grad_check,
    log_clamped,
    mean_all,
    mul,
    neg,
    select_cols,
)

from conftest import adjacency, random_graph


class TestInitModel:
    def test_deterministic(self):
        a = init_model(5, 4, 3, 2, seed=42)
        b = init_model(5, 4, 3, 2, seed=42)
        for wa, wb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(wa, wb)

    def test_benchmark_shapes(self):
        m = init_model(6775, 128, 5, 2, seed=0)
        assert [w.shape for w in m.layer_weights] == [(6775, 128), (128, 128)]
        assert m.classifier_weight.shape == (128, 5)
        assert m.classifier_bias.shape == (1, 5)

    def test_zero_hidden_rejected(self):
        with pytest.raises(ContractError):
            init_model(5, 0, 3, 2, seed=0)

    def test_parameters_past_memory_refused_before_any_draw(self):
        # 5 * 1000 + (10**7 - 1) * 1000**2 + 1001 * 3: about 80 TB of float64
        with pytest.raises(MemoryError, match="its 9999999008003 parameters"):
            init_model(5, 1000, 3, 10**7, seed=0)

    def test_glorot_bounds(self):
        m = init_model(10, 6, 3, 1, seed=7)
        s = np.sqrt(6.0 / (10 + 6))
        assert np.abs(m.layer_weights[0]).max() <= s
        assert np.array_equal(m.classifier_bias, np.zeros((1, 3)))


class TestForward:
    def test_zero_weights_give_uniform(self, rng):
        g = random_graph(rng, 6, 4, 3)
        m = init_model(4, 5, 3, 2, seed=0)
        for w in m.parameters():
            w[:] = 0.0
        z0, p0 = forward(m, adjacency(g), g.features)
        assert np.array_equal(z0, np.zeros((6, 5)))
        assert np.allclose(p0, 1.0 / 3.0)

    def test_single_node_single_layer(self, rng):
        x = rng.standard_normal((1, 4))
        g = TargetGraph(1, [], x, None, 2)
        m = init_model(4, 3, 2, 1, seed=5)
        z0, _ = forward(m, adjacency(g), g.features)
        expected = np.maximum(x @ m.layer_weights[0], 0.0)
        assert np.allclose(z0, expected, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        g = random_graph(rng, 10, 4, 3)
        _, p0 = forward(init_model(4, 6, 3, 2, seed=1), adjacency(g), g.features)
        assert np.max(np.abs(p0.sum(axis=1) - 1.0)) <= 1e-9

    def test_weight_zero_edge_equals_removal(self, rng):
        g = random_graph(rng, 8, 3, 2, edge_p=0.5)
        m = init_model(3, 4, 2, 2, seed=3)
        w = np.ones(g.num_edges)
        w[2] = 0.0
        _, p_masked = forward(m, adjacency(g, w), g.features)
        g_removed = TargetGraph(
            g.n, np.delete(g.edges, 2, axis=0), g.features, g.labels, g.num_classes
        )
        _, p_removed = forward(m, adjacency(g_removed), g_removed.features)
        assert np.max(np.abs(p_masked - p_removed)) <= 1e-12

    def test_shape_mismatch(self, rng):
        g = random_graph(rng, 6, 4, 3)
        m = init_model(5, 4, 3, 2, seed=0)
        with pytest.raises(ShapeError):
            forward(m, adjacency(g), g.features)

    def test_permutation_equivariance(self, rng):
        # relabeling nodes permutes outputs; tolerance covers resummation
        # of the same addends in a different neighbor order
        g = random_graph(rng, 9, 3, 2, edge_p=0.5)
        m = init_model(3, 4, 2, 2, seed=2)
        perm = rng.permutation(g.n)
        edges_p = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        x_p = np.empty_like(g.features)
        x_p[perm] = g.features
        g_p = TargetGraph(g.n, edges_p, x_p, None, 2)
        z0, p0 = forward(m, adjacency(g), g.features)
        z_perm, p_perm = forward(m, adjacency(g_p), g_p.features)
        assert np.max(np.abs(z_perm[perm] - z0)) <= 1e-12
        assert np.max(np.abs(p_perm[perm] - p0)) <= 1e-12

    def test_gradients_wrt_params_and_features(self, rng):
        g = random_graph(rng, 7, 3, 2, edge_p=0.4)
        adj = adjacency(g)
        m = init_model(3, 4, 2, 2, seed=8)
        params = m.parameters()

        def loss_wrt_params(*ps):
            z, p = forward_on_tape(list(ps), adj, ps[0].tape.constant(g.features))
            return mean_all(mul(p, p))

        assert grad_check(loss_wrt_params, [w.copy() for w in params]) <= 1e-4

        def loss_wrt_x(x):
            z, p = forward_on_tape([x.tape.constant(w) for w in params], adj, x)
            return mean_all(mul(p, p))

        assert grad_check(loss_wrt_x, g.features.copy()) <= 1e-4


def separable_source(seed):
    spec = ShiftSpec(
        nodes_per_class=60,
        num_classes=3,
        feature_dim=8,
        class_mean_separation=3.0,
        target_mean_shift=0.0,
        edge_noise=0.0,
        seed=seed,
    )
    return make_shift_pair(spec)[0]


class TestPretrain:
    def test_separable_source_reaches_095_train_accuracy(self):
        for seed in range(1, 6):
            src = separable_source(seed)
            split = split_nodes(src, seed)
            model = init_model(src.feature_dim, 16, src.num_classes, 2, seed=seed)
            trained, _ = pretrain_source(model, src, split, epochs=200, lr=1e-2)
            pred = predict(trained, adjacency(src), src.features)
            train_acc = np.mean(pred[split.train] == src.labels[split.train])
            assert train_acc >= 0.95, f"seed {seed}: {train_acc}"

    def test_zero_epochs_is_noop(self):
        src = separable_source(1)
        model = init_model(src.feature_dim, 8, 3, 2, seed=1)
        trained, _ = pretrain_source(model, src, split_nodes(src, 1), epochs=0)
        for a, b in zip(trained.parameters(), model.parameters()):
            assert np.array_equal(a, b)

    def test_zero_lr_keeps_parameters(self):
        src = separable_source(2)
        model = init_model(src.feature_dim, 8, 3, 2, seed=2)
        trained, _ = pretrain_source(model, src, split_nodes(src, 2), epochs=5, lr=0.0)
        for a, b in zip(trained.parameters(), model.parameters()):
            assert np.array_equal(a, b)

    def test_needs_labels(self, rng):
        g = random_graph(rng, 10, 3, 2, labelled=False)
        model = init_model(3, 4, 2, 2, seed=0)
        with pytest.raises(ContractError):
            pretrain_source(model, g, None, epochs=1)

    @pytest.mark.parametrize(
        "arguments, named",
        [
            (dict(epochs=-1), "epochs"),
            (dict(lr=-1e-2), "lr"),
            (dict(lr=float("nan")), "lr"),
            (dict(lr=float("inf")), "lr"),
            (dict(weight_decay=-5e-4), "weight_decay"),
            (dict(weight_decay=float("nan")), "weight_decay"),
        ],
        ids=["epochs-negative", "lr-negative", "lr-nan", "lr-inf", "decay-negative", "decay-nan"],
    )
    def test_invalid_arguments_raise_up_front(self, arguments, named):
        src = separable_source(1)
        model = init_model(src.feature_dim, 8, 3, 2, seed=1)
        with pytest.raises(ContractError, match=f"^{named} must be"):
            pretrain_source(model, src, split_nodes(src, 1), **{"epochs": 1, **arguments})

    def test_non_finite_loss_raises_naming_its_epoch(self):
        # the first step at this rate overflows the next forward pass
        src = separable_source(1)
        model = init_model(src.feature_dim, 8, 3, 2, seed=1)
        with pytest.warns(RuntimeWarning), pytest.raises(NumericalError, match="epoch 2 of 30"):
            pretrain_source(model, src, split_nodes(src, 1), epochs=30, lr=1e300)

    def test_loss_mostly_nonincreasing(self):
        src = separable_source(3)
        model = init_model(src.feature_dim, 16, 3, 2, seed=3)
        _, metrics = pretrain_source(model, src, split_nodes(src, 3), epochs=150, lr=1e-2)
        hist = np.array(metrics["train_loss"])
        drops = np.sum(np.diff(hist) <= 1e-12)
        assert drops >= 0.9 * (hist.size - 1)


def two_pass_pretrain_oracle(model, source, split, epochs, lr, weight_decay=5e-4):
    """Pretraining as it was with a separate evaluation pass: each epoch
    trains on one forward pass, then `predict` evaluates the new state, and
    the best state is evaluated once more at the end. Also returns the
    validation accuracy of every evaluated state."""
    model = model.copy()
    adj = adjacency(source)
    labels = source.labels
    opt = AdamState([p.shape for p in model.parameters()], lr, weight_decay=weight_decay)

    def accuracy(pred, ids):
        return float(np.mean(pred[ids] == labels[ids])) if ids.size else 0.0

    best, best_val, history, vals = model.copy(), -1.0, [], []
    for _ in range(epochs):
        tape = Tape()
        params = [tape.leaf(p) for p in model.parameters()]
        _, p_out = forward_on_tape(params, adj, tape.constant(source.features))
        picked = select_cols(gather_rows(p_out, split.train), labels[split.train])
        loss = neg(mean_all(log_clamped(picked)))
        backward(tape, loss)
        history.append(float(loss.value[0, 0]))
        opt.step(model.parameters(), [t.grad for t in params])
        vals.append(accuracy(predict(model, adj, source.features), split.val))
        if vals[-1] > best_val:
            best_val, best = vals[-1], model.copy()
    if epochs == 0:
        best = model
        vals.append(accuracy(predict(model, adj, source.features), split.val))
    pred = predict(best, adj, source.features)
    metrics = {
        "val_acc": accuracy(pred, split.val),
        "test_acc": accuracy(pred, split.test),
        "train_loss": history,
    }
    return best, metrics, vals


def shift_source(separation):
    spec = ShiftSpec(nodes_per_class=100, num_classes=3, feature_dim=8,
                     class_mean_separation=separation, seed=0)
    return make_shift_pair(spec)[0]


class TestPretrainMatchesTwoPassOracle:
    def check_bitwise(self, src, epochs, lr):
        split = split_nodes(src, 0)
        model = init_model(src.feature_dim, 16, src.num_classes, 2, seed=0)
        trained, metrics = pretrain_source(model, src, split, epochs=epochs, lr=lr)
        expected, expected_metrics, vals = two_pass_pretrain_oracle(model, src, split, epochs, lr)
        for a, b in zip(trained.parameters(), expected.parameters()):
            assert a.tobytes() == b.tobytes()
        assert metrics == expected_metrics
        return vals

    @pytest.mark.parametrize("epochs", [0, 1, 7])
    def test_bitwise_equal(self, epochs):
        self.check_bitwise(shift_source(2.0), epochs, 1e-2)

    def test_bitwise_equal_when_validation_ties_and_falls_after_best(self):
        vals = self.check_bitwise(shift_source(0.5), 12, 0.1)
        best = int(np.argmax(vals))
        after = vals[best + 1:]
        # strict selection keeps the first best state; later ones tie or fall
        assert min(after) < vals[best] and vals[best] in after

    @pytest.mark.parametrize("epochs", [0, 1, 5])
    def test_one_forward_per_model_state(self, monkeypatch, epochs):
        calls = []
        original = gnn.forward_on_tape

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(gnn, "forward_on_tape", counted)
        src = separable_source(1)
        model = init_model(src.feature_dim, 8, 3, 2, seed=1)
        pretrain_source(model, src, split_nodes(src, 1), epochs=epochs)
        assert len(calls) == epochs + 1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = init_model(6, 4, 3, 2, seed=11)
        save_checkpoint(m, tmp_path / "m.ckpt")
        back = load_checkpoint(tmp_path / "m.ckpt")
        for a, b in zip(m.parameters(), back.parameters()):
            assert np.array_equal(a, b)

    def test_resave_identical_bytes(self, tmp_path):
        m = init_model(6, 4, 3, 2, seed=11)
        save_checkpoint(m, tmp_path / "a.ckpt")
        save_checkpoint(m, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_truncated_rejected(self, tmp_path):
        save_checkpoint(init_model(6, 4, 3, 2, seed=11), tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        for keep in (6, 24, len(blob) - 8):
            (tmp_path / "cut.ckpt").write_bytes(blob[:keep])
            with pytest.raises(ContractError, match="truncated"):
                load_checkpoint(tmp_path / "cut.ckpt")

    @pytest.mark.parametrize("layers", [0, 2**31])
    def test_bad_layer_count_rejected(self, tmp_path, layers):
        save_checkpoint(init_model(6, 4, 3, 1, seed=11), tmp_path / "m.ckpt")
        blob = bytearray((tmp_path / "m.ckpt").read_bytes())
        struct.pack_into("<I", blob, 8, layers)  # the word after the version
        (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
        with pytest.raises(ContractError):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_magic_enforced(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(ContractError):
            load_checkpoint(tmp_path / "junk.ckpt")
