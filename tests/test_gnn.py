import struct

import numpy as np
import pytest

from graphsfda.errors import ContractError, ShapeError
from graphsfda.gnn import (
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
    normalize_adjacency,
    split_nodes,
)
from graphsfda.numerics import Tape, backward, grad_check, mean_all, mul

from conftest import random_graph


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
        fo = forward(m, normalize_adjacency(g), g.features)
        assert np.array_equal(fo.representations, np.zeros((6, 5)))
        assert np.allclose(fo.predictions, 1.0 / 3.0)

    def test_single_node_single_layer(self, rng):
        x = rng.standard_normal((1, 4))
        g = TargetGraph(1, [], x, None, 2)
        m = init_model(4, 3, 2, 1, seed=5)
        fo = forward(m, normalize_adjacency(g), g.features)
        expected = np.maximum(x @ m.layer_weights[0], 0.0)
        assert np.allclose(fo.representations, expected, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        g = random_graph(rng, 10, 4, 3)
        fo = forward(init_model(4, 6, 3, 2, seed=1), normalize_adjacency(g), g.features)
        assert np.max(np.abs(fo.predictions.sum(axis=1) - 1.0)) <= 1e-9

    def test_weight_zero_edge_equals_removal(self, rng):
        g = random_graph(rng, 8, 3, 2, edge_p=0.5)
        m = init_model(3, 4, 2, 2, seed=3)
        w = np.ones(g.num_edges)
        w[2] = 0.0
        fo_masked = forward(m, normalize_adjacency(g, w), g.features)
        g_removed = TargetGraph(
            g.n, np.delete(g.edges, 2, axis=0), g.features, g.labels, g.num_classes
        )
        fo_removed = forward(m, normalize_adjacency(g_removed), g_removed.features)
        assert np.max(np.abs(fo_masked.predictions - fo_removed.predictions)) <= 1e-12

    def test_shape_mismatch(self, rng):
        g = random_graph(rng, 6, 4, 3)
        m = init_model(5, 4, 3, 2, seed=0)
        with pytest.raises(ShapeError):
            forward(m, normalize_adjacency(g), g.features)

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
        fo = forward(m, normalize_adjacency(g), g.features)
        fo_p = forward(m, normalize_adjacency(g_p), g_p.features)
        assert np.max(np.abs(fo_p.representations[perm] - fo.representations)) <= 1e-12
        assert np.max(np.abs(fo_p.predictions[perm] - fo.predictions)) <= 1e-12

    def test_gradients_wrt_params_and_features(self, rng):
        g = random_graph(rng, 7, 3, 2, edge_p=0.4)
        adj = normalize_adjacency(g)
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
            pred = predict(trained, normalize_adjacency(src), src.features)
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

    def test_loss_mostly_nonincreasing(self):
        src = separable_source(3)
        model = init_model(src.feature_dim, 16, 3, 2, seed=3)
        _, metrics = pretrain_source(model, src, split_nodes(src, 3), epochs=150, lr=1e-2)
        hist = np.array(metrics["train_loss"])
        drops = np.sum(np.diff(hist) <= 1e-12)
        assert drops >= 0.9 * (hist.size - 1)


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
