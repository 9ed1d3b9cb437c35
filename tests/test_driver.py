import dataclasses
import json

import numpy as np
import pytest

from graphsfda import driver, gnn
from graphsfda.driver import AdaptConfig, adapt, evaluate_accuracy, export_embeddings
from graphsfda.errors import ContractError, NumericalError
from graphsfda.gnn import forward, init_model, predict, pretrain_source
from graphsfda.graph_store import AdjacencyLayout, ShiftSpec, make_shift_pair, split_nodes

from conftest import adjacency, random_graph


def quick_cfg(**kw):
    base = dict(epochs=3, seed=0)
    base.update(kw)
    return AdaptConfig(**base)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(AdaptConfig) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_float(name, value):
    with pytest.raises(ContractError, match=name):
        AdaptConfig(**{name: value})


@pytest.fixture(scope="module")
def fixture_pair():
    spec = ShiftSpec(nodes_per_class=30, num_classes=3, feature_dim=8, seed=3)
    src, tgt = make_shift_pair(spec)
    model = init_model(8, 8, 3, 2, seed=3)
    trained, _ = pretrain_source(model, src, split_nodes(src, 3), epochs=60, lr=1e-2)
    return trained, tgt


class TestDegeneracies:
    def test_zero_epochs_reproduces_source_predictions(self, fixture_pair):
        model, tgt = fixture_pair
        spm = predict(model, adjacency(tgt), tgt.features)
        adapted, refined, pred, report = adapt(model, tgt, quick_cfg(epochs=0))
        assert np.array_equal(pred, spm)
        assert np.array_equal(refined.edges, tgt.edges)
        assert np.array_equal(refined.features, tgt.features)
        assert report.loss_model_trace == [] and report.loss_graph_trace == []
        for a, b in zip(adapted.parameters(), model.parameters()):
            assert np.array_equal(a, b)

    def test_zero_steps_reproduces_source_predictions(self, fixture_pair):
        model, tgt = fixture_pair
        spm = predict(model, adjacency(tgt), tgt.features)
        _, _, pred, report = adapt(
            model, tgt, quick_cfg(epochs=5, model_steps=0, feature_steps=0, structure_steps=0)
        )
        assert np.array_equal(pred, spm)
        assert all(x is None for x in report.loss_model_trace)

    def test_model_only_runs(self, fixture_pair):
        model, tgt = fixture_pair
        _, refined, _, report = adapt(
            model, tgt, quick_cfg(feature_steps=0, structure_steps=0)
        )
        assert all(x is None for x in report.loss_graph_trace)
        assert all(x is not None for x in report.loss_model_trace)
        assert report.edges_deleted == 0
        assert np.array_equal(refined.edges, tgt.edges)

    def test_graph_only_runs(self, fixture_pair):
        model, tgt = fixture_pair
        adapted, _, _, report = adapt(model, tgt, quick_cfg(model_steps=0))
        assert all(x is None for x in report.loss_model_trace)
        assert all(x is not None for x in report.loss_graph_trace)
        for a, b in zip(adapted.parameters(), model.parameters()):
            assert np.array_equal(a, b)  # model frozen


class TestDeterminism:
    def test_same_seed_identical_outcome(self, fixture_pair):
        model, tgt = fixture_pair
        r1 = adapt(model, tgt, quick_cfg(epochs=4, seed=11))
        r2 = adapt(model, tgt, quick_cfg(epochs=4, seed=11))
        assert np.array_equal(r1[2], r2[2])
        assert r1[3].loss_model_trace == r2[3].loss_model_trace
        assert r1[3].loss_graph_trace == r2[3].loss_graph_trace
        assert np.array_equal(r1[1].edges, r2[1].edges)
        for a, b in zip(r1[0].parameters(), r2[0].parameters()):
            assert np.array_equal(a, b)


class TestForwardPasses:
    @pytest.mark.parametrize(
        "model_steps, structure_steps, passes",
        [(1, 0, 3 + 1), (2, 0, 2 * 3 + 1), (1, 1, 3 + 2 + 3)],
    )
    def test_one_forward_per_model_state(
        self, fixture_pair, monkeypatch, model_steps, structure_steps, passes
    ):
        # per epoch one pass serves the accuracy and the next model step; a
        # second model step records its own; plus the banks pass. The final
        # prediction reuses the last epoch's pass while the edge mask stays
        # integral; a structure step makes it fractional, so the final pass
        # runs, and each structure step records a pass of its own
        calls = []
        original = gnn.forward_on_tape

        def counted(*args):
            calls.append(1)
            return original(*args)

        for module in (driver, gnn):
            monkeypatch.setattr(module, "forward_on_tape", counted)
        model, tgt = fixture_pair
        cfg = quick_cfg(
            epochs=3, model_steps=model_steps, feature_steps=0, structure_steps=structure_steps
        )
        _, _, _, report = adapt(model, tgt, cfg)
        weights = driver.apply_structure_delta(report.edge_mask)
        assert np.array_equal(report.keep, weights) == (structure_steps == 0)
        assert len(calls) == passes

    @pytest.mark.parametrize(
        "structure_steps, normalized, neighbors", [(0, 1, 1), (1, 1 + 3 * 2 + 1, 3)]
    )
    def test_matrices_rebuilt_only_after_a_structure_step(
        self, fixture_pair, monkeypatch, structure_steps, normalized, neighbors
    ):
        # without a structure step the edge weights never move: one
        # normalized adjacency and one neighbour matrix serve every epoch.
        # With one, each epoch normalizes for its structure step and after
        # it, the next epoch rebuilds the neighbour matrix, and the
        # fractional mask makes the final prediction normalize once more
        calls = {"normalized": 0, "neighbors": 0}

        def counted(name):
            original = getattr(AdjacencyLayout, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(AdjacencyLayout, name, counted(name))
        model, tgt = fixture_pair
        adapt(model, tgt, quick_cfg(epochs=3, feature_steps=0, structure_steps=structure_steps))
        assert calls == {"normalized": normalized, "neighbors": neighbors}

    @pytest.mark.parametrize(
        "overrides",
        [dict(structure_steps=0), dict(structure_steps=1, budget_fraction=0.0)],
        ids=["no-structure-step", "zero-budget"],
    )
    def test_reused_pass_equals_final_forward(self, fixture_pair, monkeypatch, overrides):
        passes = []
        original = gnn.record_forward

        def kept(*args):
            passes.append(original(*args))
            return passes[-1]

        def no_final_pass(*args):
            raise AssertionError("the final prediction ran a pass of its own")

        monkeypatch.setattr(driver, "record_forward", kept)
        monkeypatch.setattr(driver, "forward", no_final_pass)
        model, tgt = fixture_pair
        adapted, refined, pred, report = adapt(model, tgt, quick_cfg(**overrides))
        keep = report.keep.astype(float)
        _, p0 = forward(adapted, adjacency(tgt, keep), refined.features)
        assert passes[-1][3].value.tobytes() == p0.tobytes()
        assert np.array_equal(pred, np.argmax(p0, axis=1))


class TestInvariantsAndReport:
    def test_budget_and_traces(self, fixture_pair):
        model, tgt = fixture_pair
        cfg = quick_cfg(epochs=5, structure_steps=2)
        _, _, _, report = adapt(model, tgt, cfg)
        budget = cfg.budget_fraction * tgt.num_edges
        assert report.edge_mask.sum() <= budget + 1e-6
        assert len(report.loss_model_trace) == len(report.loss_graph_trace)
        assert len(report.accuracy_trace) == len(report.loss_model_trace)

    def test_predictions_equal_forward_over_refined_graph(self, fixture_pair):
        model, tgt = fixture_pair
        adapted, refined, pred, report = adapt(model, tgt, quick_cfg(delta_lr=0.5))
        assert report.edges_deleted > 0
        kept = {tuple(edge) for edge in refined.edges.tolist()}
        keep = np.array([tuple(edge) in kept for edge in tgt.edges.tolist()])
        adj_masked = adjacency(tgt, keep.astype(float))
        z_masked, p_masked = forward(adapted, adj_masked, refined.features)
        z_deleted, p_deleted = forward(adapted, adjacency(refined), refined.features)
        assert z_masked.tobytes() == z_deleted.tobytes()
        assert p_masked.tobytes() == p_deleted.tobytes()
        assert np.array_equal(pred, np.argmax(p_deleted, axis=1))

    def test_report_json_schema(self, fixture_pair, tmp_path):
        model, tgt = fixture_pair
        _, _, _, report = adapt(model, tgt, quick_cfg())
        report.save(tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert set(doc) == {"loss_m", "loss_g", "acc", "final_acc", "edges_deleted", "seconds"}
        assert isinstance(doc["loss_m"], list) and isinstance(doc["acc"], list)

    def test_dimension_mismatch_rejected(self, fixture_pair, rng):
        model, _ = fixture_pair
        bad = random_graph(rng, 10, 5, 3)
        with pytest.raises(ContractError):
            adapt(model, bad, quick_cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_term_name(self, fixture_pair):
        model, tgt = fixture_pair
        # a temperature this small overflows the contrast exponentials
        with pytest.raises(NumericalError, match="contrast"):
            adapt(model, tgt, quick_cfg(temperature=1e-4))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy's mean of no nodes
    @pytest.mark.parametrize("batch_size", [0, 4])
    def test_zero_node_target_aborts_on_weighted_ce(self, batch_size):
        from graphsfda.graph_store import TargetGraph

        empty = TargetGraph(0, [], np.zeros((0, 8)), None, 3)
        with pytest.raises(NumericalError, match="weighted cross-entropy"):
            adapt(init_model(8, 8, 3, 2, seed=0), empty, quick_cfg(batch_size=batch_size))


class TestUnlabelledAndBatchModes:
    def test_unlabelled_target_has_no_accuracy(self, fixture_pair):
        model, tgt = fixture_pair
        from graphsfda.graph_store import TargetGraph

        bare = TargetGraph(tgt.n, tgt.edges, tgt.features, None, tgt.num_classes)
        _, _, pred, report = adapt(model, bare, quick_cfg())
        assert report.accuracy_trace == []
        assert report.final_accuracy is None
        assert pred.shape == (tgt.n,)

    def test_batched_contrast_runs_deterministically(self, fixture_pair):
        model, tgt = fixture_pair
        cfg = quick_cfg(batch_size=16, seed=5)
        r1 = adapt(model, tgt, cfg)
        r2 = adapt(model, tgt, cfg)
        assert np.array_equal(r1[2], r2[2])
        assert r1[3].loss_model_trace == r2[3].loss_model_trace

    def test_stalled_losses_stop_early(self, fixture_pair):
        # with zero steps in every phase nothing changes, so the stall
        # detector fires after its patience window
        model, tgt = fixture_pair
        _, _, _, report = adapt(
            model,
            tgt,
            quick_cfg(epochs=50, model_steps=0, feature_steps=0, structure_steps=0),
        )
        assert len(report.loss_model_trace) == 10


class TestEvaluateAccuracy:
    def test_values(self):
        assert evaluate_accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert evaluate_accuracy([1, 2, 3], [0, 0, 0]) == 0.0
        assert evaluate_accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            evaluate_accuracy([1, 2], [1, 2, 3])


class TestExportEmbeddings:
    def test_round_trip_and_determinism(self, fixture_pair, tmp_path):
        model, tgt = fixture_pair
        mask = np.zeros(tgt.num_edges)
        export_embeddings(model, tgt, mask, tmp_path / "z1.txt")
        export_embeddings(model, tgt, mask, tmp_path / "z2.txt")
        assert (tmp_path / "z1.txt").read_bytes() == (tmp_path / "z2.txt").read_bytes()
        parsed = np.loadtxt(tmp_path / "z1.txt")
        z0, _ = forward(model, adjacency(tgt), tgt.features)
        assert np.array_equal(parsed, z0)  # %.17g round-trips

    def test_partly_deleting_mask(self, fixture_pair, tmp_path, rng):
        model, tgt = fixture_pair
        mask = rng.uniform(0.0, 1.0, tgt.num_edges)
        mask[rng.random(tgt.num_edges) < 0.3] = 1.0
        export_embeddings(model, tgt, mask, tmp_path / "z.txt")
        adj = AdjacencyLayout(tgt.n, tgt.edges).normalized(1.0 - mask)
        z, _ = forward(model, adj, tgt.features)
        assert np.loadtxt(tmp_path / "z.txt").tobytes() == z.tobytes()

    def test_two_line_fixture(self, tmp_path, rng):
        g = random_graph(rng, 2, 3, 2, edge_p=1.0)
        model = init_model(3, 4, 2, 1, seed=0)
        export_embeddings(model, g, None, tmp_path / "z.txt")
        lines = (tmp_path / "z.txt").read_text().strip().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split()) == 4
