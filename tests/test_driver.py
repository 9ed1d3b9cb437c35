import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphsfda import driver, gnn, graph_adaptation, model_adaptation, numerics
from graphsfda.banks import init_banks
from graphsfda.driver import AdaptConfig, adapt, evaluate_accuracy, export_embeddings
from graphsfda.errors import ContractError, NumericalError
from graphsfda.gnn import GnnModel, forward, init_model, predict, pretrain_source, record_forward
from graphsfda.graph_store import AdjacencyLayout, ShiftSpec, make_shift_pair, split_nodes
from graphsfda.numerics import Tape, add, l2_normalize_rows

from conftest import adjacency, n_by_h, random_graph, step_inputs, traced_kept, traced_peak


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
        "steps, work",
        [
            # the banks pass; the epoch's pseudo-labels (C wide), its model
            # step's sweep (into layer 2's input, and into W0, recomputing
            # A x) and its accuracy pass, which the final prediction reuses
            ((1, 0), ["p:d", "p:h", "p:C", "p:h", "p:d", "p:d", "p:h"]),
            # the banks pass; the structure step's pass and sweep (layer 2's
            # value gradient and input gradient, then layer 1's value
            # gradient, which reads x); the accuracy and final passes
            ((0, 1), ["p:d", "p:h", "p:d", "p:h", "s:h", "p:h", "s:d", "p:d", "p:h", "p:d", "p:h"]),
        ],
        ids=["model-only", "structure-only"],
    )
    def test_sparse_work_of_one_epoch(self, fixture_pair, monkeypatch, steps, work):
        # every call of the sparse kernel and its width, "p:d" for a product
        # d wide and "s:h" for the slot dots h wide: layer 1 widens d = 8 to
        # h = 16, so it propagates and differentiates at d
        calls = []

        def counted(name):
            original = getattr(numerics.SparseAdjacency, name)

            def wrapper(adj, a, b):
                calls.append(f"{name[0]}:{b.shape[1]}")
                return original(adj, a, b)

            return wrapper

        for name in ("product", "slot_dots"):
            monkeypatch.setattr(numerics.SparseAdjacency, name, counted(name))
        _, tgt = fixture_pair
        model = init_model(tgt.feature_dim, 16, 3, 2, seed=3)
        model_steps, structure_steps = steps
        cfg = quick_cfg(
            epochs=1, model_steps=model_steps, feature_steps=0, structure_steps=structure_steps
        )
        adapt(model, tgt, cfg)
        widths = {"d": tgt.feature_dim, "h": 16, "C": 3}
        assert calls == [f"{w[0]}:{widths[w[2]]}" for w in work]

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


# step: the driver function patched, how its call at the chosen epoch
# overflows, and the term the message keeps
LOCATED_OVERFLOWS = {
    "model step": (
        "loss_instance_prototype",
        lambda f, z, centroids, labels, tau, **kw: f(z, centroids, labels, 1e-300, **kw),
        "instance-prototype contrast",
    ),
    "feature step": (
        "feature_gd_step",
        lambda f, delta, grad, step: f(delta, grad * 1e300, 1e300),
        "feature step has non-finite entry",
    ),
    "structure step": (
        "pgd_step_structure",
        lambda f, delta, grad, step, budget: f(delta, grad * 1e300, 1e300, budget),
        "edge mask step has non-finite entry",
    ),
    "final pass": (
        "forward",
        lambda f, model, adj, x: f(model, adj, x * 1e308),
        "forward pass gives a non-finite",
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("step", list(LOCATED_OVERFLOWS))
def test_numerical_error_names_epoch_and_step(fixture_pair, monkeypatch, step):
    name, overflow, term = LOCATED_OVERFLOWS[step]
    original = getattr(driver, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(name)  # one call per epoch, or one final pass
        if len(calls) == 2 or step == "final pass":
            return overflow(original, *args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(driver, name, patched)
    model, tgt = fixture_pair
    where = "in the final pass after epoch 3" if step == "final pass" else f"at epoch 2, {step}"
    with pytest.raises(NumericalError, match=f"{term}.* {where}$"):
        adapt(model, tgt, quick_cfg(epochs=3))


@pytest.mark.parametrize("steps", [dict(structure_steps=0), dict(feature_steps=0)])
def test_k_neighbors_checked_before_the_first_pass(fixture_pair, monkeypatch, steps):
    model, tgt = fixture_pair
    passes = []
    monkeypatch.setattr(driver, "record_forward", lambda *args: passes.append(args))
    with pytest.raises(ContractError, match=rf"k_neighbors \({tgt.n}\).*n \({tgt.n}\)"):
        adapt(model, tgt, quick_cfg(k_neighbors=tgt.n, **steps))
    assert passes == []


def test_k_neighbors_unchecked_without_graph_steps(fixture_pair):
    model, tgt = fixture_pair
    cfg = quick_cfg(k_neighbors=tgt.n, feature_steps=0, structure_steps=0)
    assert adapt(model, tgt, cfg)[3].loss_graph_trace == [None] * 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model_steps", [1, 0])
def test_first_pass_is_checked_finite(fixture_pair, model_steps):
    # finite parameters whose forward pass overflows; without a model step
    # the graph steps would otherwise run on its NaN predictions
    model, tgt = fixture_pair
    params = [1e150 * w for w in model.parameters()]
    huge = GnnModel(params[:-2], params[-2], params[-1])
    with pytest.raises(NumericalError, match="non-finite prediction at node 0 in the first pass$"):
        adapt(huge, tgt, quick_cfg(model_steps=model_steps))


def test_each_bank_state_is_normalized_and_checked_once(fixture_pair, monkeypatch):
    # the two kNN calls and two contrast weights of an epoch read one bank
    # state; the bank is normalized and checked finite once for all four
    states, normalized, checked = [], [], []
    update, evaluate, require_finite = (
        driver.momentum_update, graph_adaptation.evaluate, graph_adaptation._require_finite
    )

    def spy_update(*args):
        banks = update(*args)
        states.append(banks.repr_bank)
        return banks

    def spy_evaluate(f, *values):
        if f is l2_normalize_rows:
            normalized.append(values[0])
        return evaluate(f, *values)

    def spy_require_finite(x, name):
        checked.append(x)
        return require_finite(x, name)

    monkeypatch.setattr(driver, "momentum_update", spy_update)
    monkeypatch.setattr(graph_adaptation, "evaluate", spy_evaluate)
    monkeypatch.setattr(graph_adaptation, "_require_finite", spy_require_finite)
    model, tgt = fixture_pair
    adapt(model, tgt, quick_cfg(epochs=3, feature_steps=1, structure_steps=1))
    assert len(states) == 3
    for state in states:
        assert sum(a is state for a in normalized) == 1
        assert sum(a is state for a in checked) == 1


def test_each_step_normalizes_z_once(fixture_pair, monkeypatch):
    # a model step's two cosine terms read one normalization of its z and
    # one of its centroids; a graph step's kNN and contrast read one of its z
    normalized, centroids, passes = [], [], []
    model_counts, graph_counts = [], []
    model_step, graph_step = driver._model_step, driver._graph_step
    prototypes, graph_forward = driver.compute_prototypes, driver.forward_on_tape

    def count(value):
        return sum(v is value for v in normalized)

    def spy_normalize(a):
        normalized.append(a.value)
        return l2_normalize_rows(a)

    def spy_prototypes(*args):
        centroids.append(prototypes(*args))
        return centroids[-1]

    def spy_forward(*args):
        z, p = graph_forward(*args)
        passes.append(z.value)
        return z, p

    def spy_model_step(recorded, *args):
        normalized.clear()
        out = model_step(recorded, *args)
        model_counts.append((count(recorded[2].value), count(centroids[-1])))
        return out

    def spy_graph_step(*args):
        normalized.clear()
        out = graph_step(*args)
        graph_counts.append(count(passes[-1]))
        return out

    for module in (driver, model_adaptation, graph_adaptation):
        monkeypatch.setattr(module, "l2_normalize_rows", spy_normalize, raising=False)
    monkeypatch.setattr(driver, "compute_prototypes", spy_prototypes)
    monkeypatch.setattr(driver, "forward_on_tape", spy_forward)
    monkeypatch.setattr(driver, "_model_step", spy_model_step)
    monkeypatch.setattr(driver, "_graph_step", spy_graph_step)
    model, tgt = fixture_pair
    adapt(model, tgt, quick_cfg(epochs=2, model_steps=2))
    assert model_counts == [(1, 1)] * 4
    assert graph_counts == [1] * 4  # a feature and a structure step per epoch


def test_non_finite_z_is_named_before_it_is_normalized(fixture_pair, monkeypatch):
    # normalizing an inf row warns "invalid value", an error in this suite,
    # so the graph step checks z first and the kNN's message stands
    forward_on_tape = driver.forward_on_tape

    def inf_row(params, adj, x):
        z, p = forward_on_tape(params, adj, x)
        bad = np.zeros(z.shape)
        bad[2, 1] = np.inf
        return add(z, x.tape.constant(bad)), p

    monkeypatch.setattr(driver, "forward_on_tape", inf_row)
    model, tgt = fixture_pair
    message = "^kNN positives: z has a non-finite entry in row 2 at epoch 1, feature step$"
    with pytest.raises(NumericalError, match=message):
        adapt(model, tgt, quick_cfg())


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


MALLOC_SETTINGS = ("GLIBC_TUNABLES",) + numerics.MALLOC_TUNABLES

glibc_only = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the malloc thresholds are set on Linux with glibc only",
)

# prints one digest of the predictions and parameters of an adaptation of
# the default ShiftSpec pair, whose kNN blocks and sparse work buffer are
# above glibc's default mmap threshold
ADAPT_DIGEST_SCRIPT = """
import hashlib
from graphsfda.driver import AdaptConfig, adapt
from graphsfda.gnn import init_model, pretrain_source
from graphsfda.graph_store import ShiftSpec, make_shift_pair, split_nodes
src, tgt = make_shift_pair(ShiftSpec())
model = init_model(src.feature_dim, 32, src.num_classes, 2, seed=0)
model, _ = pretrain_source(model, src, split_nodes(src, 0), epochs=20, lr=1e-2)
adapted, _, pred, _ = adapt(model, tgt, AdaptConfig(epochs=5, seed=0))
digest = hashlib.sha256(pred.tobytes())
for p in adapted.parameters():
    digest.update(p.tobytes())
print(digest.hexdigest())
"""


class TestKeptHeap:
    """The adaptation loop keeps freed heap in the process: on glibc,
    `numerics._keep_freed_heap` sets both malloc thresholds once."""

    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        """The (parameter, value) pairs passed to a stubbed mallopt, with the
        once-flag reset, glibc reported and no malloc setting in the
        environment."""
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(numerics, "_heap_kept", False)
        monkeypatch.setattr(numerics.ctypes, "CDLL", lambda name: Libc())
        monkeypatch.setattr(numerics.platform, "libc_ver", lambda: ("glibc", "2.36"))
        for name in MALLOC_SETTINGS:
            monkeypatch.delenv(name, raising=False)
        return calls

    @pytest.mark.parametrize("tunables", [None, "glibc.cpu.hwcaps=-AVX2"])
    @pytest.mark.parametrize("entry", ["adapt", "helper"])
    def test_first_call_sets_both_thresholds(
        self, fixture_pair, mallopt_calls, monkeypatch, entry, tunables
    ):
        model, tgt = fixture_pair
        if tunables:
            monkeypatch.setenv("GLIBC_TUNABLES", tunables)
        call = {
            "adapt": lambda: adapt(model, tgt, quick_cfg(epochs=1)),
            "helper": numerics._keep_freed_heap,
        }[entry]
        call()
        call()  # a second call in the process is a no-op
        mib = 1024 * 1024
        assert mallopt_calls == [
            (numerics.M_MMAP_THRESHOLD, 32 * mib),
            (numerics.M_TRIM_THRESHOLD, 64 * mib),
        ]

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("libc", ""),  # what platform.libc_ver reports off glibc, musl included
            ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072"),
            ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2:glibc.malloc.trim_threshold=0"),
            ("MALLOC_MMAP_THRESHOLD_", "131072"),
            ("MALLOC_TRIM_THRESHOLD_", "0"),
        ],
    )
    def test_fallback_calls_nothing(self, fixture_pair, mallopt_calls, monkeypatch, setting, value):
        if setting == "libc":
            monkeypatch.setattr(numerics.platform, "libc_ver", lambda: (value, ""))
        else:
            monkeypatch.setenv(setting, value)
        adapt(*fixture_pair, quick_cfg(epochs=1))
        assert mallopt_calls == []

    @glibc_only
    def test_thresholds_change_no_result(self):
        """Two fresh interpreters adapt the same pair: one sets the thresholds,
        the other runs on glibc's static default (an environment setting, so
        the helper leaves it alone). Predictions and parameters are bitwise
        equal."""
        src = str(Path(numerics.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in MALLOC_SETTINGS}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        digests = [
            subprocess.run(
                [sys.executable, "-c", ADAPT_DIGEST_SCRIPT], env=dict(env, **extra),
                capture_output=True, text=True, check=True, timeout=300,
            ).stdout
            for extra in ({}, {"MALLOC_MMAP_THRESHOLD_": "131072"})
        ]
        assert digests[0] == digests[1] != ""

    @glibc_only
    def test_warm_adapt_faults_no_pages_in(self):
        import resource

        if any(name in os.environ for name in MALLOC_SETTINGS):
            pytest.skip("the environment sets malloc options: the thresholds are left to it")
        src, tgt = make_shift_pair(ShiftSpec())
        model = init_model(src.feature_dim, 32, src.num_classes, 2, seed=0)
        model, _ = pretrain_source(model, src, split_nodes(src, 0), epochs=20, lr=1e-2)
        cfg = AdaptConfig(epochs=20, seed=0)
        adapt(model, tgt, cfg)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        adapt(model, tgt, cfg)
        # 0-16 measured, under -X dev too; about 18,800 when glibc returns
        # every step's freed arrays to the system
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 100


def test_readme_library_use_runs(capsys):
    """README's "Library use" block, run as written: it prints the final
    accuracy and the number of deleted edges."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    accuracy, deleted = capsys.readouterr().out.split()
    assert 0.0 <= float(accuracy) <= 1.0
    assert int(deleted) >= 0


def structure_step_inputs():
    """The model parameters, features and `UnitBank`, and the tape, live
    mask leaf and adjacency of a structure step at n = 4000 (`step_inputs`),
    with the bytes of one n x h array."""
    layout, model, x, rng = step_inputs()
    _, _, z, p = record_forward(model, layout.normalized(np.ones(layout.edge_u.size)), x)
    bank = graph_adaptation.UnitBank(init_banks(z.value, p.value, 0.9))
    tape = Tape()
    da = tape.leaf(rng.uniform(0.0, 0.3, (layout.edge_u.size, 1)))
    adj = layout.normalized(driver.apply_structure_delta(da))
    return model.parameters(), tape.constant(x), bank, tape, da, adj, n_by_h(x, model)


def test_structure_pass_keeps_no_first_layer_product():
    # layer 1 widens d = 16 to h = 32, so its value gradient reads x and
    # g W0^T: the pass keeps z, layer 2's x W1 for its value gradient, two
    # relu masks and p, about 2.35 n x h arrays. As A (x W0) layer 1 kept
    # x W0 for its value gradient too, 3.35
    params, x, _, tape, _, adj, nh = structure_step_inputs()
    _, kept = traced_kept(lambda: gnn.forward_on_tape([tape.constant(w) for w in params], adj, x))
    assert kept < 2.6 * nh


def test_structure_step_peak():
    # the step peaks at about 9.7 n x h arrays: 10.7 while it held z past
    # its normalization, 11.7 while layer 1 also kept x W0
    params, x, bank, tape, da, adj, nh = structure_step_inputs()
    loss, peak = traced_peak(lambda: driver._graph_step(tape, params, adj, x, bank, AdaptConfig()))
    assert np.isfinite(loss) and np.all(np.isfinite(da.grad))
    assert peak < 10.2 * nh
