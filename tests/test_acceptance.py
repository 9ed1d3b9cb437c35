"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see them).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from graphsfda.banks import MemoryBanks, init_banks, momentum_update, sharpen
from graphsfda.driver import AdaptConfig, adapt, evaluate_accuracy
from graphsfda.gnn import forward, forward_on_tape, init_model, predict, pretrain_source
from graphsfda.graph_adaptation import (
    apply_feature_delta,
    apply_structure_delta,
    finalize_structure,
    knn_positives,
    loss_graph,
    project_budget,
    select_confident,
)
from graphsfda.graph_store import (
    AdjacencyLayout,
    ShiftSpec,
    TargetGraph,
    load_graph,
    make_shift_pair,
    split_nodes,
)
from graphsfda.model_adaptation import (
    compute_prototypes,
    confidence_weights,
    loss_instance_prototype,
    loss_model,
    loss_weighted_ce,
    neighborhood_pseudo_labels,
)
from graphsfda.numerics import evaluate, grad_check

from conftest import adjacency, random_graph
from test_graph_adaptation import grid_project_oracle


def announce(number, name, ok):
    print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_gradient_fidelity():
    """Analytic gradients of both composite losses match central differences."""
    ok = False
    started = time.perf_counter()
    try:
        rng = np.random.default_rng(20)
        g = random_graph(rng, 20, 4, 3, edge_p=0.3)
        e = g.num_edges
        model = init_model(4, 5, 3, 2, seed=20)
        layout = AdjacencyLayout(g.n, g.edges)
        delta_x0 = rng.uniform(-0.3, 0.3, (g.n, 4))
        delta_a0 = rng.uniform(0.2, 0.8, (e, 1))  # interior of the box
        weights = 1.0 - delta_a0.ravel()
        adj = adjacency(g, weights)
        x_prime = g.features + delta_x0

        z0, p0 = forward(model, adj, x_prime)
        banks = MemoryBanks(z0.copy(), p0.copy(), 0.9)
        pl = neighborhood_pseudo_labels(layout.neighbors(weights), banks)
        protos = compute_prototypes(pl, banks)
        conf = select_confident(p0, 0.5)
        positives = knn_positives(z0, banks, 5)
        params = model.parameters()

        def model_loss(z, p):
            w = confidence_weights(z, protos, pl)
            return loss_model(
                loss_weighted_ce(p, pl, w),
                loss_instance_prototype(z, protos, pl, 0.2),
                0.2,
            )

        def graph_loss(z, p):
            return loss_graph(p, z, banks, conf, positives, 0.5, 0.5)

        for loss_fn in (model_loss, graph_loss):
            # wrt model parameters (extractor and classifier together)
            def f_params(*ps):
                tape = ps[0].tape
                z, p = forward_on_tape(list(ps), adj, tape.constant(x_prime))
                return loss_fn(z, p)

            assert grad_check(f_params, [w.copy() for w in params], step=1e-4) <= 1e-4

            # wrt the feature offset
            def f_dx(dx):
                tape = dx.tape
                z, p = forward_on_tape(
                    [tape.constant(w) for w in params],
                    adj,
                    apply_feature_delta(tape.constant(g.features), dx),
                )
                return loss_fn(z, p)

            assert grad_check(f_dx, delta_x0.copy(), step=1e-4) <= 1e-4

            # wrt the edge mask, through the normalized adjacency
            def f_da(da):
                tape = da.tape
                adj_live = layout.normalized(apply_structure_delta(da))
                constants = [tape.constant(w) for w in params]
                z, p = forward_on_tape(constants, adj_live, tape.constant(x_prime))
                return loss_fn(z, p)

            assert grad_check(f_da, delta_a0.copy(), step=1e-4) <= 1e-4

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        announce(1, "gradient fidelity (both losses, all four groups)", ok)


def test_criterion_2_projection_oracle():
    """project_budget against a dense multiplier grid on 1000 instances."""
    ok = False
    started = time.perf_counter()
    try:
        rng = np.random.default_rng(2)
        for _ in range(1000):
            size = int(rng.integers(1, 51))
            v = rng.uniform(-0.5, 1.5, size)
            budget = float(rng.uniform(0.0, 0.8 * size))
            out = project_budget(v, budget)
            assert out.min() >= -1e-6 and out.max() <= 1.0 + 1e-6
            assert out.sum() <= budget + 1e-6
            assert np.max(np.abs(out - grid_project_oracle(v, budget))) <= 1e-5
            assert np.max(np.abs(project_budget(out, budget) - out)) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        announce(2, "budget projection matches grid oracle", ok)


def test_criterion_3_bank_and_sharpening_suite():
    ok = False
    try:
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(5), size=10_000)
        s = sharpen(p)
        assert np.array_equal(np.argmax(s, axis=1), np.argmax(p, axis=1))
        ent = lambda q: -(q * np.log(np.where(q > 0, q, 1.0))).sum(axis=1)
        assert np.all(ent(s) < ent(p))

        banks = init_banks(rng.standard_normal((5, 4)), rng.dirichlet(np.ones(3), 5), 0.9)
        for _ in range(10_000):
            banks = momentum_update(
                banks, rng.standard_normal((5, 4)), rng.dirichlet(np.ones(3), 5)
            )
        assert np.max(np.abs(banks.pred_bank.sum(axis=1) - 1.0)) <= 1e-6

        z = rng.standard_normal((4, 3))
        pr = rng.dirichlet(np.ones(2), 4)
        full = momentum_update(MemoryBanks(np.ones((4, 3)), np.full((4, 2), 0.5), 1.0), z, pr)
        assert np.array_equal(full.repr_bank, z)
        assert np.array_equal(full.pred_bank, sharpen(pr))
        frozen = momentum_update(MemoryBanks(np.ones((4, 3)), np.full((4, 2), 0.5), 0.0), z, pr)
        assert np.array_equal(frozen.repr_bank, np.ones((4, 3)))
        assert np.array_equal(frozen.pred_bank, np.full((4, 2), 0.5))
        ok = True
    finally:
        announce(3, "sharpening and momentum-bank suite", ok)


def test_criterion_4_structural_semantics():
    ok = False
    try:
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100:
            g = random_graph(rng, int(rng.integers(4, 12)), 3, 2, edge_p=0.5)
            if g.num_edges < 2:
                continue
            model = init_model(3, 4, 2, 2, seed=checked)
            kill = int(rng.integers(g.num_edges))
            w = np.ones(g.num_edges)
            w[kill] = 0.0
            _, p_masked = forward(model, adjacency(g, w), g.features)
            g_rm = TargetGraph(
                g.n,
                [edge for i, edge in enumerate(g.edges) if i != kill],
                g.features,
                g.labels,
                g.num_classes,
            )
            _, p_removed = forward(model, adjacency(g_rm), g_rm.features)
            assert np.max(np.abs(p_masked - p_removed)) <= 1e-12
            checked += 1

        # Bernoulli finalization concentration on 10^4 edges
        n = 200
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        idx = rng.choice(len(all_pairs), size=10_000, replace=False)
        edges = [all_pairs[i] for i in idx]
        g = TargetGraph(n, edges, np.zeros((n, 1)), None, 1)
        kept = finalize_structure(np.full(g.num_edges, 0.5), seed=4).sum() / 10_000.0
        sigma = np.sqrt(0.25 / 10_000.0)
        assert abs(kept - 0.5) <= 3.0 * sigma, kept
        ok = True
    finally:
        announce(4, "edge-mask and Bernoulli finalization semantics", ok)


def test_criterion_5_end_to_end_adaptation_gain():
    """Synthetic shift fixture, 5 seeds: full beats frozen source by >= 2
    points and the component ordering holds with 1-point slack."""
    ok = False
    started = time.perf_counter()
    try:
        spm_accs, model_only_accs, full_accs = [], [], []
        for seed in range(1, 6):
            spec = ShiftSpec(
                nodes_per_class=100,
                num_classes=3,
                feature_dim=16,
                class_mean_separation=2.0,
                target_mean_shift=1.0,
                edge_noise=0.15,
                seed=seed,
            )
            src, tgt = make_shift_pair(spec)
            model = init_model(src.feature_dim, 32, src.num_classes, 2, seed=seed)
            trained, _ = pretrain_source(
                model, src, split_nodes(src, seed), epochs=120, lr=1e-2
            )
            spm = evaluate_accuracy(
                predict(trained, adjacency(tgt), tgt.features), tgt.labels
            )
            base = dict(epochs=30, seed=seed)
            _, _, _, rep_full = adapt(trained, tgt, AdaptConfig(**base))
            _, _, _, rep_mo = adapt(
                trained, tgt, AdaptConfig(**base, feature_steps=0, structure_steps=0)
            )
            spm_accs.append(spm)
            model_only_accs.append(rep_mo.final_accuracy)
            full_accs.append(rep_full.final_accuracy)

        spm_m, mo_m, full_m = map(np.mean, (spm_accs, model_only_accs, full_accs))
        print(
            f"\n   SPM={spm_m:.4f}  model-only={mo_m:.4f}  full={full_m:.4f} "
            f"(gain {100 * (full_m - spm_m):.2f} points)"
        )
        assert full_m - spm_m >= 0.02, "adaptation gain under 2 points"
        assert full_m >= mo_m - 0.01, "full below model-only beyond slack"
        assert mo_m >= spm_m - 0.01, "model-only below source model beyond slack"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        announce(5, "end-to-end adaptation gain and component ordering", ok)


def test_criterion_6_degeneracy_identities():
    ok = False
    try:
        spec = ShiftSpec(nodes_per_class=25, num_classes=3, feature_dim=8, seed=6)
        src, tgt = make_shift_pair(spec)
        model = init_model(8, 8, 3, 2, seed=6)
        trained, _ = pretrain_source(model, src, split_nodes(src, 6), epochs=40, lr=1e-2)
        spm = predict(trained, adjacency(tgt), tgt.features)

        _, _, pred0, _ = adapt(trained, tgt, AdaptConfig(epochs=0, seed=6))
        assert np.array_equal(pred0, spm)
        _, _, pred_no_steps, _ = adapt(
            trained,
            tgt,
            AdaptConfig(
                epochs=4, seed=6,
                model_steps=0, feature_steps=0, structure_steps=0,
            ),
        )
        assert np.array_equal(pred_no_steps, spm)

        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = rng.standard_normal(2) * 10
            assert abs(evaluate(lambda x, y: loss_model(x, y, 0.0), [[a]], [[b]])[0, 0] - a) <= 1e-12
            assert abs(evaluate(lambda x, y: loss_model(x, y, 1.0), [[a]], [[b]])[0, 0] - b) <= 1e-12
        ok = True
    finally:
        announce(6, "degeneracy identities (no-op runs, mix endpoints)", ok)


CITATION_DIR = os.environ.get("GRAPHSFDA_CITATION_DIR", "data/citation")
CITATION_SOURCE = "acmv9"
CITATION_TARGET = "dblpv7"


def test_criterion_7_citation_stretch(tmp_path):
    """Optional dataset-backed check: adaptation from the ACM-derived graph
    to the DBLP-derived graph with all defaults. Skipped when the dataset
    files are not present; an out-of-band accuracy prints FAIL but does not
    fail the build.
    """
    prefix = Path(CITATION_DIR)
    src_path = prefix / CITATION_SOURCE
    tgt_path = prefix / CITATION_TARGET
    if not (src_path.with_suffix(".meta").exists() and tgt_path.with_suffix(".meta").exists()):
        print("\n[criterion 7] citation dataset stretch goal: SKIP (dataset not present)")
        pytest.skip(
            f"citation files not found under {prefix}/ "
            f"(expected {CITATION_SOURCE}.* and {CITATION_TARGET}.*); "
            "set GRAPHSFDA_CITATION_DIR to run the stretch criterion"
        )
    source = load_graph(src_path)
    target = load_graph(tgt_path)
    model = init_model(source.feature_dim, 128, source.num_classes, 2, seed=1)
    trained, metrics = pretrain_source(model, source, split_nodes(source, 1), epochs=200)
    _, _, _, report = adapt(trained, target, AdaptConfig(seed=1))
    report.save(tmp_path / "citation_report.json")
    acc = report.final_accuracy
    in_band = abs(acc * 100.0 - 75.62) <= 3.0
    print(f"\n   citation accuracy {acc:.4f} (report at {tmp_path / 'citation_report.json'})")
    announce(7, "citation dataset stretch goal", in_band)
