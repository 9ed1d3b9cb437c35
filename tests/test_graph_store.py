import re
import warnings

import numpy as np
import pytest

from graphsfda.errors import ContractError, ParseError
from graphsfda.gnn import forward, init_model, pretrain_source
from graphsfda.graph_store import (
    AdjacencyLayout,
    ShiftSpec,
    TargetGraph,
    load_graph,
    make_shift_pair,
    normalize_adjacency,
    save_graph,
    split_nodes,
)

from conftest import random_graph


def per_line_edge_scan(text, n):
    """Reference reader: one `.edges` line at a time with Python ints.

    Returns the loaded (min, max) edges, the lines that warned of a
    symmetrized pair, and the line of the first fault (None if the file
    loads). A field-count or number-syntax fault ends the scan like any
    other, and an integer of any size is compared with [0, n)."""
    seen, edges, warned = {}, [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        try:
            u, v = (int(p) for p in parts)
        except ValueError:  # a token that is not an integer, or not two fields
            return edges, warned, lineno
        if u == v or not (0 <= u < n and 0 <= v < n):
            return edges, warned, lineno
        key = (min(u, v), max(u, v))
        if key in seen:
            if seen[key] == (u, v):
                return edges, warned, lineno
            warned.append(lineno)
            continue
        seen[key] = (u, v)
        edges.append(key)
    return edges, warned, None


def first_format_fault(text, width):
    """Line of the first non-blank line without `width` int64 tokens, or None."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        try:
            if len(parts) == width and all(-(2**63) <= int(p) < 2**63 for p in parts):
                continue
        except ValueError:
            pass
        return lineno
    return None


def random_edge_text(rng, n):
    """An `.edges` text with blank lines, ids in [-1, n], loops, exact and
    mirrored repeats and, in some files, lines with 1 or 3 fields,
    non-integer tokens or integers beyond int64."""
    malformed = ["3", "0 1 2", "1 x", "0.5 1", "1e3 2", f"{2**63} 1", f"0 {-(2**63) - 1}"]
    format_rate = rng.choice([0.0, 0.0, 0.1])
    low = rng.choice([-1, 0, 0])
    lines, pairs = [], []
    for _ in range(int(rng.integers(0, 12))):
        r = rng.random()
        if r < 0.1:
            lines.append(str(rng.choice(["", "  ", "\t"])))
            continue
        if r < 0.1 + format_rate:
            lines.append(str(rng.choice(malformed)))
            continue
        if pairs and r < 0.45:
            u, v = pairs[int(rng.integers(len(pairs)))]
            if rng.random() < 0.7:
                u, v = v, u
        else:
            u, v = (int(a) for a in rng.integers(low, n + (low < 0), size=2))
        pairs.append((u, v))
        lines.append(f"{u}{' ' * int(rng.integers(1, 3))}{v}")
    return "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")


def single_node_graph():
    return TargetGraph(1, [], np.array([[1.0]]), [0], 1)


class TestTargetGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ContractError):
            TargetGraph(2, [(1, 1)], np.zeros((2, 1)), None, 2)

    def test_rejects_duplicate(self):
        with pytest.raises(ContractError):
            TargetGraph(2, [(0, 1), (1, 0)], np.zeros((2, 1)), None, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            TargetGraph(2, [(0, 2)], np.zeros((2, 1)), None, 2)

    def test_feature_row_mismatch(self):
        with pytest.raises(ContractError):
            TargetGraph(3, [], np.zeros((2, 1)), None, 2)

    def test_features_float64_array(self):
        x = [[1, 2, 3], [4, 5, 6]]
        g = TargetGraph(2, [], x, None, 2)
        assert g.features.dtype == np.float64 and g.features.shape == (2, 3)
        assert g.feature_dim == 3 and list(g.features.ravel()) == [1, 2, 3, 4, 5, 6]

    def test_features_must_be_2d(self):
        for features in (np.zeros(2), np.zeros((2, 1, 1))):
            with pytest.raises(ContractError, match="features must be an"):
                TargetGraph(2, [], features, None, 2)

    def test_nonfinite_features_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ContractError, match="finite"):
                TargetGraph(1, [], [[1.0, bad]], None, 2)

    def test_features_read_only(self):
        x = np.array([[1.0, 2.0]])
        g = TargetGraph(1, [], x, None, 2)
        with pytest.raises(ValueError):
            g.features[0, 0] = 5.0
        x[0, 0] = 5.0  # the graph holds its own copy
        assert g.features[0, 0] == 1.0

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2), (1, 3)], r"self-loop \(2,2\)"),
            ([(0, 1), (3, 4), (4, 0)], r"edge \(3,4\) endpoint outside \[0,4\)"),
            ([(0, 1), (1, 2), (1, 2)], r"duplicate undirected edge \(1, 2\)"),
            ([(2, 1), (0, 3), (1, 2)], r"duplicate undirected edge \(1, 2\)"),
            # the first offending pair decides, whatever its kind
            ([(0, 1), (1, 0), (3, 3)], r"duplicate undirected edge \(0, 1\)"),
            ([(1, 1), (0, 1), (0, 1)], r"self-loop"),
            # (0,6) has the pair id of (1,2) when n=4
            ([(1, 2), (0, 6)], r"edge \(0,6\) endpoint outside"),
        ],
        ids=["self-loop", "out-of-range", "duplicate", "reversed-duplicate", "first-wins",
             "loop-before-duplicate", "out-of-range-id-alias"],
    )
    def test_array_validation(self, edges, message):
        with pytest.raises(ContractError, match=message):
            TargetGraph(4, edges, np.zeros((4, 1)), None, 2)
        with pytest.raises(ContractError, match=message):
            TargetGraph(4, np.array(edges), np.zeros((4, 1)), None, 2)

    def test_validation_matches_per_edge_loop(self, rng):
        def loop_oracle(n, edges):
            seen = set()
            for u, v in edges:
                if u == v:
                    return f"self-loop ({u},{v}) not allowed"
                if not (0 <= u < n and 0 <= v < n):
                    return f"edge ({u},{v}) endpoint outside [0,{n})"
                key = (min(u, v), max(u, v))
                if key in seen:
                    return f"duplicate undirected edge {key}"
                seen.add(key)
            return None

        for _ in range(300):
            edges = [tuple(int(x) for x in rng.integers(-1, 7, size=2))
                     for _ in range(int(rng.integers(0, 8)))]
            expected = loop_oracle(5, edges)
            try:
                TargetGraph(5, edges, np.zeros((5, 1)), None, 2)
                message = None
            except ContractError as exc:
                message = str(exc)
            assert message == expected, edges

    def test_edges_canonical_read_only_array(self):
        g = TargetGraph(4, [(3, 1), (0, 2)], np.zeros((4, 1)), None, 2)
        assert g.edges.dtype == np.int64
        assert np.array_equal(g.edges, [[1, 3], [0, 2]])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 0

    @pytest.mark.parametrize("edges", [[], (), np.zeros((0, 2), dtype=np.int64)],
                             ids=["list", "tuple", "array"])
    def test_empty_edge_list(self, edges):
        g = TargetGraph(3, edges, np.zeros((3, 1)), None, 2)
        assert g.edges.shape == (0, 2) and g.num_edges == 0
        assert np.array_equal(normalize_adjacency(g).densify(), np.eye(3))


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        adj = normalize_adjacency(single_node_graph())
        assert np.array_equal(adj.densify(), [[1.0]])

    def test_two_nodes_one_edge(self):
        g = TargetGraph(2, [(0, 1)], np.zeros((2, 1)), None, 1)
        dense = normalize_adjacency(g).densify()
        assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_zero_weight_equals_deletion(self, rng):
        g = random_graph(rng, 8, 3, 2)
        weights = np.ones(g.num_edges)
        weights[0] = 0.0
        masked = normalize_adjacency(g, weights).densify()
        removed = normalize_adjacency(
            TargetGraph(g.n, g.edges[1:], g.features, g.labels, g.num_classes)
        ).densify()
        assert np.array_equal(masked, removed) or np.max(np.abs(masked - removed)) <= 1e-15

    def test_weight_out_of_range(self, rng):
        g = random_graph(rng, 5, 2, 2)
        bad = np.ones(g.num_edges)
        bad[0] = 1.5
        with pytest.raises(ContractError):
            normalize_adjacency(g, bad)

    def test_exactly_symmetric(self, rng):
        g = random_graph(rng, 20, 2, 2, edge_p=0.4)
        w = rng.uniform(0.0, 1.0, g.num_edges)
        dense = normalize_adjacency(g, w).densify()
        assert np.array_equal(dense, dense.T)  # bitwise, by shared per-edge values

    def test_row_sums_positive(self, rng):
        g = random_graph(rng, 15, 2, 2, edge_p=0.3)
        sums = normalize_adjacency(g).densify().sum(axis=1)
        assert np.all(sums > 0)

    def test_row_sums_one_on_regular_graphs(self):
        # cycle: every node has degree 2, so normalization gives rows summing to 1
        n = 6
        g = TargetGraph(n, [(i, (i + 1) % n) for i in range(n)], np.zeros((n, 1)), None, 1)
        sums = normalize_adjacency(g).densify().sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


class TestFileFormat:
    def test_round_trip(self, tmp_path, rng):
        g = random_graph(rng, 9, 4, 3)
        save_graph(g, tmp_path / "g")
        back = load_graph(tmp_path / "g")
        assert back.n == g.n
        assert np.array_equal(back.edges, g.edges)
        assert np.array_equal(back.features, g.features)
        assert np.array_equal(back.labels, g.labels)
        assert back.num_classes == g.num_classes

    def test_small_fixture(self, tmp_path):
        (tmp_path / "t.meta").write_text("2 3 2\n")
        (tmp_path / "t.edges").write_text("0 1\n")
        (tmp_path / "t.feat").write_text("1 2 3\n4 5 6\n")
        g = load_graph(tmp_path / "t")
        assert g.n == 2 and np.array_equal(g.edges, [[0, 1]]) and g.labels is None

    def test_self_loop_is_parse_error(self, tmp_path):
        (tmp_path / "t.meta").write_text("6 1 2\n")
        (tmp_path / "t.edges").write_text("0 1\n5 5\n")
        (tmp_path / "t.feat").write_text("\n".join("0") * 6)
        with pytest.raises(ParseError, match="t.edges:2"):
            load_graph(tmp_path / "t")

    def test_feature_count_mismatch(self, tmp_path):
        (tmp_path / "t.meta").write_text("3 1 2\n")
        (tmp_path / "t.edges").write_text("")
        (tmp_path / "t.feat").write_text("1\n2\n")
        with pytest.raises(ContractError):
            load_graph(tmp_path / "t")

    def test_duplicate_edge_line(self, tmp_path):
        (tmp_path / "t.meta").write_text("3 1 2\n")
        (tmp_path / "t.edges").write_text("0 1\n0 1\n")
        (tmp_path / "t.feat").write_text("1\n2\n3\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_graph(tmp_path / "t")

    def test_reversed_pair_symmetrized_with_warning(self, tmp_path):
        (tmp_path / "t.meta").write_text("3 1 2\n")
        (tmp_path / "t.edges").write_text("0 1\n1 0\n")
        (tmp_path / "t.feat").write_text("1\n2\n3\n")
        with pytest.warns(UserWarning, match="symmetrized"):
            g = load_graph(tmp_path / "t")
        assert np.array_equal(g.edges, [[0, 1]])

    def test_malformed_feature_line(self, tmp_path):
        (tmp_path / "t.meta").write_text("1 2 2\n")
        (tmp_path / "t.edges").write_text("")
        (tmp_path / "t.feat").write_text("1 xyz\n")
        with pytest.raises(ParseError, match="t.feat:1"):
            load_graph(tmp_path / "t")

    @pytest.mark.parametrize(
        "suffix, text, line",
        [
            (".edges", "0 1\n\n1 99999999999999999999\n", 3),
            (".labels", "0\n99999999999999999999\n", 2),
        ],
        ids=["edges", "labels"],
    )
    def test_integer_beyond_int64_names_line(self, tmp_path, suffix, text, line):
        (tmp_path / "t.meta").write_text("2 1 2\n")
        (tmp_path / "t.edges").write_text("0 1\n")
        (tmp_path / "t.feat").write_text("1\n2\n")
        (tmp_path / f"t{suffix}").write_text(text)
        with pytest.raises(ParseError, match=rf"t\{suffix}:{line}: .*too large"):
            load_graph(tmp_path / "t")

    def test_edges_match_per_line_scan(self, tmp_path, rng):
        n = 5
        (tmp_path / "t.meta").write_text(f"{n} 1 2\n")
        (tmp_path / "t.feat").write_text("0\n" * n)
        outcomes = {"format": 0, "content": 0, "loaded": 0, "warned": 0}
        for _ in range(600):
            text = random_edge_text(rng, n)
            (tmp_path / "t.edges").write_text(text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    g, line = load_graph(tmp_path / "t"), None
                except ParseError as exc:
                    g, line = None, int(re.search(r"t\.edges:(\d+): ", str(exc)).group(1))
            got_warned = [int(re.search(r"t\.edges:(\d+): ", str(w.message)).group(1))
                          for w in caught]
            format_line = first_format_fault(text, 2)
            if format_line is not None:
                # a file with a format fault is named at its first one
                assert (line, got_warned) == (format_line, []), text
                outcomes["format"] += 1
                continue
            edges, warned, fault_line = per_line_edge_scan(text, n)
            assert (line, got_warned) == (fault_line, warned), text
            if g is None:
                outcomes["content"] += 1
            else:
                assert g.edges.tolist() == [list(e) for e in edges], text
                outcomes["loaded"] += 1
            outcomes["warned"] += bool(warned)
        assert min(outcomes.values()) >= 30, outcomes

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        (tmp_path / "t.meta").write_text("3 2 2\n")
        (tmp_path / "t.edges").write_text("")
        (tmp_path / "t.feat").write_text(f"1 2\n\n3 4\n5 {value}\n")
        with pytest.raises(ParseError, match="t.feat:4"):
            load_graph(tmp_path / "t")


class TestSplitNodes:
    def test_exact_sizes_n10(self, rng):
        g = random_graph(rng, 10, 2, 2)
        s = split_nodes(g, seed=3)
        assert (len(s.train), len(s.val), len(s.test)) == (8, 1, 1)

    def test_deterministic(self, rng):
        g = random_graph(rng, 37, 2, 2)
        a, b = split_nodes(g, seed=7), split_nodes(g, seed=7)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.val, b.val)
        assert np.array_equal(a.test, b.test)

    def test_seeds_differ(self, rng):
        g = random_graph(rng, 100, 2, 2)
        a, b = split_nodes(g, seed=1), split_nodes(g, seed=2)
        assert not np.array_equal(a.train, b.train)

    def test_disjoint_cover(self, rng):
        g = random_graph(rng, 53, 2, 2)
        s = split_nodes(g, seed=11)
        ids = np.concatenate([s.train, s.val, s.test])
        assert np.array_equal(np.sort(ids), np.arange(53))

    def test_needs_labels(self, rng):
        g = random_graph(rng, 10, 2, 2, labelled=False)
        with pytest.raises(ContractError):
            split_nodes(g, seed=0)


class TestShiftSpec:
    def test_validation(self):
        with pytest.raises(ContractError):
            ShiftSpec(edge_noise=1.5)
        with pytest.raises(ContractError):
            ShiftSpec(intra_p=2.0)


class TestMakeShiftPair:
    def test_deterministic(self):
        spec = ShiftSpec(nodes_per_class=20, seed=9)
        s1, t1 = make_shift_pair(spec)
        s2, t2 = make_shift_pair(spec)
        assert np.array_equal(s1.edges, s2.edges) and np.array_equal(t1.edges, t2.edges)
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(t1.features, t2.features)

    def test_shared_spaces(self):
        src, tgt = make_shift_pair(ShiftSpec(nodes_per_class=15, seed=2))
        assert src.num_classes == tgt.num_classes
        assert src.feature_dim == tgt.feature_dim
        assert src.labels is not None and tgt.labels is not None

    def test_overflowing_shifted_means_rejected(self):
        spec = ShiftSpec(
            nodes_per_class=5, feature_dim=1, class_mean_separation=1.7e308,
            target_mean_shift=1.7e308,
        )
        with pytest.raises(ContractError, match="shifted class means overflow"):
            make_shift_pair(spec)

    def test_no_shift_class_means_close(self):
        # with every shift knob at zero the two domains are iid draws, so
        # class-conditional means differ by sampling noise only
        spec = ShiftSpec(
            nodes_per_class=200,
            num_classes=3,
            feature_dim=8,
            target_mean_shift=0.0,
            edge_noise=0.0,
            seed=5,
        )
        src, tgt = make_shift_pair(spec)
        se = np.sqrt(2.0 / spec.nodes_per_class)  # unit feature noise, two samples
        for c in range(spec.num_classes):
            mu_s = src.features[src.labels == c].mean(axis=0)
            mu_t = tgt.features[tgt.labels == c].mean(axis=0)
            assert np.max(np.abs(mu_s - mu_t)) < 3.0 * se

    def test_larger_shift_degrades_frozen_model(self):
        # monotone trend of source-model accuracy in the shift magnitude
        mean_acc = []
        for shift in (0.0, 1.0, 2.5):
            accs = []
            for seed in range(1, 4):
                spec = ShiftSpec(
                    nodes_per_class=60,
                    feature_dim=16,
                    target_mean_shift=shift,
                    edge_noise=0.1,
                    seed=seed,
                )
                src, tgt = make_shift_pair(spec)
                model = init_model(16, 24, 3, 2, seed=seed)
                trained, _ = pretrain_source(
                    model, src, split_nodes(src, seed), epochs=100, lr=1e-2
                )
                fo = forward(trained, normalize_adjacency(tgt), tgt.features)
                accs.append(np.mean(np.argmax(fo.predictions, axis=1) == tgt.labels))
            mean_acc.append(np.mean(accs))
        assert mean_acc[0] >= mean_acc[1] >= mean_acc[2]


def test_neighbor_adjacency_with_mask(rng):
    g = TargetGraph(4, [(0, 1), (1, 2), (2, 3)], np.zeros((4, 1)), None, 1)
    layout = AdjacencyLayout(g.n, g.edges)

    def neighbors(weights):
        dense = layout.neighbors(np.asarray(weights, dtype=np.float64)).densify()
        assert set(np.unique(dense)) <= {0.0, 1.0} and not dense.diagonal().any()
        return [list(np.flatnonzero(row)) for row in dense]

    assert neighbors([1.0, 1.0, 1.0]) == [[1], [0, 2], [1, 3], [2]]
    assert neighbors([1.0, 0.0, 1.0]) == [[1], [0], [3], [2]]
