import re
import warnings

import numpy as np
import pytest

from graphsfda import graph_store
from graphsfda.errors import ContractError, ParseError
from graphsfda.gnn import forward, init_model, pretrain_source
from graphsfda.graph_store import (
    AdjacencyLayout,
    ShiftSpec,
    TargetGraph,
    load_graph,
    make_shift_pair,
    mask_fault,
    read_table,
    read_text,
    save_graph,
    split_nodes,
)
from graphsfda.numerics import Tape

from conftest import adjacency, densify, random_graph


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


# Valid int64 endpoints far outside any graph. 3,037,000,499 is the largest
# span whose pair keys fit int64 unranked, so a pair (0, 3037000499) needs ranks.
INT64_EXTREMES = [-(2**63), -(2**62), 2**62, 2**63 - 1, 3_037_000_499]


def random_endpoints(rng, low, high, extreme_rate):
    """Two endpoints: each an id in [low, high), or with probability
    `extreme_rate` one of `INT64_EXTREMES`."""
    ids = rng.integers(low, high, size=2)
    return tuple(int(INT64_EXTREMES[rng.integers(len(INT64_EXTREMES))])
                 if rng.random() < extreme_rate else int(x) for x in ids)


def random_edge_text(rng, n):
    """An `.edges` text with blank lines, ids in [-1, n], loops, exact and
    mirrored repeats and, in some files, lines with 1 or 3 fields,
    non-integer tokens, integers beyond int64 or int64 extremes, repeated
    like the other pairs."""
    malformed = ["3", "0 1 2", "1 x", "0.5 1", "1e3 2", f"{2**63} 1", f"0 {-(2**63) - 1}"]
    format_rate = rng.choice([0.0, 0.0, 0.1])
    extreme_rate = rng.choice([0.0, 0.0, 0.05])
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
            u, v = random_endpoints(rng, low, n + (low < 0), extreme_rate)
        pairs.append((u, v))
        lines.append(f"{u}{' ' * int(rng.integers(1, 3))}{v}")
    return "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")


def per_line_read_table(path, width, dtype):
    """Reference reader: `read_table`'s per-line path alone, one `str.split`
    per line and one NumPy conversion of the lists of tokens."""
    fields = [line.split() for line in read_text(path).splitlines()]
    rows = [row for row in fields if row]
    line_numbers = np.flatnonzero(list(map(bool, fields))) + 1
    try:
        return np.array(rows, dtype=dtype).reshape(len(rows), width), line_numbers
    except (ValueError, OverflowError):
        for line, row in zip(line_numbers, rows):
            if len(row) != width:
                message = f"expected {width} fields, got {len(row)}"
                raise ParseError(f"{path}:{line}: {message}") from None
            try:
                np.array(row, dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}:{line}: {exc}") from None
        raise


TABLE_TOKENS = {
    np.int64: {
        "plain": ["0", "7", "-3", "+5", "-0", "007", "0009", "123456789",
                  str(2**63 - 1), str(-(2**63))],
        "odd": [str(2**63), str(-(2**63) - 1), "99999999999999999999", "1_0", "\u0663",
                "1.0", "0x10", "1e3", "x", "#"],
    },
    np.float64: {
        "plain": ["0", "-0.0", "1.5", ".5", "5.", "1e5", "1E-5", "-2.5e+300", "007.25",
                  "0.1", "5e-324", "2.4e-324", "1e-400", "1e400", "-1e400", "inf", "-inf",
                  "Infinity", "nan", "-nan", "+NaN", "1.7976931348623159e308"],
        "odd": ["1_0.5", "\u0663", "0x1p3", "1e", "nan(1)", "1,5", "1.2.3", "-", "1d3",
                "1j", "x"],
    },
}


def random_table_text(rng, width, dtype):
    """A table of about `width` fields per line: mostly plain numbers, and in
    some files blank or whitespace-only lines, lines of width - 1 or width + 1
    fields, tokens the C reader refuses (some of which Python accepts), form
    feeds or file separators between fields, no final newline, or no rows."""
    tokens = TABLE_TOKENS[dtype]
    if rng.random() < 0.06:
        return str(rng.choice(["", " ", "\n", "  \n\t\n", "\t"]))
    odd_rate = rng.choice([0.0, 0.0, 0.05])
    count_rate = rng.choice([0.0, 0.0, 0.0, 0.05])
    blank_rate = rng.choice([0.0, 0.15])
    separators = [" ", "  ", "\t", " \t "] + (["\x0c", "\x1c"] if rng.random() < 0.1 else [])
    lines = []
    for _ in range(int(rng.integers(1, 10))):
        if rng.random() < blank_rate:
            lines.append(str(rng.choice(["", "  ", "\t"])))
            continue
        fields = width
        if rng.random() < count_rate:
            fields = max(1, width + int(rng.choice([-1, 1])))
        row = [str(rng.choice(tokens["odd" if rng.random() < odd_rate else "plain"]))
               for _ in range(fields)]
        if dtype is np.float64 and rng.random() < 0.5:
            row[0] = repr(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
        sep = str(rng.choice(separators))
        lines.append(" " * int(rng.integers(0, 2)) + sep.join(row) + "\t" * int(rng.integers(0, 2)))
    return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")


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

        for i in range(400):
            # a quarter of the lists mix int64 extremes with exact and
            # mirrored repeats before and after them
            extreme_rate = 0.1 if i % 4 == 0 else 0.0
            edges = []
            for _ in range(int(rng.integers(0, 8))):
                if edges and rng.random() < 0.3:
                    u, v = edges[int(rng.integers(len(edges)))]
                    edges.append((v, u) if rng.random() < 0.5 else (u, v))
                else:
                    edges.append(random_endpoints(rng, -1, 7, extreme_rate))
            expected = loop_oracle(5, edges)
            try:
                TargetGraph(5, edges, np.zeros((5, 1)), None, 2)
                message = None
            except ContractError as exc:
                message = str(exc)
            assert message == expected, edges

    def test_edges_canonical_read_only_array(self):
        for edges in ([(3, 1), (0, 2)], np.asfortranarray([[3, 1], [0, 2]])):
            g = TargetGraph(4, edges, np.zeros((4, 1)), None, 2)
            assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous
            assert np.array_equal(g.edges, [[1, 3], [0, 2]])
            with pytest.raises(ValueError):
                g.edges[0, 0] = 0

    @pytest.mark.parametrize("edges", [[], (), np.zeros((0, 2), dtype=np.int64)],
                             ids=["list", "tuple", "array"])
    def test_empty_edge_list(self, edges):
        g = TargetGraph(3, edges, np.zeros((3, 1)), None, 2)
        assert g.edges.shape == (0, 2) and g.num_edges == 0
        assert np.array_equal(densify(adjacency(g)), np.eye(3))


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        adj = adjacency(single_node_graph())
        assert np.array_equal(densify(adj), [[1.0]])

    def test_two_nodes_one_edge(self):
        g = TargetGraph(2, [(0, 1)], np.zeros((2, 1)), None, 1)
        dense = densify(adjacency(g))
        assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_zero_weight_equals_deletion(self, rng):
        g = random_graph(rng, 8, 3, 2)
        weights = np.ones(g.num_edges)
        weights[0] = 0.0
        masked = densify(adjacency(g, weights))
        removed = densify(adjacency(
            TargetGraph(g.n, g.edges[1:], g.features, g.labels, g.num_classes)
        ))
        assert np.array_equal(masked, removed) or np.max(np.abs(masked - removed)) <= 1e-15

    def test_weight_out_of_range(self, rng):
        g = random_graph(rng, 5, 2, 2)
        bad = np.ones(g.num_edges)
        bad[0] = 1.5
        with pytest.raises(ContractError, match="edge weight entry 1.5 outside"):
            AdjacencyLayout(g.n, g.edges).normalized(bad)

    def test_nan_weight(self, rng):
        g = random_graph(rng, 5, 2, 2)
        bad = np.ones(g.num_edges)
        bad[-1] = np.nan
        with pytest.raises(ContractError, match="edge weight entry nan outside"):
            AdjacencyLayout(g.n, g.edges).normalized(bad)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_weight_count_checked(self, rng, extra):
        g = random_graph(rng, 5, 2, 2, edge_p=0.6)
        with pytest.raises(ContractError, match=f"expected {g.num_edges} edge weights"):
            AdjacencyLayout(g.n, g.edges).normalized(np.ones(g.num_edges + extra))

    def test_exactly_symmetric(self, rng):
        g = random_graph(rng, 20, 2, 2, edge_p=0.4)
        w = rng.uniform(0.0, 1.0, g.num_edges)
        dense = densify(adjacency(g, w))
        assert np.array_equal(dense, dense.T)  # bitwise, by shared per-edge values

    def test_row_sums_positive(self, rng):
        g = random_graph(rng, 15, 2, 2, edge_p=0.3)
        sums = densify(adjacency(g)).sum(axis=1)
        assert np.all(sums > 0)

    def test_row_sums_one_on_regular_graphs(self):
        # cycle: every node has degree 2, so normalization gives rows summing to 1
        n = 6
        g = TargetGraph(n, [(i, (i + 1) % n) for i in range(n)], np.zeros((n, 1)), None, 1)
        sums = densify(adjacency(g)).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_mask_fault_names_first_entry_outside_unit_interval():
    assert mask_fault(np.array([0.0, 1.0, 0.5])) is None
    assert mask_fault(np.zeros(0)) is None
    assert mask_fault(np.array([0.2, np.nan, 1.5])) == (1, "entry nan outside [0,1]")
    assert mask_fault(np.array([1.0, -0.0, -1e-300]))[0] == 2


def unique_rows_first_same_pair(pairs):
    """The row-wise formula `_first_same_pair` replaced: each row's first
    same-pair index from `np.unique(axis=0)` over the rows sorted in place."""
    _, first, inverse = np.unique(
        np.sort(pairs, axis=1), axis=0, return_index=True, return_inverse=True
    )
    return first[inverse.ravel()]


# endpoint pools: small ids, a span at the int64 key limit (3,037,000,499
# ids: keys fit), one past it (ranks needed), a span of 2**32 + 1 ids, where
# unranked keys wrap and (1, 2**32 - 1) and (2**32, 2**32) would share one,
# and the int64 extremes
FIRST_PAIR_POOLS = {
    "small": np.arange(-1, 7),
    "span-at-limit": np.array([0, 1, 3_037_000_497, 3_037_000_498]),
    "span-past-limit": np.array([0, 1, 3_037_000_498, 3_037_000_499]),
    "wrapping-span": np.array([0, 1, 2**32 - 1, 2**32]),
    "negative-base-at-limit": np.array([-(2**63), -(2**63) + 3_037_000_498]),
    "int64-extremes": np.array([0, 1, 2, *INT64_EXTREMES]),
}


@pytest.mark.parametrize("pool", list(FIRST_PAIR_POOLS))
def test_first_same_pair_matches_unique_rows(rng, pool):
    values = FIRST_PAIR_POOLS[pool]
    for _ in range(200):
        e = int(rng.integers(0, 12))
        pairs = values[rng.integers(len(values), size=(e, 2))]
        # exact and mirrored repeats of earlier rows, before and after extremes
        repeat = np.flatnonzero(rng.random(e) < 0.3)
        for i in repeat[repeat > 0]:
            j = int(rng.integers(i))
            pairs[i] = pairs[j, ::-1] if rng.random() < 0.5 else pairs[j]
        got = graph_store._first_same_pair(pairs)
        assert np.array_equal(got, unique_rows_first_same_pair(pairs)), pairs


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
        outcomes = {"format": 0, "content": 0, "loaded": 0, "warned": 0}
        for i in range(600):
            # each draw under a fresh prefix: truncating one file 600 times
            # is slow on some filesystems
            text = random_edge_text(rng, n)
            (tmp_path / f"t{i}.meta").write_text(f"{n} 1 2\n")
            (tmp_path / f"t{i}.feat").write_text("0\n" * n)
            (tmp_path / f"t{i}.edges").write_text(text)
            named = re.compile(rf"t{i}\.edges:(\d+): ")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    g, line = load_graph(tmp_path / f"t{i}"), None
                except ParseError as exc:
                    g, line = None, int(named.search(str(exc)).group(1))
            got_warned = [int(named.search(str(w.message)).group(1)) for w in caught]
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

    @pytest.mark.parametrize("dtype", [np.int64, np.float64], ids=["int64", "float64"])
    def test_read_table_matches_per_line_reader(self, tmp_path, rng, monkeypatch, dtype):
        def outcome(read, path, width):
            try:
                values, lines = read(path, width, dtype)
            except ParseError as exc:
                return str(exc)
            return (values.shape, values.dtype, values.view(np.int64).tolist(),
                    lines.dtype, lines.tolist())

        paths = {"c_reader": 0, "fallback": 0}

        def counted(text, width, dtype):
            parsed = c_read_table(text, width, dtype)
            paths["fallback" if parsed is None else "c_reader"] += 1
            return parsed

        c_read_table = graph_store._c_read_table
        monkeypatch.setattr(graph_store, "_c_read_table", counted)
        loaded = 0
        for i in range(400):
            width = int(rng.integers(1, 4))
            text = random_table_text(rng, width, dtype)
            path = tmp_path / f"t{i}.txt"
            path.write_text(text, encoding="utf-8")
            got = outcome(read_table, path, width)
            assert got == outcome(per_line_read_table, path, width), repr(text)
            loaded += not isinstance(got, str)
        assert min(paths["c_reader"], paths["fallback"], loaded, 400 - loaded) >= 30, \
            (paths, loaded)

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
        with pytest.raises(ContractError, match="seed must be nonnegative, got -1"):
            ShiftSpec(seed=-1)


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
                _, p0 = forward(trained, adjacency(tgt), tgt.features)
                accs.append(np.mean(np.argmax(p0, axis=1) == tgt.labels))
            mean_acc.append(np.mean(accs))
        assert mean_acc[0] >= mean_acc[1] >= mean_acc[2]


def live_normalized(layout, w):
    tape = Tape()  # held while the entries are recorded on it
    return layout.normalized(tape.leaf(w.reshape(-1, 1)))


LAYOUT_MATRICES = {
    "normalized": lambda layout, w: layout.normalized(w),
    "normalized-live": live_normalized,
    "neighbors": lambda layout, w: layout.neighbors(w),
}


@pytest.mark.parametrize("matrix", list(LAYOUT_MATRICES))
def test_layout_matrices_equal_their_transpose(rng, matrix):
    # `spmm` takes its gradient in x, a product with the transpose, from
    # its one row table: that holds only while every matrix is symmetric
    g = random_graph(rng, 30, 2, 2, edge_p=0.15)
    w = rng.uniform(0.0, 1.0, g.num_edges) * (rng.random(g.num_edges) >= 0.3)
    dense = densify(LAYOUT_MATRICES[matrix](AdjacencyLayout(g.n, g.edges), w))
    assert np.array_equal(dense, dense.T)


def test_neighbor_adjacency_with_mask(rng):
    g = TargetGraph(4, [(0, 1), (1, 2), (2, 3)], np.zeros((4, 1)), None, 1)
    layout = AdjacencyLayout(g.n, g.edges)

    def neighbors(weights):
        dense = densify(layout.neighbors(np.asarray(weights, dtype=np.float64)))
        assert set(np.unique(dense)) <= {0.0, 1.0} and not dense.diagonal().any()
        return [list(np.flatnonzero(row)) for row in dense]

    assert neighbors([1.0, 1.0, 1.0]) == [[1], [0, 2], [1, 3], [2]]
    assert neighbors([1.0, 0.0, 1.0]) == [[1], [0], [3], [2]]
