"""Graph container and edge-list IO."""

import warnings

import numpy as np
import pytest

from subgraph_sentinel.errors import GraphParseError, SelfLoopError
from subgraph_sentinel.graph import Graph, as_subset, format_graph, read_graph, write_graph
from subgraph_sentinel.models import ModelSpec, sample


class TestConstruction:
    def test_empty(self):
        g = Graph.empty(5)
        assert g.n_nodes == 5
        assert g.total_edges() == 0
        assert np.all(g.degrees() == 0)

    def test_complete(self):
        g = Graph.complete(7)
        assert g.total_edges() == 21
        assert np.all(g.degrees() == 6)
        for i in range(7):
            assert not g.has_edge(i, i)

    def test_zero_vertices(self):
        g = Graph(0)
        assert g.n_nodes == 0
        assert g.total_edges() == 0
        assert g.adjacency().shape == (0, 0)
        assert g.edges().shape == (0, 2)

    def test_edge_order_irrelevant(self):
        assert Graph(4, [(0, 1), (2, 3)]) == Graph(4, [(3, 2), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(4, [(1, 1)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(IndexError):
            Graph(4, [(0, 4)])
        with pytest.raises(IndexError):
            Graph(4, [(-1, 2)])

    def test_negative_n(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_crossing_word_boundary(self):
        # vertices above index 63 land in the second 64-bit word
        g = Graph(70, [(0, 69), (63, 64), (64, 65)])
        assert g.has_edge(0, 69) and g.has_edge(69, 0)
        assert g.has_edge(63, 64)
        assert g.has_edge(64, 65)
        assert not g.has_edge(0, 64)
        assert g.total_edges() == 3

    def test_rows_read_only(self, k4):
        with pytest.raises(ValueError):
            k4.packed_rows[0, 0] = 0


class TestQueries:
    def test_degrees_match_adjacency(self, graph_battery):
        for g in graph_battery:
            a = g.adjacency(np.int64)
            assert np.array_equal(g.degrees(), a.sum(axis=0))
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)

    def test_subgraph_edges_vs_brute(self, graph_battery):
        rng = np.random.default_rng(5150)
        for g in graph_battery:
            n = g.n_nodes
            for _ in range(10):
                k = int(rng.integers(0, n + 1))
                s = rng.choice(n, size=k, replace=False)
                brute = sum(
                    1
                    for ai in range(k)
                    for bi in range(ai + 1, k)
                    if g.has_edge(int(s[ai]), int(s[bi]))
                )
                assert g.subgraph_edges(s) == brute

    def test_full_subset_is_total(self, graph_battery):
        for g in graph_battery:
            assert g.subgraph_edges(range(g.n_nodes)) == g.total_edges()

    def test_neighbors(self):
        g = Graph(6, [(0, 3), (0, 5), (2, 3)])
        assert list(g.neighbors(0)) == [3, 5]
        assert list(g.neighbors(3)) == [0, 2]
        assert list(g.neighbors(1)) == []

    def test_row_bits(self):
        g = Graph(6, [(0, 3), (0, 5)])
        assert g.row_bits(0) == (1 << 3) | (1 << 5)
        assert g.row_bits(1) == 0

    def test_edges_sorted(self, graph_battery):
        for g in graph_battery:
            e = g.edges()
            assert np.all(e[:, 0] < e[:, 1])
            as_tuples = [tuple(row) for row in e]
            assert as_tuples == sorted(as_tuples)
            assert len(e) == g.total_edges()

    def test_complement_involution(self, graph_battery):
        for g in graph_battery:
            c = g.complement()
            n = g.n_nodes
            assert g.total_edges() + c.total_edges() == n * (n - 1) // 2
            assert c.complement() == g

    def test_induced_subgraph(self):
        g = Graph(5, [(0, 1), (1, 3), (3, 4), (0, 4)])
        sub = g.subgraph([0, 1, 3])
        # relabeled: 0->0, 1->1, 3->2
        assert sub.n_nodes == 3
        assert sorted(map(tuple, sub.edges())) == [(0, 1), (1, 2)]

    def test_equality_and_hash(self, k4):
        same = Graph.complete(4)
        assert k4 == same
        assert hash(k4) == hash(same)
        assert k4 != Graph(4, [(0, 1)])
        assert k4.__eq__(42) is NotImplemented


class TestAsSubset:
    def test_sorts_and_types(self):
        s = as_subset((3, 1, 2), 5)
        assert s.dtype == np.int64
        assert list(s) == [1, 2, 3]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            as_subset([1, 1], 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            as_subset([5], 5)
        with pytest.raises(IndexError):
            as_subset([-1], 5)

    def test_empty_ok(self):
        assert as_subset([], 5).size == 0

    def test_generator_input(self):
        assert list(as_subset((v for v in (4, 0)), 5)) == [0, 4]


class TestIO:
    def test_format_exact(self, tmp_path):
        g = Graph(4, [(2, 3), (0, 1)])
        assert format_graph(g) == "4 2\n0 1\n2 3\n"

    def test_round_trip(self, tmp_path, graph_battery):
        for idx, g in enumerate(graph_battery):
            path = tmp_path / f"g{idx}.txt"
            write_graph(g, path)
            assert read_graph(path) == g

    def test_round_trip_bytes_stable(self, tmp_path, k4):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_graph(k4, p1)
        write_graph(read_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_lines_collapse_with_warning(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("3 3\n0 1\n0 1\n1 2\n")
        with pytest.warns(UserWarning, match="duplicate"):
            g = read_graph(path)
        assert g.total_edges() == 2

    @pytest.mark.parametrize(
        "text,line_no",
        [
            ("", 1),
            ("3\n", 1),
            ("a b\n", 1),
            ("-1 0\n", 1),
            ("3 2\n0 1\n", 1),  # count mismatch is a header-level complaint
            ("3 1\n0 1 2\n", 2),
            ("3 1\nx y\n", 2),
            ("3 1\n1 0\n", 2),  # i >= j
            ("3 1\n0 0\n", 2),
            ("3 2\n0 1\n0 3\n", 3),  # out of range on line 3
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, text, line_no):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(GraphParseError) as err:
            read_graph(path)
        assert err.value.line_no == line_no
        assert str(line_no) in str(err.value)

    def test_non_ascii_byte_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        for data, line_no in ((b"3 1\n0 \xc3\xa9\n", 2), (b"\xff3 0\n", 1),
                              (b"3 2\r\n0 1\r1 \x80\n", 3)):
            path.write_bytes(data)
            with pytest.raises(GraphParseError, match="not ASCII") as err:
                read_graph(path)
            assert err.value.line_no == line_no


# -- reference implementations the array reader and writer must match ----------

def reference_format(graph):
    """The per-edge f-string writer that format_graph replaced."""
    edges = graph.edges()
    lines = [f"{graph.n_nodes} {edges.shape[0]}"]
    lines.extend(f"{i} {j}" for i, j in edges)
    return "\n".join(lines) + "\n"


def reference_read(path):
    """The per-line reader that read_graph's array path replaced."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise GraphParseError("empty file", line_no=1)
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError("header must be 'N M'", line_no=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError("header must hold two integers", line_no=1) from None
    if n < 0 or m < 0:
        raise GraphParseError("negative count in header", line_no=1)
    if len(lines) - 1 != m:
        raise GraphParseError(f"header promises {m} edges, file has {len(lines) - 1}",
                              line_no=1)
    seen = set()
    edges = []
    duplicates = 0
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("edge line must be 'i j'", line_no=line_no)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("non-integer endpoint", line_no=line_no) from None
        if not (0 <= i < j < n):
            raise GraphParseError(f"edge ({i}, {j}) violates 0 <= i < j < {n}",
                                  line_no=line_no)
        if (i, j) in seen:
            duplicates += 1
            continue
        seen.add((i, j))
        edges.append((i, j))
    if duplicates:
        warnings.warn(f"collapsed {duplicates} duplicate edge line(s) in {path}",
                      stacklevel=2)
    return Graph(n, edges)


def read_outcome(reader, path):
    """(Graph or (message, line_no), warning texts) of one read."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = reader(path)
        except GraphParseError as exc:
            result = (str(exc), exc.line_no)
    return result, [str(w.message) for w in caught]


def _mutate(rng, n, lines):
    """Apply one edit, drawn from what real edge-list files get wrong or
    merely spell differently, to a list of 'i j' lines."""
    k = int(rng.integers(len(lines))) if lines else 0
    kind = rng.integers(16)
    if not lines or kind == 0:  # blank or whitespace-only middle line
        lines.insert(k, str(rng.choice(["", "  ", "\t", " \x0c "])))
        return
    a, b = (lines[k].split(" ", 1) + [""])[:2]
    if kind == 1:  # tab, form feed or file separator between the tokens
        lines[k] = lines[k].replace(" ", str(rng.choice(["\t", "\x0c", "\x1c", " \t "])), 1)
    elif kind == 2:
        lines[k] += str(rng.choice([" ", "  ", "\t"]))
    elif kind == 3:
        lines[k] = f"{a} +{b}" if rng.random() < 0.5 else f"+{a} {b}"
    elif kind == 4:  # an underscore inside a token still reads as an integer
        lines[k] = f"{a} {b[0]}_{b[1:]}" if len(b) > 1 else f"0_{a} {b}"
    elif kind == 5:  # 20 digits: zero padding, or a value far out of range
        lines[k] = f"{a} {b.zfill(20)}" if rng.random() < 0.7 else f"{a} 12345678901234567890"
    elif kind == 6:
        lines[k] = f"{a} {b} {rng.integers(n + 1)}"
    elif kind == 7:
        lines[k] = a
    elif kind == 8:
        lines[k] = f"{b} {a}"
    elif kind == 9:
        lines[k] = f"{a} {n + rng.integers(3)}"
    elif kind in (10, 11):  # duplicate line
        lines.insert(int(rng.integers(len(lines) + 1)), lines[k])
    elif kind == 12:
        lines[k] = f" {a} {b}"
    elif kind == 13:
        lines[k] = f"{a} {b}".replace(" ", "  ")
    elif kind == 14 and k + 1 < len(lines):  # a token moved to the next line
        lines[k], lines[k + 1] = a, f"{b} {lines[k + 1]}"
    elif kind == 15:
        lines[k] = f"{a}{rng.choice(['x', '-', '.5', ''])} {b}"


def fuzzed_edge_list(rng):
    """A small edge-list text: a valid file with zero to three edits."""
    n = int(rng.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pick = np.sort(rng.permutation(len(pairs))[: int(rng.integers(0, 10))])
    lines = [f"{pairs[k][0]} {pairs[k][1]}" for k in pick]
    for _ in range(int(rng.integers(0, 4))):
        _mutate(rng, n, lines)
    m = len(lines) if rng.random() < 0.85 else len(lines) + int(rng.choice([-1, 1]))
    text = "\n".join([f"{n} {m}"] + lines)
    ending = rng.integers(4)
    if ending == 0:  # missing final newline
        pass
    elif ending == 1:
        text += "\n\n \n"
    else:
        text += "\n"
    style = rng.integers(6)
    if style == 0:
        text = text.replace("\n", "\r\n")
    elif style == 1:
        text = text.replace("\n", "\r")
    return text.encode("ascii")


class TestArrayIO:
    def test_reader_matches_per_line_reference(self, tmp_path):
        rng = np.random.default_rng(20261018)
        path = tmp_path / "fuzz.txt"
        accepted = rejected = 0
        for _ in range(2000):
            data = fuzzed_edge_list(rng)
            path.write_bytes(data)
            got = read_outcome(read_graph, path)
            want = read_outcome(reference_read, path)
            assert got == want, data
            if isinstance(want[0], Graph):
                accepted += 1
            else:
                rejected += 1
        # the texts reach both outcomes, not just one of them
        assert accepted > 400 and rejected > 400

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_writer_matches_reference_and_round_trips(self, tmp_path):
        graphs = [sample(ModelSpec.planted(2000, 0.3, 0.6, 60), 11),
                  sample(ModelSpec.planted(4000, 0.01, 0.1, 80), 12),
                  Graph.empty(5), Graph.complete(70)]
        path = tmp_path / "g.txt"
        for g in graphs:
            assert format_graph(g) == reference_format(g)
            write_graph(g, path)
            assert read_graph(path) == g
