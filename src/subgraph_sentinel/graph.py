"""Immutable simple undirected graphs on vertices 0..N-1, bit-packed by row.

Adjacency is stored as N rows of 64-bit words, so counting the edges inside a
vertex subset is a masked word-parallel popcount over the subset's rows. That
operation sits in the inner loop of every scan-type statistic, which is why it
gets the packed layout instead of an edge list or a dense matrix.

The edge-list file format is a first line ``N M`` followed by M lines ``i j``
with 0 <= i < j < N, ASCII decimal, newline-terminated.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import GraphParseError, SelfLoopError

__all__ = ["Graph", "as_subset", "read_graph", "write_graph"]

_ONE = np.uint64(1)
_SIX3 = np.uint64(63)


def as_subset(subset, n):
    """Validate a vertex subset against a graph on n vertices.

    Accepts any iterable of integers; returns a sorted duplicate-free int64
    array. Raises IndexError for entries outside [0, n) and ValueError for
    duplicates.
    """
    if not isinstance(subset, (np.ndarray, list, tuple, range)):
        subset = list(subset)
    s = np.asarray(subset, dtype=np.int64)
    if s.ndim != 1:
        raise ValueError("subset must be one-dimensional")
    if s.size:
        if s.min() < 0 or s.max() >= n:
            raise IndexError(f"subset entry outside [0, {n})")
        s = np.sort(s)
        if np.any(s[1:] == s[:-1]):
            raise ValueError("subset contains duplicate vertices")
    return s


def _pack_mask(indices, words):
    """Bitmask with the given index bits set, as a uint64 word array."""
    mask = np.zeros(words, dtype=np.uint64)
    idx = np.asarray(indices, dtype=np.uint64)
    np.bitwise_or.at(mask, (idx >> np.uint64(6)).astype(np.int64), _ONE << (idx & _SIX3))
    return mask


class Graph:
    """An immutable simple undirected graph.

    Build one with ``Graph(n, edges)``, :func:`read_graph`, or the ``empty`` /
    ``complete`` constructors. All numpy views handed out are read-only.
    """

    __slots__ = ("_n", "_rows", "_degrees", "_adj")

    def __init__(self, n, edges=()):
        n = int(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        words = max(1, (n + 63) >> 6)
        rows = np.zeros((n, words), dtype=np.uint64)
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64)
        if edges.size:
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError("edges must be pairs")
            if edges.min() < 0 or edges.max() >= n:
                raise IndexError(f"edge endpoint outside [0, {n})")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise SelfLoopError("self loops are not allowed")
            a = np.minimum(edges[:, 0], edges[:, 1])
            b = np.maximum(edges[:, 0], edges[:, 1])
            src = np.concatenate([a, b])
            dst = np.concatenate([b, a]).astype(np.uint64)
            np.bitwise_or.at(rows, (src, (dst >> np.uint64(6)).astype(np.int64)),
                             _ONE << (dst & _SIX3))
        rows.setflags(write=False)
        self._n = n
        self._rows = rows
        self._degrees = None
        self._adj = None

    @classmethod
    def _from_rows(cls, n, rows):
        g = cls.__new__(cls)
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        rows.setflags(write=False)
        g._n = n
        g._rows = rows
        g._degrees = None
        g._adj = None
        return g

    @classmethod
    def empty(cls, n):
        return cls(n)

    @classmethod
    def complete(cls, n):
        words = max(1, (n + 63) >> 6)
        rows = np.zeros((n, words), dtype=np.uint64)
        if n:
            full = _pack_mask(np.arange(n), words)
            rows[:] = full
            for i in range(n):
                rows[i, i >> 6] ^= _ONE << np.uint64(i & 63)
        return cls._from_rows(n, rows)

    @property
    def n_nodes(self):
        return self._n

    @property
    def packed_rows(self):
        """Read-only (N, words) uint64 adjacency rows."""
        return self._rows

    def degrees(self):
        """Degree of every vertex as an int64 array."""
        if self._degrees is None:
            d = np.bitwise_count(self._rows).sum(axis=1).astype(np.int64)
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    def degree(self, i):
        if not 0 <= i < self._n:
            raise IndexError(f"vertex {i} outside [0, {self._n})")
        return int(self.degrees()[i])

    def total_edges(self):
        """Number of edges."""
        return int(self.degrees().sum()) // 2

    def has_edge(self, i, j):
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise IndexError("vertex outside range")
        if i == j:
            return False
        return bool((self._rows[i, j >> 6] >> np.uint64(j & 63)) & _ONE)

    def subgraph_edges(self, subset):
        """Number of edges with both endpoints in the subset."""
        s = as_subset(subset, self._n)
        if s.size < 2:
            return 0
        mask = _pack_mask(s, self._rows.shape[1])
        return int(np.bitwise_count(self._rows[s] & mask).sum()) // 2

    def adjacency(self, dtype=np.int8):
        """Dense symmetric 0/1 adjacency matrix (a fresh writable array)."""
        if self._adj is None:
            if self._n == 0:
                bits = np.zeros((0, 0), dtype=np.uint8)
            else:
                bits = np.unpackbits(self._rows.view(np.uint8), axis=1,
                                     bitorder="little")[:, : self._n]
            bits.setflags(write=False)
            self._adj = bits
        return self._adj.astype(dtype)

    def neighbors(self, i):
        if not 0 <= i < self._n:
            raise IndexError(f"vertex {i} outside [0, {self._n})")
        row = np.unpackbits(self._rows[i: i + 1].view(np.uint8), axis=1,
                            bitorder="little")[0, : self._n]
        return np.nonzero(row)[0]

    def row_bits(self, i):
        """Adjacency row i as a Python int bitset (bit j set iff edge i-j)."""
        return int.from_bytes(self._rows[i].tobytes(), "little")

    def edges(self):
        """All edges as an (M, 2) int64 array with i < j, lexicographically sorted."""
        a = self.adjacency(np.uint8)
        i, j = np.nonzero(np.triu(a, 1))
        return np.stack([i, j], axis=1).astype(np.int64)

    def complement(self):
        """Graph with exactly the missing pairs as edges."""
        n, words = self._n, self._rows.shape[1]
        if n == 0:
            return Graph(0)
        full = _pack_mask(np.arange(n), words)
        rows = (~self._rows) & full
        for i in range(n):
            rows[i, i >> 6] &= ~(_ONE << np.uint64(i & 63))
        return Graph._from_rows(n, rows)

    def subgraph(self, subset):
        """Induced subgraph, vertices relabeled to 0..k-1 in sorted order."""
        s = as_subset(subset, self._n)
        a = self.adjacency(np.uint8)[np.ix_(s, s)]
        i, j = np.nonzero(np.triu(a, 1))
        return Graph(s.size, np.stack([i, j], axis=1)) if i.size else Graph(s.size)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._rows.tobytes() == other._rows.tobytes()

    def __hash__(self):
        return hash((self._n, self._rows.tobytes()))

    def __repr__(self):
        return f"Graph(n={self._n}, m={self.total_edges()})"


def format_graph(graph):
    """The ``N M`` / ``i j`` edge-list text for a graph.

    Lines are sorted with i < j. A Graph cannot hold parallel edges, so the
    no-duplicates guarantee of the format holds by construction.
    """
    edges = graph.edges()
    head = f"{graph.n_nodes} {edges.shape[0]}\n"
    if not edges.size:
        return head
    # each line is laid out as width digits, a space, width digits and a
    # newline; the mask drops the leading zeros of the shorter numbers
    width = len(str(int(edges.max())))
    text = np.empty((edges.shape[0], 2 * width + 2), dtype=np.uint8)
    used = np.ones(text.shape, dtype=bool)
    text[:, width] = ord(" ")
    text[:, -1] = ord("\n")
    for col, values in ((0, edges[:, 0]), (width + 1, edges[:, 1])):
        for k in range(width):
            place = 10 ** (width - 1 - k)
            text[:, col + k] = values // place % 10 + ord("0")
            if place > 1:
                used[:, col + k] = values >= place
    return head + text[used].tobytes().decode("ascii")


def write_graph(graph, path):
    """Write a graph in the ``N M`` / ``i j`` edge-list format."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_graph(graph))


# what str.split() and str.strip() treat as whitespace in ASCII
_WHITESPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_IS_DIGIT = np.zeros(256, dtype=bool)
_IS_DIGIT[ord("0"): ord("9") + 1] = True
_IS_DIGIT_OR_SPACE = _IS_DIGIT.copy()
_IS_DIGIT_OR_SPACE[list(_WHITESPACE)] = True
_TO_SPACE = bytes.maketrans(_WHITESPACE, b" " * len(_WHITESPACE))
_MAX_DIGITS = 18        # every such token fits int64
_MAX_ARRAY_N = 2 ** 31  # the keys i * N + j fit int64


def _parse_edges_array(body, n, m):
    """Edges and duplicate count of an m-line body whose lines are each two
    runs of at most 18 digits with 0 <= i < j < n, parsed as arrays.

    Returns None for any other body; the per-line parser then decides, so
    this path never has to report an error.
    """
    if n > _MAX_ARRAY_N:
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    if not _IS_DIGIT_OR_SPACE[raw].all():
        return None
    step = np.diff(_IS_DIGIT[raw].view(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(step == 1)
    stops = np.flatnonzero(step == -1)
    if starts.size != 2 * m or (stops - starts).max() > _MAX_DIGITS:
        return None
    # line k holds exactly tokens 2k and 2k + 1 when every line break falls
    # between the end of an odd token and the start of the next even one
    breaks = np.flatnonzero(raw == ord("\n"))
    if not (np.all(stops[1:-1:2] <= breaks) and np.all(breaks < starts[2::2])):
        return None
    values = np.fromstring(body.translate(_TO_SPACE), dtype=np.int64, sep=" ")
    if values.size != 2 * m:
        return None
    i, j = values[0::2], values[1::2]
    if not (np.all(i < j) and np.all(j < n)):
        return None
    keys = i * n + j
    duplicates = 0 if np.all(keys[1:] > keys[:-1]) else m - np.unique(keys).size
    return np.stack([i, j], axis=1), duplicates


def _parse_edge_lines(lines, n):
    """Edges and duplicate count of the edge lines, checked one at a time;
    raises GraphParseError at the first bad line."""
    seen = set()
    edges = []
    duplicates = 0
    for line_no, line in enumerate(lines, start=2):
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
    return edges, duplicates


def read_graph(path):
    """Read an edge-list file; duplicate lines are collapsed with a warning.

    Any ASCII whitespace separates tokens, and CRLF or CR line ends read as
    LF. Raises GraphParseError (with the offending 1-based line number) on
    any format violation: a byte outside ASCII, bad header, non-integer
    tokens, i >= j, endpoints out of range, or an edge count that does not
    match the header.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # the universal newlines of text mode
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        pos = int(np.argmax(np.frombuffer(data, dtype=np.uint8) >= 0x80))
        raise GraphParseError(f"byte 0x{data[pos]:02x} is not ASCII",
                              line_no=data.count(b"\n", 0, pos) + 1)
    # allow trailing blank lines from the final newline, nothing else
    content_end = len(data.rstrip(_WHITESPACE))
    if not content_end:
        raise GraphParseError("empty file", line_no=1)
    line_end = data.find(b"\n", content_end)
    if line_end >= 0:
        data = data[:line_end]
    head_end = data.find(b"\n")
    head = (data if head_end < 0 else data[:head_end]).decode("ascii").split()
    if len(head) != 2:
        raise GraphParseError("header must be 'N M'", line_no=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError("header must hold two integers", line_no=1) from None
    if n < 0 or m < 0:
        raise GraphParseError("negative count in header", line_no=1)
    edge_lines = data.count(b"\n")
    if edge_lines != m:
        raise GraphParseError(f"header promises {m} edges, file has {edge_lines}",
                              line_no=1)
    if not m:
        return Graph(n)
    body = data[head_end + 1:]
    parsed = _parse_edges_array(body, n, m)
    if parsed is None:
        parsed = _parse_edge_lines(body.decode("ascii").split("\n"), n)
    edges, duplicates = parsed
    if duplicates:
        warnings.warn(f"collapsed {duplicates} duplicate edge line(s) in {path}",
                      stacklevel=2)
    return Graph(n, edges)
