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
from numbers import Integral, Real

import numpy as np

from .errors import GraphParseError, SelfLoopError

__all__ = ["Graph", "as_subset", "read_graph", "write_graph"]

_ONE = np.uint64(1)
_SIX3 = np.uint64(63)
_BIT = (1 << np.arange(8)).astype(np.uint8)  # bit k of a byte
_INT64_END = 2 ** 63  # every v with |v| < 2**63 fits int64


def _whole(value):
    """value as an int if it is an integer (numpy's too) or a whole finite
    real such as 2.0, else None; a bool or a string is neither."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return None
    if isinstance(value, Integral) or float(value).is_integer():  # not nan, inf
        return int(value)
    return None


def _int_array(values, what):
    """Any iterable of integers as an int64 array.

    An entry is what _whole accepts. Any other entry (1.7, nan, True, "1")
    raises ValueError naming it as ``what``, where a cast would silently
    truncate 1.7 to 1 or read True as 1. An entry beyond int64 lies outside
    every vertex range, so it becomes negative, which the caller's range
    check refuses.
    """
    if not isinstance(values, np.ndarray):
        if not isinstance(values, (list, tuple, range)):
            values = list(values)
        # a conversion reads True as 1, so the entries' types come first;
        # a flat sequence of ints, the common case, needs no more
        if not set(map(type, values)) <= {int}:
            entries = np.asarray(values, dtype=object)
            for cls in set(map(type, entries.flat)):
                if issubclass(cls, bool) or not issubclass(cls, Real):
                    _refuse(next(v for v in entries.flat if type(v) is cls), what)
        values = np.asarray(values)
    kind = values.dtype.kind
    if kind in "iu":  # a uint64 beyond int64 wraps to a negative entry
        return values.astype(np.int64, copy=False)
    if kind == "f":
        integral = np.isfinite(values) & (values == np.floor(values))
        if not integral.all():
            _refuse(values[~integral][0], what)
        return np.where(np.abs(values) < _INT64_END, values, -1).astype(np.int64)
    # integers beyond int64 and reals that numpy holds as objects, one by
    # one; or no numbers at all, such as bools and strings
    whole = [_whole(v) if kind == "O" else None for v in values.flat]
    if None in whole:
        _refuse(values.flat[whole.index(None)], what)
    return np.array([v if abs(v) < _INT64_END else -1 for v in whole],
                    dtype=np.int64).reshape(values.shape)


def _refuse(value, what):
    """Raise the ValueError for an entry that is not an integer."""
    if isinstance(value, np.generic):  # a numpy scalar, shown as Python's
        value = value.item()
    raise ValueError(f"{what} {value!r} is not an integer")


def as_subset(subset, n):
    """Validate a vertex subset against a graph on n vertices.

    Accepts any iterable of integers; returns a sorted duplicate-free int64
    array. Raises IndexError for entries outside [0, n) and ValueError for
    duplicates or entries that are not integers.
    """
    s = _int_array(subset, "subset entry")
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

    __slots__ = ("_n", "_rows", "_degrees")

    def __init__(self, n, edges=()):
        count = _whole(n)
        if count is None:
            _refuse(n, "vertex count")
        n = count
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        try:
            rows = np.zeros((n, max(1, (n + 63) >> 6)), dtype=np.uint64)
        except ValueError:  # beyond what numpy can even describe
            raise MemoryError(f"the packed rows of {n} vertices exceed numpy's "
                              "largest array") from None
        edges = _int_array(edges, "edge endpoint")
        if edges.size:
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError("edges must be pairs")
            if edges.min() < 0 or edges.max() >= n:
                raise IndexError(f"edge endpoint outside [0, {n})")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise SelfLoopError("self loops are not allowed")
            # row 0 of ends holds each edge's first endpoint, row 1 its
            # second, and other the opposite ones, so one call sets each edge
            # in both of its rows; bit j of a row is bit j & 7 of its byte
            # j >> 3, as adjacency() reads them
            ends = edges.T
            other = ends[::-1]
            bits = _BIT[other & 7]
            np.bitwise_or.at(rows.view(np.uint8), (ends, other >> 3), bits)
        rows.setflags(write=False)
        self._n = n
        self._rows = rows
        self._degrees = None

    @classmethod
    def _from_rows(cls, n, rows):
        g = cls.__new__(cls)
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        rows.setflags(write=False)
        g._n = n
        g._rows = rows
        g._degrees = None
        return g

    @classmethod
    def empty(cls, n):
        return cls(n)

    @classmethod
    def complete(cls, n):
        return cls.empty(n).complement()

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
        if self._n == 0:
            return np.zeros((0, 0), dtype=dtype)
        bits = np.unpackbits(self._rows.view(np.uint8), axis=1,
                             bitorder="little")[:, : self._n]
        return bits.astype(dtype)

    def row_bits(self, i):
        """Adjacency row i as a Python int bitset (bit j set iff edge i-j)."""
        return int.from_bytes(self._rows[i].tobytes(), "little")

    def edges(self):
        """All edges as an (M, 2) int64 array with i < j, lexicographically sorted."""
        rows = self._rows
        # the nonzero words on or right of the diagonal word, in row-major
        # order, with the bits j <= i of each diagonal word cleared; only
        # these are unpacked, so the work follows the edges, not N^2
        i, w = np.nonzero(rows)
        right = w >= i >> 6
        i, w = i[right], w[right]
        words = rows[i, w]
        diag = w == i >> 6
        words[diag] &= ~_ONE << (i[diag] & 63).astype(np.uint64)
        bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        # bit b of the k-th word is edge (i[k], 64 w[k] + b); each word's
        # edges are consecutive, so repeating i and w by the word's bit count
        # lines them up without an array of word numbers
        counts = np.bitwise_count(words)
        j = np.flatnonzero(bits)
        j &= 63
        j += np.repeat(w << 6, counts)
        return np.stack([np.repeat(i, counts), j], axis=1).astype(np.int64, copy=False)

    def complement(self):
        """Graph with exactly the missing pairs as edges."""
        n, words = self._n, self._rows.shape[1]
        if n == 0:
            return Graph(0)
        full = _pack_mask(np.arange(n), words)
        rows = (~self._rows) & full
        i = np.arange(n)
        rows[i, i >> 6] &= ~(_ONE << (i & 63).astype(np.uint64))
        return Graph._from_rows(n, rows)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._rows.tobytes() == other._rows.tobytes()

    def __hash__(self):
        return hash((self._n, self._rows.tobytes()))

    def __repr__(self):
        return f"Graph(n={self._n}, m={self.total_edges()})"


def graph_from_upper(upper):
    """Graph whose edges are the True entries of a square bool array, all of
    which must lie strictly above the diagonal.

    The array is mirrored in place, so the call spends it; its rows are then
    bit-packed and zero-padded to whole words, the layout Graph(n, edges)
    builds from the same edges.
    """
    n = upper.shape[0]
    upper |= upper.T
    rows = np.zeros((n, 8 * max(1, (n + 63) >> 6)), dtype=np.uint8)
    rows[:, : (n + 7) >> 3] = np.packbits(upper, axis=1, bitorder="little")
    return Graph._from_rows(n, rows.view("<u8"))


def format_graph(graph):
    """The ``N M`` / ``i j`` edge-list text for a graph.

    Lines are sorted with i < j. A Graph cannot hold parallel edges, so the
    no-duplicates guarantee of the format holds by construction.
    """
    edges = graph.edges()
    head = f"{graph.n_nodes} {edges.shape[0]}\n"
    if not edges.size:
        return head
    # row v of digits spells v in width columns, right-aligned and padded
    # with zero bytes; each line is laid out as width columns, a space, width
    # columns and a newline, and dropping the zero bytes closes it up
    top = int(edges.max())
    width = len(str(top))
    values = np.arange(top + 1)
    digits = np.zeros((top + 1, width), dtype=np.uint8)
    for k in range(width):
        place = 10 ** (width - 1 - k)
        digits[:, k] = np.where(values >= place, values // place % 10 + ord("0"), 0)
    digits[0, -1] = ord("0")
    text = np.empty((edges.shape[0], 2 * width + 2), dtype=np.uint8)
    text[:, :width] = digits[edges[:, 0]]
    text[:, width] = ord(" ")
    text[:, width + 1: -1] = digits[edges[:, 1]]
    text[:, -1] = ord("\n")
    del edges  # twice the text: gone before it is closed up
    return head + str(text[text != 0], "ascii")


def write_graph(graph, path):
    """Write a graph in the ``N M`` / ``i j`` edge-list format."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_graph(graph))


# what str.split() and str.strip() treat as whitespace in ASCII
_WHITESPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
# keeps digits and newlines, turns every other whitespace byte into a space
# (np.fromstring skips the first six of _WHITESPACE, not the last four) and
# any other byte into an "x"
_ARRAY_TEXT = bytes(c if c in b"0123456789\n" else ord(" ") if c in _WHITESPACE
                    else ord("x") for c in range(256))
_MAX_ARRAY_N = 2 ** 31  # the keys i * N + j fit int64


def _parse_edges_array(data, n, m):
    """Edges and duplicate count of a whole file whose header has been read
    as n and m, when the file is digits and whitespace alone, its first m
    lines after the header each hold two numbers with 0 <= i < j < n, and
    nothing but whitespace follows them; parsed as arrays.

    Returns None for any other file; the per-line parser then decides, so
    this path never has to report an error.
    """
    if n > _MAX_ARRAY_N:
        return None
    text = data.translate(_ARRAY_TEXT)
    if b"x" in text:
        return None
    # each newline reads as the value -1, which no digit run gives; then
    # the file reads as N M, and -1 i j for each edge line, then only -1s.
    # A run too long for int64 reads as the int64 maximum, which j < n
    # refuses.
    text = text.replace(b"\n", b" -1 ")
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    del text  # as large as the file: gone before the checks
    if values.size < 2 + 3 * m:
        return None
    lines = values[2: 2 + 3 * m].reshape(m, 3)
    i, j = lines[:, 1], lines[:, 2]
    if not (np.all(lines[:, 0] == -1) and np.all(values[2 + 3 * m:] == -1)
            and np.all(i >= 0) and np.all(i < j) and np.all(j < n)):
        return None
    keys = i * n + j
    duplicates = 0 if np.all(keys[1:] > keys[:-1]) else m - np.unique(keys).size
    return lines[:, 1:], duplicates


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
    # allow trailing blank lines from the final newline, nothing else: the
    # file's lines end at the first newline after its last token
    content_end = len(data.rstrip(_WHITESPACE))
    if not content_end:
        raise GraphParseError("empty file", line_no=1)
    line_end = data.find(b"\n", content_end)
    if line_end < 0:
        line_end = len(data)
    head_end = data.find(b"\n", 0, line_end)
    head = data[:line_end if head_end < 0 else head_end].decode("ascii").split()
    if len(head) != 2:
        raise GraphParseError("header must be 'N M'", line_no=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError("header must hold two integers", line_no=1) from None
    if n < 0 or m < 0:
        raise GraphParseError("negative count in header", line_no=1)
    edge_lines = data.count(b"\n", 0, line_end)
    if edge_lines != m:
        raise GraphParseError(f"header promises {m} edges, file has {edge_lines}",
                              line_no=1)
    if not m:
        return Graph(n)
    parsed = _parse_edges_array(data, n, m)
    if parsed is None:
        parsed = _parse_edge_lines(
            data[head_end + 1: line_end].decode("ascii").split("\n"), n)
    del data  # gone before Graph packs the edges
    edges, duplicates = parsed
    if duplicates:
        warnings.warn(f"collapsed {duplicates} duplicate edge line(s) in {path}",
                      stacklevel=2)
    return Graph(n, edges)
