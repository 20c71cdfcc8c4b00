"""Property searches over the edge-list format.

* format_graph -> read_graph gives the graph back under any respelling the
  format allows: any ASCII whitespace around and between the tokens, LF,
  CR or CRLF line ends, trailing blank lines and duplicate edge lines, the
  last collapsed with one warning that counts them;
* one malformed edit of such a file ends exactly as the per-line
  reference reader of tests/test_graph.py ends: the same GraphParseError
  message and line number, the same graph and warnings, or the same other
  error (a header N too large to hold is out of memory);
* a byte outside ASCII is refused on the line that holds it.

The second search runs again with read chunks of about one line, so that
the array reader crosses chunk boundaries on these small files. Each search
is derandomized, keeps no example database and runs a fixed number of
examples, so it tries the same files on every run; the four take about 11 s
together on a shared 2-core machine.
"""

import pytest

from subgraph_sentinel.errors import GraphParseError
from subgraph_sentinel.graph import Graph, format_graph, read_graph

from test_graph import read_outcome, reference_read, tiny_blocks

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SETTINGS = {"derandomize": True, "database": None, "deadline": None}

# ASCII whitespace within a line: str.split() splits on all of it, and a
# CR would end the line
_BLANKS = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
_ENDS = ("\n", "\r", "\r\n")


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    return tmp_path_factory.mktemp("edges") / "g.txt"


@st.composite
def graphs(draw):
    """A graph on up to 70 vertices, so rows span two words."""
    n = draw(st.integers(0, 70))
    if n < 2:
        return Graph(n)
    pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).map(
        lambda t: (t[0], max(t[1], t[0] + 1)))
    return Graph(n, draw(st.lists(pairs, max_size=30)))


@st.composite
def respelled(draw, graph):
    """The lines of graph's edge list, header first, respelled, with the
    number of duplicate lines added; the header counts them."""
    edges = format_graph(graph).splitlines()[1:]
    extra = draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    for line in extra:
        edges.insert(draw(st.integers(0, len(edges))), line)
    lines = [f"{graph.n_nodes} {len(edges)}", *edges]
    blanks = st.text(_BLANKS, max_size=2)
    spelled = []
    for line in lines:
        a, b = line.split(" ")
        spelled.append(draw(blanks) + a + draw(st.text(_BLANKS, min_size=1,
                                                         max_size=3))
                       + b + draw(blanks))
    return spelled, len(extra)


def _joined(draw, lines):
    """The file text: lines joined by one drawn line end, then nothing, a
    line end, or blank lines."""
    end = draw(st.sampled_from(_ENDS))
    tail = draw(st.sampled_from(["", end, end + end, end + " \t" + end]))
    return end.join(lines) + tail


@hypothesis.settings(max_examples=200, **_SETTINGS)
@hypothesis.given(data=st.data())
def test_round_trip_under_respelling(data, edge_file):
    graph = data.draw(graphs())
    lines, duplicates = data.draw(respelled(graph))
    edge_file.write_bytes(_joined(data.draw, lines).encode("ascii"))
    warned = ([f"collapsed {duplicates} duplicate edge line(s) in {edge_file}"]
              if duplicates else [])
    assert read_outcome(read_graph, edge_file) == (graph, warned)


# what a malformed edit puts in place of a token
_TOKENS = st.one_of(
    st.sampled_from(["", "-1", "+1", "1.0", "x", "1_0", "0x1", "1e3",
                     "0" * 20 + "1", "9" * 20, "2" + "0" * 18]),
    st.integers(-3, 80).map(str),
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e), max_size=3),
)


@st.composite
def edits(draw, lines):
    """lines with one edit: a token replaced, dropped or added, a line
    dropped, doubled or put in between, or two tokens swapped."""
    lines = list(lines)
    k = draw(st.integers(0, len(lines) - 1))
    tokens = lines[k].split()
    kind = draw(st.sampled_from(["token", "drop token", "add token", "swap",
                                 "drop line", "blank line", "text line",
                                 "double line"]))
    if kind == "token":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
    elif kind == "drop token":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif kind == "add token":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_TOKENS))
    elif kind == "swap":
        tokens.reverse()
    elif kind == "drop line":
        del lines[k]
        return lines
    else:
        line = {"blank line": draw(st.text(_BLANKS, max_size=2)),
                "text line": draw(st.text(st.characters(
                    min_codepoint=0, max_codepoint=0x7f,
                    blacklist_characters="\r\n"), max_size=8)),
                "double line": lines[k]}[kind]
        lines.insert(draw(st.integers(0, len(lines))), line)
        return lines
    lines[k] = draw(st.sampled_from([" ", "\t", "  "])).join(tokens)
    return lines


def _outcome(reader, path):
    """read_outcome, or the class and message of an error other than
    GraphParseError."""
    try:
        return read_outcome(reader, path)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc).__name__, str(exc)


def _edit_ends_as_the_reference_reader(data, edge_file):
    lines, _ = data.draw(respelled(data.draw(graphs())))
    edge_file.write_bytes(_joined(data.draw, data.draw(edits(lines)))
                          .encode("ascii"))
    assert _outcome(read_graph, edge_file) == _outcome(reference_read, edge_file)


@hypothesis.settings(max_examples=400, **_SETTINGS)
@hypothesis.given(data=st.data())
def test_edit_ends_as_the_reference_reader(data, edge_file):
    _edit_ends_as_the_reference_reader(data, edge_file)


@hypothesis.settings(max_examples=400, **_SETTINGS)
@hypothesis.given(data=st.data())
def test_edit_ends_as_the_reference_reader_in_small_chunks(data, edge_file):
    # chunks of about one line: these files are far smaller than one
    # default chunk, so only here does the reader cross chunk boundaries
    with tiny_blocks():
        _edit_ends_as_the_reference_reader(data, edge_file)


@hypothesis.settings(max_examples=100, **_SETTINGS)
@hypothesis.given(data=st.data(), byte=st.integers(0x80, 0xff))
def test_non_ascii_byte_refused_on_its_line(data, byte, edge_file):
    lines, _ = data.draw(respelled(data.draw(graphs())))
    text = _joined(data.draw, lines).encode("ascii")
    pos = data.draw(st.integers(0, len(text)))
    edge_file.write_bytes(text[:pos] + bytes([byte]) + text[pos:])
    before = text[:pos].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    with pytest.raises(GraphParseError, match=f"byte 0x{byte:02x} is not ASCII") as err:
        read_graph(edge_file)
    assert err.value.line_no == before.count(b"\n") + 1
