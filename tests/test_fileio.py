import random
from unittest import mock

import pytest

from cfcolor import fileio, kernels
from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.errors import InputFormatError
from cfcolor.graphs import Graph, Hypergraph, random_graph
from util import (
    cycle_graph,
    format_formula,
    format_hypergraph,
    requires_compiled,
    run_python,
)


def test_graph_round_trip():
    g = cycle_graph(5)
    assert fileio.parse_graph(fileio.format_graph(g)) == g


def test_graph_comments_and_blanks_ignored():
    text = "c a comment\n\np graph 2 1\nc another\ne 1 2\n"
    g = fileio.parse_graph(text)
    assert g.n == 2 and g.m == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 1 2\n", "before header"),
        ("p graph 2 1\ne 1 1\n", "self-loop"),
        ("p graph 2 2\ne 1 2\ne 2 1\n", "duplicate edge"),
        ("p graph 2 1\ne 1 3\n", "out of range"),
        ("p graph 2 2\ne 1 2\n", "declares 2 edges"),
        ("p graph 2 1\nq 1 2\n", "unexpected record"),
        ("", "missing"),
    ],
)
def test_graph_errors_carry_context(text, fragment):
    with pytest.raises(InputFormatError, match=fragment):
        fileio.parse_graph(text)


# the exact message of each fault; the first faulty token, in line order,
# is the one named
@pytest.mark.parametrize(
    "records,message",
    [
        ("e 0 1", "line 2: vertex 0 out of range 1..2"),
        ("e 3 1", "line 2: vertex 3 out of range 1..2"),
        ("e 1 3", "line 2: vertex 3 out of range 1..2"),
        ("e x 1", "line 2: vertex is not an integer: 'x'"),
        ("e 1 y", "line 2: vertex is not an integer: 'y'"),
        ("e x 9", "line 2: vertex is not an integer: 'x'"),
        ("e 9 x", "line 2: vertex 9 out of range 1..2"),
        ("e 1", "line 2: expected `e <u> <v>`"),
        ("e 1 2 1", "line 2: expected `e <u> <v>`"),
        ("e 2 2", "line 2: self-loop at vertex 2"),
        ("e 1 2\ne 2 1", "line 3: duplicate edge 2 1"),
    ],
)
def test_graph_fault_messages(records, message):
    text = f"p graph 2 {records.count(chr(10)) + 1}\n{records}\n"
    with pytest.raises(InputFormatError) as info:
        fileio.parse_graph(text)
    assert str(info.value) == message


def test_graph_errors_carry_line_numbers():
    with pytest.raises(InputFormatError, match="line 3"):
        fileio.parse_graph("c x\np graph 2 1\ne 1 1\n")


def test_hypergraph_round_trip():
    h = Hypergraph(4, [(0, 1, 2), (2, 3)])
    assert fileio.parse_hypergraph(format_hypergraph(h)) == h


def test_hypergraph_rejects_empty_edge():
    with pytest.raises(InputFormatError, match="empty"):
        fileio.parse_hypergraph("p hgraph 2 1\nh\n")


@pytest.mark.parametrize(
    "record,message",
    [
        ("h 1 1 2", "line 2: vertex 1 repeated in hyperedge"),
        ("h 3 1 2 1", "line 2: vertex 1 repeated in hyperedge"),
        # the smallest repeated vertex is named
        ("h 3 2 3 2", "line 2: vertex 2 repeated in hyperedge"),
        # a range fault anywhere on the line comes before a repeat
        ("h 1 1 4", "line 2: vertex 4 out of range 1..3"),
    ],
)
def test_hypergraph_rejects_a_repeated_vertex(record, message):
    with pytest.raises(InputFormatError) as info:
        fileio.parse_hypergraph(f"p hgraph 3 1\n{record}\n")
    assert str(info.value) == message


@pytest.mark.parametrize("seed", range(4))
def test_parsed_hypergraph_equals_the_constructed_one(seed):
    # parse_hypergraph builds its Hypergraph from sorted edges, not
    # through Hypergraph.__init__; both must give the same object
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    m = rng.randint(0, 30)
    edges = [rng.sample(range(n), rng.randint(1, n)) for _ in range(m)]
    text = f"p hgraph {n} {m}\n" + "".join(
        "h " + " ".join(str(v + 1) for v in e) + "\n" for e in edges
    )
    assert fileio.parse_hypergraph(text) == Hypergraph(n, edges)


def test_formula_round_trip():
    from cfcolor.reductions import FIGURE_FORMULA

    text = format_formula(FIGURE_FORMULA)
    assert fileio.parse_formula(text) == FIGURE_FORMULA


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p cnf 3 1\n1 2 0\n", "exactly 3"),
        ("p cnf 3 1\n1 2 -3 0\n", "positive"),
        ("p cnf 3 1\n1 2 4 0\n", "out of range"),
        ("p cnf 3 1\n1 2 3\n", "end in 0"),
        ("p cnf 3 1\n1 1 2 0\n", "distinct"),
    ],
)
def test_formula_errors(text, fragment):
    with pytest.raises(InputFormatError, match=fragment):
        fileio.parse_formula(text)


def test_coloring_round_trip():
    f = PartialColoring({0: 3, 2: 1})
    assert dict(fileio.parse_coloring(fileio.format_coloring(f), 3).items()) == {
        0: 3,
        2: 1,
    }


def test_coloring_rejects_double_assignment():
    with pytest.raises(InputFormatError, match="twice"):
        fileio.parse_coloring("v 1 2\nv 1 3\n", 2)


def test_lists_round_trip_explicit_and_range():
    lists = ListAssignment([(1, 5, 9), range(1, 100)])
    text = fileio.format_lists(lists)
    assert text == "l 1 1 5 9\nL 2 1 100\n"
    back = fileio.parse_lists(text, 2)
    assert list(back.colors(0)) == [1, 5, 9]
    assert back.colors(1) == range(1, 100)
    assert back.size(1) == 99
    assert back.contains(1, 99) and not back.contains(1, 100)


def test_range_lists_sample_like_randrange():
    lists = ListAssignment.uniform_range(1, 1000, lo=17)
    rng, ref = random.Random(3), random.Random(3)
    assert [lists.sample(0, rng) for _ in range(500)] == [
        ref.randrange(17, 1017) for _ in range(500)
    ]


@pytest.mark.parametrize(
    "entry", [range(-1, 3), (-1, 2), range(0, 3, 2), range(4, 4), range(5, 2), ()]
)
def test_lists_reject_negative_empty_and_stepped_entries(entry):
    with pytest.raises(ValueError):
        ListAssignment([entry])


@pytest.mark.parametrize("line", ["L 1 -1 3", "l 1 -1 2", "L 1 3 3"])
def test_lists_file_rejects_negative_and_empty_lists(line):
    with pytest.raises(ValueError):
        fileio.parse_lists(line + "\n", 1)


@pytest.mark.parametrize(
    "text,lineno",
    [("l 1 1 2\nl 1 3 4\n", 2), ("L 1 0 5\nl 2 1\nc x\nL 1 3 4\n", 4)],
)
def test_lists_reject_a_second_list_for_a_vertex(text, lineno):
    with pytest.raises(InputFormatError, match=f"line {lineno}: vertex 1 has two"):
        fileio.parse_lists(text, 2)


def test_lists_requires_every_vertex():
    with pytest.raises(InputFormatError, match="no list"):
        fileio.parse_lists("l 1 1 2\n", 2)


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (lambda t: fileio.parse_lists(t, 1), "l 1 x\n", "color is not an integer"),
        (lambda t: fileio.parse_lists(t, 1), "L 1 0 y\n", "range end is not an"),
        (lambda t: fileio.parse_lists(t, 1), "l 1 -2\n", "color -2 is below 0"),
        # an `l` record's colors are converted in one pass; a fault is
        # worded for its first faulty color
        (lambda t: fileio.parse_lists(t, 1), "l 1 3 -1 x\n", "color -1 is below 0"),
        (lambda t: fileio.parse_lists(t, 1), "l 1 3 x -1\n", "color is not an integer"),
        (lambda t: fileio.parse_lists(t, 1), "L 1 3 3\n", "empty range"),
        (
            lambda t: fileio.parse_lists(t, 1),
            "L 1 0 100000000000000000000\n",
            "implicit range lists hold at most",
        ),
        (fileio.parse_graph, "p graph 2 z\n", "header count is not an"),
        (fileio.parse_hypergraph, "p hgraph x 1\n", "header count is not an"),
        (fileio.parse_formula, "p cnf 3 -1\n", "header count -1 is below 0"),
        (fileio.parse_formula, "p cnf 3 1\n1 2 x 0\n", "literal is not an"),
        (lambda t: fileio.parse_coloring(t, 2), "v 1 x\n", "color is not an"),
        (lambda t: fileio.parse_coloring(t, 2), "v 1 -1\n", "color -1 is below"),
    ],
)
def test_integer_errors_carry_line_numbers(parse, text, message):
    # the error sits on the last line, after a leading comment
    lineno = 1 + text.count("\n")
    with pytest.raises(InputFormatError, match=f"line {lineno}: {message}"):
        parse("c comment\n" + text)


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (fileio.parse_graph, "p graph 2 1\ne 1 1\nq 1 2\n", "line 2: self-loop"),
        (fileio.parse_graph, "p graph 2 3\ne 1 2\ne 2 1\n", "line 3: duplicate"),
        (fileio.parse_graph, "p graph 2 1\ne 1\np graph 2 1\n", "line 2: expected"),
        (fileio.parse_hypergraph, "p hgraph 2 1\nh 1 3\nq 1\n", "line 2: vertex 3"),
        (fileio.parse_hypergraph, "p hgraph 2 2\nh\n", "line 2: empty hyperedge"),
        (fileio.parse_formula, "p cnf 3 1\n1 2 0\np cnf 3 1\n", "line 2: exactly 3"),
        (fileio.parse_formula, "p cnf 3 2\n1 2 4 0\n", "line 2: literal out of"),
    ],
)
def test_headed_formats_report_the_first_fault(parse, text, message):
    # each file has a second fault after the first: an unknown record, a
    # second header, or a record count other than the header's
    with pytest.raises(InputFormatError, match=message):
        parse(text)


@pytest.mark.parametrize(
    "parse,write,text",
    [
        (fileio.parse_graph, fileio.format_graph, "p graph 2 1\ne 1 2\n"),
        (fileio.parse_hypergraph, format_hypergraph, "p hgraph 2 1\nh 1 2\n"),
        (fileio.parse_formula, format_formula, "p cnf 3 1\n1 2 3 0\n"),
        (lambda t: fileio.parse_coloring(t, 2), fileio.format_coloring, "v 1 2\n"),
        (lambda t: fileio.parse_lists(t, 1), fileio.format_lists, "l 1 1 2\n"),
    ],
)
def test_a_first_token_c_makes_a_comment_in_every_format(parse, write, text):
    commented = "c\tnote\n" + text + "  c  x y\nc\n"
    assert write(parse(commented)) == write(parse(text)) == text


def _edge_orders(text, rng):
    """text, then the same graph with its edge lines reversed, shuffled,
    and shuffled with the ends of every other edge swapped."""
    header, *lines = text.splitlines(keepends=True)
    shuffled = rng.sample(lines, len(lines))
    swapped = [f"e {v} {u}\n" if i % 2 else line
               for i, (line, (_, u, v)) in enumerate(zip(shuffled, map(str.split, shuffled)))]
    return [text] + [header + "".join(order) for order in (lines[::-1], shuffled, swapped)]


@requires_compiled
@pytest.mark.parametrize("seed", range(20))
def test_parsed_graph_equals_the_constructed_one(seed):
    # parse_graph builds its Graph from the C reader's CSR arrays, not
    # through Graph.__init__; both must give the same object and the same
    # csr.  What format_graph writes is read by the C reader when it has
    # an edge and no more vertices than characters, in any edge order, and
    # gives the record loop's Graph; any other file is left to the record
    # loop.  With no reader, as on the pure-Python backend, parse_graph
    # gives the same Graph
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 300), rng.choice([0.0, 0.02, 0.1, 0.5]), rng)
    for text in _edge_orders(fileio.format_graph(g), rng):
        assert fileio._parse_graph_records(text) == g
        assert kernels.read_graph(text) == (g.csr if g.m and g.n <= len(text) else None)
        for reader in (kernels.read_graph, None):
            with mock.patch.object(kernels, "read_graph", reader):
                back = fileio.parse_graph(text)
            assert back == g and back.edges == g.edges and back.m == g.m
            assert back.csr == g.csr


# (text, edges of the graph on 3 vertices or the record loop's error)
_DECLINED = [
    ("c note\np graph 3 2\ne 1 2\ne 2 3\n", [(0, 1), (1, 2)]),
    ("p graph 3 2\n\ne 1 2\ne 2 3\n", [(0, 1), (1, 2)]),
    ("p graph 3 2\r\ne 1 2\r\ne 2 3\r\n", [(0, 1), (1, 2)]),
    ("p graph 3 2\ne 1\t2\ne 2 3\n", [(0, 1), (1, 2)]),
    ("p graph 3 2\ne 1 2\ne 2 3", [(0, 1), (1, 2)]),
    ("p graph  3 2\ne 1 2\ne 2 3\n", [(0, 1), (1, 2)]),
    # str.splitlines ends a line at \x0b, str.split only separates tokens
    ("p graph 3 2\ne 1\x0b2\ne 2 3\n", "line 2: expected `e <u> <v>`"),
    ("p graph 3 2\ne 01 2\ne 2 3\n", [(0, 1), (1, 2)]),
    ("p graph 3 2\ne +1 2\ne 2 3\n", [(0, 1), (1, 2)]),
    ("p graph 03 2\ne 1 2\ne 2 3\n", [(0, 1), (1, 2)]),
    ("p graph 3 02\ne 1 2\ne 2 3\n", [(0, 1), (1, 2)]),
    ("p graph 3 0\n", []),
    ("p graph 3 2\ne 1 2\ne 1 2\n", "line 3: duplicate edge 1 2"),
    ("p graph 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge 2 1"),
    ("p graph 3 2\ne 1 2\ne 3 3\n", "line 3: self-loop at vertex 3"),
    ("p graph 3 2\ne 1 2\ne 2 4\n", "line 3: vertex 4 out of range 1..3"),
    ("p graph 3 2\ne 1 2\ne 0 3\n", "line 3: vertex 0 out of range 1..3"),
    ("p graph 3 3\ne 1 2\ne 2 3\n", "header declares 3 edges, found 2"),
    ("p graph 3 1\ne 1 2\ne 2 3\n", "header declares 1 edges, found 2"),
    ("p graph 0 1\ne 1 2\n", "line 2: vertex 1 out of range 1..0"),
    ("p graph -3 1\ne 1 2\n", "line 1: header count -3 is below 0"),
    ("p graph 3 2\nf 1 2\ne 2 3\n", "line 2: unexpected record 'f'"),
    ("p hgraph 3 2\ne 1 2\ne 2 3\n", "line 1: expected header `p graph <n> <m>`"),
    # a duplicate that only sorting the row brings next to its twin
    ("p graph 3 3\ne 2 3\ne 1 2\ne 3 2\n", "line 4: duplicate edge 3 2"),
    # a digit outside ASCII, which int() reads, a NUL and a lone surrogate
    ("p graph 3 2\ne 1 \uff12\ne 2 3\n", [(0, 1), (1, 2)]),
    ("p graph 3 1\ne 1 2\n\x00", "line 3: unexpected record '\\x00'"),
    ("p graph 3 1\ne 1 2\n\ud800", "line 3: unexpected record '\\ud800'"),
    # an edge count that no text of this length can hold sizes nothing
    ("p graph 3 99999999999\ne 1 2\n", "header declares 99999999999 edges, found 1"),
    # nor does a vertex count past any list's length
    ("p graph 9223372036854775808 0\n",
     "line 1: header count 9223372036854775808 is above 9223372036854775807"),
    # header lines whose counts int() reads but that format_graph never
    # writes: an underscore, a digit outside ASCII, a trailing space, CRLF
    ("p graph 1_0 1\ne 1 11\n", "line 2: vertex 11 out of range 1..10"),
    ("p graph \uff13 1\ne 1 2\n", [(0, 1)]),
    ("p graph 3 1 \ne 1 2\n", [(0, 1)]),
    ("p graph 3 1\r\ne 1 2\n", [(0, 1)]),
]


@requires_compiled
@pytest.mark.parametrize("text,want", _DECLINED)
def test_other_graph_files_are_left_to_the_record_loop(text, want):
    assert kernels.read_graph(text) is None
    if isinstance(want, str):
        for parse in (fileio.parse_graph, fileio._parse_graph_records):
            with pytest.raises(InputFormatError) as info:
                parse(text)
            assert str(info.value) == want
    else:
        assert fileio.parse_graph(text) == fileio._parse_graph_records(text) == Graph(3, want)


def _mutant(text, rng):
    """text with one mutation: a byte replaced, a line repeated or
    deleted, or a header count moved by one."""
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(4)
    if kind == 0:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("019 \n\tep-") + text[i + 1:]
    i = rng.randrange(len(lines))
    if kind == 1:
        return "".join(lines[:i + 1] + lines[i:])
    if kind == 2:
        return "".join(lines[:i] + lines[i + 1:])
    counts = [int(t) for t in lines[0].split()[2:]]
    counts[rng.randrange(2)] += rng.choice((-1, 1))
    return "p graph %d %d\n" % tuple(counts) + "".join(lines[1:])


def _graph_or_error(parse, text):
    try:
        return parse(text)
    except InputFormatError as exc:
        return str(exc)


@requires_compiled
def test_the_c_reader_reads_what_the_record_loop_reads():
    # the reader's contract, on mutated files of small random graphs: a
    # text the C reader accepts is a graph the record loop reads to the
    # same Graph and csr; any other text parse_graph leaves to the record
    # loop, with its Graph or its exact error.  Every format_graph text
    # with an edge is accepted, so a lost fast path fails here
    rng = random.Random(21)
    accepted = []
    for _ in range(2000):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        text = fileio.format_graph(g)
        assert g.m == 0 or kernels.read_graph(text) == g.csr
        mutant = _mutant(text, rng)
        want = _graph_or_error(fileio._parse_graph_records, mutant)
        csr = kernels.read_graph(mutant)
        accepted.append(csr is not None)
        got = _graph_or_error(fileio.parse_graph, mutant)
        assert got == want, mutant
        if csr is not None:
            assert csr == got.csr == want.csr, mutant
    # both sides of the contract are reached
    assert min(accepted.count(True), accepted.count(False)) > 100


_WIDE_HEADER = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cfcolor import fileio, kernels
g = fileio.parse_graph("p graph 20000000 0\\n")
print(g.n, g.has_isolated_vertex())
for text in ("p graph 20000000 1\\ne 1\\t20000000\\n", "p graph 20000000 1\\ne 1 20000000\\n"):
    print(kernels.read_graph is None or kernels.read_graph(text) is None)
    g = fileio.parse_graph(text)
    print(g.n, g.adj[0], g.adj[1], g.adj[-1])
"""


def test_a_wide_header_costs_a_word_per_vertex():
    # the record loop gives a set only to the vertices the edges name;
    # 20M rows sharing one empty tuple fit a 1 GiB address space, a set
    # per vertex does not.  The C reader declines both edge files, the
    # second one for its 20M vertices in a 32-character text, so it
    # sizes no block by them
    out = run_python(_WIDE_HEADER, timeout=60).stdout
    line = "20000000 (19999999,) () (0,)\n"
    assert out == "20000000 True\n" + f"True\n{line}" * 2
