import random

import pytest

from cfcolor import fileio
from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.errors import InputFormatError
from cfcolor.graphs import Graph, Hypergraph, random_graph
from util import cycle_graph, format_formula, format_hypergraph


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


@pytest.mark.parametrize("seed", range(20))
def test_parsed_graph_equals_the_constructed_one(seed):
    # parse_graph builds its Graph from adjacency rows, not through
    # Graph.__init__; both must give the same object.  What format_graph
    # writes is read in one pass when it has an edge, and gives the record
    # loop's Graph; a file without edges is left to the record loop
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 300), rng.choice([0.0, 0.02, 0.1, 0.5]), rng)
    text = fileio.format_graph(g)
    back = fileio.parse_graph(text)
    assert back == g and back.edges == g.edges and back.m == g.m
    assert fileio._parse_graph_records(text) == g
    assert fileio._parse_written_graph(text) == (g if g.m else None)


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
]


@pytest.mark.parametrize("text,want", _DECLINED)
def test_other_graph_files_are_left_to_the_record_loop(text, want):
    assert fileio._parse_written_graph(text) is None
    if isinstance(want, str):
        for parse in (fileio.parse_graph, fileio._parse_graph_records):
            with pytest.raises(InputFormatError) as info:
                parse(text)
            assert str(info.value) == want
    else:
        assert fileio.parse_graph(text) == Graph(3, want)
