"""Text file formats.

Graph:      `p graph <n> <m>` then m lines `e <u> <v>` (1-indexed).
Hypergraph: `p hgraph <n> <m>` then m lines `h <v1> <v2> ...`, the
            vertices of an edge distinct.
Formula:    DIMACS CNF restricted to positive literals, 3 per clause.
Coloring:   lines `v <vertex> <color>`; omitted vertices are uncolored.
Lists:      lines `l <vertex> <c1> <c2> ...` or `L <vertex> <lo> <hi>`
            for the implicit range [lo, hi).

Tokens are separated by any whitespace.  A line whose first token is `c`
is a comment; comments and blank lines are ignored everywhere.  Vertices
are 1-indexed on disk and translated to 0-indexed at this boundary.

When the C kernel is built, a graph file exactly as format_graph writes
it, with at least one edge and no more vertices than characters, is read
by ``kernels.read_graph`` into CSR arrays with sorted rows; the Graph is
sliced from them and keeps them as `Graph.csr`.  Likewise a hypergraph
file in canonical form, with at least one edge, is read by
``kernels.read_hypergraph``: the header `p hgraph <n> <m>` and m lines
`h <v1> ... <vk>`, single spaces, decimals without sign or leading zero,
no vertex twice in a line, every line ending in a newline and nothing
after the last.  Every other file, faulty ones included, and every file
on the pure-Python backend, is read record by record: the reference
reader, with the same result and line-numbered errors.  The graph loop
builds a neighbor set only for the vertices the edges name.  Either
reader raises MemoryError when it runs out of memory.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from operator import lt

from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.errors import InputFormatError
from cfcolor.graphs import Graph, Hypergraph
from cfcolor.reductions import Formula


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and tokens[0] != "c":
            yield lineno, tokens


def _fail(lineno, message):
    raise InputFormatError(f"line {lineno}: {message}")


def _parse_int(lineno, token, what, low=None, high=None):
    """The integer `token`, failing with the line number when it is no
    integer or lies outside [low, high] (either bound may be None)."""
    try:
        value = int(token)
    except ValueError:
        _fail(lineno, f"{what} is not an integer: {token!r}")
    if high is not None and not low <= value <= high:
        _fail(lineno, f"{what} {value} out of range {low}..{high}")
    if low is not None and value < low:
        _fail(lineno, f"{what} {value} is below {low}")
    return value


def _parse_vertex(lineno, token, n):
    """A 1-indexed vertex token as a 0-indexed vertex."""
    return _parse_int(lineno, token, "vertex", 1, n) - 1


def _records(text, kind, tag, noun):
    """The records of a file headed `p <kind> <n> <m>`: first yields
    (n, m), then (lineno, tokens) for each record line, tokens including
    the record type `tag` (when tag is None every line but the header is
    a record).  Fails on a record before the header, a second header or
    an unknown record type; the count of records against m is checked
    after the last line, so that a fault the caller finds in a record
    comes first."""
    lines = _content_lines(text)
    for lineno, tokens in lines:
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1] != kind:
                _fail(lineno, f"expected header `p {kind} <n> <m>`")
            n = _parse_int(lineno, tokens[2], "header count", 0)
            if n > sys.maxsize:  # longer than any Python list
                _fail(lineno, f"header count {n} is above {sys.maxsize}")
            m = _parse_int(lineno, tokens[3], "header count", 0)
            break
        if tag is None or tokens[0] == tag:
            _fail(lineno, f"{noun} before header")
        _fail(lineno, f"unexpected record {tokens[0]!r}")
    else:
        raise InputFormatError(f"missing `p {kind}` header")
    yield n, m
    count = 0
    for lineno, tokens in lines:
        if tokens[0] == "p":
            _fail(lineno, "duplicate header")
        if tag is not None and tokens[0] != tag:
            _fail(lineno, f"unexpected record {tokens[0]!r}")
        yield lineno, tokens
        count += 1
    if count != m:
        raise InputFormatError(f"header declares {m} {noun}s, found {count}")


def parse_graph(text):
    """The graph of a `p graph` file.  Text that the C reader accepts is
    read by it when it is built; any other text, every faulty file and
    every file on the pure-Python backend goes through the record loop,
    which names the first fault's line."""
    # imported here, so that importing the package builds no kernel
    from cfcolor import kernels

    csr = kernels.read_graph and kernels.read_graph(text)
    return Graph._from_csr(*csr) if csr else _parse_graph_records(text)


def _parse_graph_records(text):
    """The graph of a `p graph` file, read record by record.  Each edge is
    checked once, against the adjacency sets built here, so the Graph is
    made from them as is.  Only the vertices the edges name get a set."""
    records = _records(text, "graph", "e", "edge")
    n, _ = next(records)
    adj = defaultdict(set)
    for lineno, tokens in records:
        if len(tokens) != 3:
            _fail(lineno, "expected `e <u> <v>`")
        # converted inline, as this runs once per edge of the largest
        # inputs; _parse_vertex only words a fault, in token order
        try:
            u = int(tokens[1]) - 1
            v = int(tokens[2]) - 1
        except ValueError:
            u = v = -1
        if not (0 <= u < n and 0 <= v < n):
            u = _parse_vertex(lineno, tokens[1], n)
            v = _parse_vertex(lineno, tokens[2], n)
        if u == v:
            _fail(lineno, f"self-loop at vertex {u + 1}")
        row = adj[u]
        if v in row:
            _fail(lineno, f"duplicate edge {u + 1} {v + 1}")
        row.add(v)
        adj[v].add(u)
    try:
        return Graph._from_adjacency(n, adj)
    except MemoryError:
        raise MemoryError(f"parse_graph on {n} vertices ran out of memory") from None


def format_graph(g):
    lines = [f"p graph {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text):
    """The hypergraph of a `p hgraph` file.  Text that the C reader
    accepts is read by it when it is built; any other text goes through
    the record loop, as in parse_graph."""
    from cfcolor import kernels

    csr = kernels.read_hypergraph and kernels.read_hypergraph(text)
    return Hypergraph._from_csr(*csr) if csr else _parse_hypergraph_records(text)


def _parse_hypergraph_records(text):
    """The hypergraph of a `p hgraph` file, read record by record.  Every
    edge is checked to be non-empty, in range and free of repeats, so the
    Hypergraph is made from the sorted edges as they are.  A repeat names
    the smallest repeated vertex."""
    records = _records(text, "hgraph", "h", "edge")
    n, _ = next(records)
    edges = []
    for lineno, tokens in records:
        if len(tokens) == 1:
            _fail(lineno, "empty hyperedge")
        # converted inline as in parse_graph; on a fault, _parse_vertex
        # words it for the first faulty token
        try:
            edge = sorted([int(t) - 1 for t in tokens[1:]])
        except ValueError:
            edge = [-1]
        if edge[0] < 0 or edge[-1] >= n:
            for t in tokens[1:]:
                _parse_vertex(lineno, t, n)
        if len(set(edge)) < len(edge):
            v = next(a for a, b in zip(edge, edge[1:]) if a == b)
            _fail(lineno, f"vertex {v + 1} repeated in hyperedge")
        edges.append(tuple(edge))
    return Hypergraph._from_sorted(n, edges)


def parse_formula(text):
    records = _records(text, "cnf", None, "clause")
    n, _ = next(records)
    clauses = []
    for lineno, tokens in records:
        lits = [_parse_int(lineno, t, "literal") for t in tokens]
        if lits[-1] != 0:
            _fail(lineno, "clause line must end in 0")
        lits = lits[:-1]
        if len(lits) != 3:
            _fail(lineno, "exactly 3 literals per clause")
        if any(l <= 0 for l in lits):
            _fail(lineno, "only positive literals are allowed")
        if any(l > n for l in lits):
            _fail(lineno, "literal out of range")
        if len(set(lits)) != 3:
            _fail(lineno, "clause variables must be distinct")
        clauses.append(tuple(l - 1 for l in lits))
    return Formula(n, tuple(clauses))


def parse_coloring(text, n):
    mapping = {}
    for lineno, tokens in _content_lines(text):
        if tokens[0] != "v" or len(tokens) != 3:
            _fail(lineno, "expected `v <vertex> <color>`")
        v = _parse_vertex(lineno, tokens[1], n)
        if v in mapping:
            _fail(lineno, f"vertex {v + 1} colored twice")
        mapping[v] = _parse_int(lineno, tokens[2], "color", 0)
    return PartialColoring(mapping)


def format_coloring(f):
    return (
        "\n".join(f"v {v + 1} {c}" for v, c in sorted(f.items())) + "\n"
        if len(f)
        else ""
    )


def parse_lists(text, n):
    entries = [None] * n
    for lineno, tokens in _content_lines(text):
        if tokens[0] == "l":
            if len(tokens) < 3:
                _fail(lineno, "expected `l <vertex> <c1> ...`")
            v = _parse_vertex(lineno, tokens[1], n)
            # converted inline as in parse_hypergraph; on a fault,
            # _parse_int words it for the first faulty token
            try:
                entry = tuple(map(int, tokens[2:]))
            except ValueError:
                entry = (-1,)
            if min(entry) < 0:
                entry = tuple(_parse_int(lineno, t, "color", 0) for t in tokens[2:])
            # ListAssignment's form, which format_lists writes: ascending,
            # no color twice
            if not all(map(lt, entry, entry[1:])):
                entry = tuple(sorted(set(entry)))
        elif tokens[0] == "L":
            if len(tokens) != 4:
                _fail(lineno, "expected `L <vertex> <lo> <hi>`")
            v = _parse_vertex(lineno, tokens[1], n)
            lo = _parse_int(lineno, tokens[2], "color", 0)
            hi = _parse_int(lineno, tokens[3], "range end")
            if hi <= lo:
                _fail(lineno, f"empty range [{lo}, {hi})")
            if hi - lo > sys.maxsize:
                _fail(
                    lineno, f"implicit range lists hold at most {sys.maxsize} colors"
                )
            entry = range(lo, hi)
        else:
            _fail(lineno, f"unexpected record {tokens[0]!r}")
        if entries[v] is not None:
            _fail(lineno, f"vertex {v + 1} has two lists")
        entries[v] = entry
    missing = [v + 1 for v in range(n) if entries[v] is None]
    if missing:
        # the count and the first ten keep the line short on large graphs
        first = ", ".join(map(str, missing[:10])) + (", ..." if missing[10:] else "")
        raise InputFormatError(f"no list for {len(missing)} of {n} vertices: {first}")
    # every list is checked: non-empty, colors >= 0, ranges of step 1
    return ListAssignment._from_sorted(entries)


def format_lists(lists):
    lines = []
    for v in range(lists.n):
        e = lists.colors(v)
        if isinstance(e, range):
            lines.append(f"L {v + 1} {e.start} {e.stop}")
        else:
            lines.append(f"l {v + 1} " + " ".join(str(c) for c in e))
    return "\n".join(lines) + "\n"
