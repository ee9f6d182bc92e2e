"""Graph and hypergraph representations plus the structural subroutines
used by the randomized coloring pipeline.

Vertices are dense integers 0..n-1.  All objects are immutable after
construction; operations never mutate their arguments.  A graph builds its
closed neighborhoods once, on first use, as `Graph.closed`; every closed
neighborhood in the package is read from there.  Its adjacency as the CSR
int arrays that the C kernels read is `Graph.csr`, which a graph read from
a file gets from the reader; a hypergraph's edges as CSR arrays are
`Hypergraph.csr`, likewise.  A hypergraph's incidence is built once, on
first use, as `Hypergraph.incidence`; a derived neighborhood hypergraph
gets its graph's rows.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, chain, combinations, pairwise

from cfcolor._kernel_py import greedy_color, independent_set


class Graph:
    """Finite, simple, undirected graph with array-backed adjacency."""

    __slots__ = ("n", "adj", "__dict__")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in adj)

    @classmethod
    def _from_adjacency(cls, n, adj):
        """The graph on n vertices whose row v is adj[v] sorted, for a dict
        of neighbor sets that the caller has already checked to be
        symmetric, in range and loop-free; a vertex missing from adj is
        isolated, and its row is the shared empty tuple."""
        rows = [()] * n
        for v, nbrs in adj.items():
            rows[v] = tuple(sorted(nbrs))
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        return g

    @classmethod
    def _from_csr(cls, start, vert):
        """The graph whose row v is vert[start[v]:start[v + 1]], int arrays
        that the caller has already checked to hold a simple graph with
        sorted rows; they become its `csr`."""
        g = cls.__new__(cls)
        g.n = len(start) - 1
        flat = vert.tolist()
        g.adj = tuple([tuple(flat[a:b]) for a, b in pairwise(start)])
        g.csr = start, vert
        return g

    @cached_property
    def csr(self):
        """(start, vert): the adjacency as int arrays, row v being
        vert[start[v]:start[v + 1]]."""
        return (
            array("i", accumulate(map(len, self.adj), initial=0)),
            array("i", chain.from_iterable(self.adj)),
        )

    @cached_property
    def edges(self):
        return tuple((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    @cached_property
    def closed(self):
        """N[v] for every vertex v: v inserted into its sorted adjacency."""
        out = []
        for v, nbrs in enumerate(self.adj):
            i = bisect_left(nbrs, v)
            out.append(nbrs[:i] + (v,) + nbrs[i:])
        return tuple(out)

    @property
    def m(self):
        return len(self.edges)

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)

    def has_isolated_vertex(self):
        return any(not a for a in self.adj)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Hypergraph:
    """Vertex set 0..n-1 plus a list of non-empty vertex subsets; an edge
    that names a vertex twice is an error, as in parse_hypergraph.

    Duplicate edges are kept: derived neighborhood hypergraphs must stay
    in one-to-one correspondence with the vertices of the source graph.
    """

    __slots__ = ("n", "edges", "__dict__")

    def __init__(self, n, edges):
        edges = tuple(tuple(sorted(e)) for e in edges)
        for e in edges:
            if not e:
                raise ValueError("hyperedges must be non-empty")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"edge {e} out of range for n={n}")
            if len(set(e)) < len(e):
                v = next(a for a, b in pairwise(e) if a == b)
                raise ValueError(f"vertex {v} repeated in hyperedge {e}")
        self.n = n
        self.edges = edges

    @classmethod
    def _from_sorted(cls, n, edges):
        """The hypergraph with edges `edges`, which the caller has already
        checked to be non-empty, sorted, duplicate-free tuples in range."""
        h = cls.__new__(cls)
        h.n = n
        h.edges = tuple(edges)
        return h

    @classmethod
    def _from_csr(cls, n, start, vert):
        """The hypergraph on n vertices whose edge i is
        vert[start[i]:start[i + 1]], int arrays that the caller has
        already checked to hold non-empty, sorted, duplicate-free edges in
        range; they become its `csr`."""
        flat = vert.tolist()
        h = cls._from_sorted(n, [tuple(flat[a:b]) for a, b in pairwise(start)])
        h.csr = start, vert
        return h

    @cached_property
    def csr(self):
        """(start, vert): the edges as int arrays, edge i being
        vert[start[i]:start[i + 1]]."""
        return (
            array("i", accumulate(map(len, self.edges), initial=0)),
            array("i", chain.from_iterable(self.edges)),
        )

    @property
    def m(self):
        return len(self.edges)

    @cached_property
    def incidence(self):
        """For each vertex, the indices of the edges containing it, as a
        tuple of increasing tuples."""
        incident = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                incident[v].append(i)
        return tuple(map(tuple, incident))

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m})"


def derived_hypergraph(g, mode):
    """Hypergraph of open or closed vertex neighborhoods, one edge per
    vertex in vertex order.

    Its incidence is the graph's own rows: v lies in N(u) iff u lies in
    N(v), and likewise for N[.], so the edges containing v are those of
    the vertices in N(v), or N[v], in increasing order.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "open":
        for v in range(g.n):
            if not g.adj[v]:
                raise ValueError(f"vertex {v} is isolated; open neighborhood empty")
        rows = g.adj
    else:
        rows = g.closed
    h = Hypergraph._from_sorted(g.n, rows)
    h.incidence = rows
    return h


def hypergraph_stats(h):
    """Gamma, the largest number of other edges that one edge meets (0
    when h has no edge); the lemma's one statistic of h.  Duplicate edges
    meet each other.

    It is ``kernels.gamma`` on ``h.csr``, looked up at call time as
    ``max_star`` looks up its kernel, so the CSR arrays are built once and
    the resampler reuses them.
    """
    # imported here, so that importing the package builds no kernel
    from cfcolor import kernels

    return kernels.gamma(h.n, *h.csr)


def max_star(g):
    """Largest t such that g contains an induced star K_{1,t}.

    Equals the maximum, over vertices v, of the maximum independent set
    size inside N(v).  g is K_{1,k}-free exactly for all k > max_star(g).
    Returns 0 for edgeless graphs, the empty one included.  The branch
    and bound runs in the active kernel (see ``_kernel_py.max_star``) on
    ``g.csr``; ``kernels.max_star`` is looked up at call time, so a test
    can swap backends.  Raises MemoryError when the kernel cannot allocate its
    bitsets.
    """
    # imported here, so that importing the package builds no kernel
    from cfcolor import kernels

    return kernels.max_star(*g.csr)


def maximal_independent_set(g):
    """Greedy maximal independent set, scanning vertices by increasing id:
    ``_kernel_py.independent_set``, the core A of the pipeline's kernel."""
    return frozenset(independent_set(g.adj))


def greedy_color_classes(g, order):
    """Color classes S_1..S_s of a greedy proper coloring of the vertices
    in `order`, a sequence of distinct vertices, as a tuple of frozensets:
    each vertex gets the smallest color not used by an already-colored
    neighbor.  Vertices outside `order` stay uncolored.

    The classes partition the colored vertices, each class is
    independent, and every vertex of S_i (i >= 2) has a neighbor in each
    earlier class.  The colors are ``_kernel_py.greedy_color`` on
    ``g.csr``; a vertex outside [0, n) or repeated in order raises
    ValueError.
    """
    color = greedy_color(*g.csr, order)
    classes = [[] for _ in range(max(color, default=-1) + 1)]
    for v, c in enumerate(color):
        if c >= 0:
            classes[c].append(v)
    return tuple(map(frozenset, classes))


def extended_double_cover(g):
    """Bipartite double D_g on vertices x_0..x_{n-1}, y_0..y_{n-1}.

    x_i is adjacent to y_j iff i == j or ij is an edge of g; there are no
    edges inside either part.  x_i is vertex i, y_i is vertex n+i.
    """
    n = g.n
    edges = [(i, n + i) for i in range(n)]
    for u, v in g.edges:
        edges.append((u, n + v))
        edges.append((v, n + u))
    return Graph(2 * n, edges)


def line_graph(g):
    """Line graph of g, plus the base edge carried by each vertex.

    Returns (L, base_edges) where vertex i of L corresponds to
    base_edges[i].  Line graphs are claw-free.
    """
    base_edges = list(g.edges)
    incident = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(base_edges):
        incident[u].append(i)
        incident[v].append(i)
    # each list of ids increases, and two edges share at most one
    # endpoint, so every pair of adjacent edges is listed once
    ledges = [pair for ids in incident for pair in combinations(ids, 2)]
    return Graph(len(base_edges), ledges), base_edges


def random_graph(n, p, rng):
    """Erdos-Renyi G(n, p) from an explicit random.Random."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_hypergraph(n, m, size_lo, size_hi, rng):
    """m random hyperedges, each a uniform subset with size in
    [size_lo, size_hi]."""
    if size_hi > n:
        raise ValueError("edge size exceeds vertex count")
    edges = []
    for _ in range(m):
        size = rng.randint(size_lo, size_hi)
        edges.append(rng.sample(range(n), size))
    return Hypergraph(n, edges)
