"""Graph and hypergraph representations plus the structural subroutines
used by the randomized coloring pipeline.

Vertices are dense integers 0..n-1.  All objects are immutable after
construction; operations never mutate their arguments.  A graph builds its
closed neighborhoods once, on first use, as `Graph.closed`; every closed
neighborhood in the package is read from there.  Its adjacency as the CSR
int arrays that the C kernels read is `Graph.csr`, which a graph read from
a file gets from the reader.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, pairwise
from operator import or_


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

    __slots__ = ("n", "edges")

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

    @property
    def m(self):
        return len(self.edges)

    def incidence(self):
        """For each vertex, the indices of the edges containing it, in
        increasing order."""
        incident = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                incident[v].append(i)
        return incident

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
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "open":
        for v in range(g.n):
            if not g.adj[v]:
                raise ValueError(f"vertex {v} is isolated; open neighborhood empty")
        return Hypergraph._from_sorted(g.n, g.adj)
    return Hypergraph._from_sorted(g.n, g.closed)


def hypergraph_stats(h):
    """Gamma, the largest number of other edges that one edge meets (0
    when h has no edge); the lemma's one statistic of h.

    Each vertex gets a bitmask of the edges containing it, and the edges
    an edge meets, itself included, are the OR of its vertices' masks.
    Duplicate edges meet each other.
    """
    masks = [0] * h.n
    for i, e in enumerate(h.edges):
        bit = 1 << i
        for v in e:
            masks[v] |= bit
    return max(
        (reduce(or_, map(masks.__getitem__, e), 0).bit_count() - 1 for e in h.edges),
        default=0,
    )


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
    """Greedy maximal independent set, scanning vertices by increasing id."""
    chosen = set()
    blocked = set()
    for v in range(g.n):
        if v not in blocked and v not in chosen:
            chosen.add(v)
            blocked.update(g.adj[v])
    return frozenset(chosen)


def greedy_color_classes(g, order):
    """Color classes S_1..S_s of a greedy proper coloring of the vertices
    in `order`, as a tuple of frozensets: each vertex gets the smallest
    color not used by an already-colored neighbor.  Vertices outside `order` stay uncolored.

    The classes partition the colored vertices, each class is
    independent, and every vertex of S_i (i >= 2) has a neighbor in each
    earlier class.
    """
    color = {}
    classes = []
    for v in order:
        used = {color[w] for w in g.adj[v] if w in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        if c == len(classes):
            classes.append(set())
        classes[c].add(v)
    return tuple(frozenset(c) for c in classes)


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
