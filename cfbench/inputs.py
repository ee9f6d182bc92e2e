"""Input generation for the benchmark, in the package's text formats.

Written against the documented file formats and constructions only, so
the inputs a workload sees do not change when the package changes.  Graphs
are (n, edges) pairs with 0-indexed vertices and u < v in every edge.
"""

from __future__ import annotations

from itertools import combinations, permutations
from pathlib import Path

from check import neighborhoods, unique_count


def random_graph(n, m, rng):
    """G(n, m): m distinct edges drawn uniformly."""
    return n, sorted(rng.sample(list(combinations(range(n), 2)), m))


def relabel(graph, rng):
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def is_connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_graphs(n):
    """One graph per isomorphism class of connected graphs on n vertices."""
    slots = list(combinations(range(n), 2))
    slot_of = {s: i for i, s in enumerate(slots)}
    maps = [
        [slot_of[tuple(sorted((perm[u], perm[v])))] for u, v in slots]
        for perm in permutations(range(n))
    ]
    seen, out = set(), []
    for mask in range(1 << len(slots)):
        bits = [i for i in range(len(slots)) if mask >> i & 1]
        edges = [slots[i] for i in bits]
        if not is_connected(n, edges):
            continue
        canon = min(sum(1 << m[i] for i in bits) for m in maps)
        if canon not in seen:
            seen.add(canon)
            out.append((n, edges))
    return out


def line_graph(graph):
    """Vertex i is base edge i; two vertices are adjacent iff their base
    edges share an endpoint.  Line graphs are claw-free."""
    n, edges = graph
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    ledges = {pair for ids in incident for pair in combinations(ids, 2)}
    return len(edges), sorted(ledges)


def max_degree(graph):
    n, edges = graph
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def random_hypergraph(n, m, size_lo, size_hi, rng):
    return n, [
        sorted(rng.sample(range(n), rng.randint(size_lo, size_hi)))
        for _ in range(m)
    ]


def random_formula(nvars, nclauses, rng):
    """Positive 3-CNF with distinct clauses, each a sorted variable triple."""
    clauses = set()
    while len(clauses) < nclauses:
        clauses.add(tuple(sorted(rng.sample(range(nvars), 3))))
    return nvars, sorted(clauses)


def incidence_graph(formula):
    """Variables 0..n-1, clauses n..n+m-1, one edge per clause membership."""
    nvars, clauses = formula
    return nvars + len(clauses), [
        (x, nvars + j) for j, c in enumerate(clauses) for x in c
    ]


def g_prime(formula):
    """Incidence graph plus a pendant path x_i - mid_i - far_i per variable;
    its PIMDSs are the 1-in-3 solutions."""
    nvars, clauses = formula
    n, edges = incidence_graph(formula)
    for i in range(nvars):
        mid = n + 2 * i
        edges += [(i, mid), (mid, mid + 1)]
    return n + 2 * nvars, edges


def g_double_prime(formula):
    """Incidence graph plus a pendant vertex per variable; its PIDSs are
    the 1-in-3 solutions."""
    nvars, clauses = formula
    n, edges = incidence_graph(formula)
    edges += [(i, n + i) for i in range(nvars)]
    return n + nvars, edges


HUB_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4) for _ in "ab"]


def hub_gadget(graph):
    """H_G: twelve copies of G, two per hub pair, then four hubs; both hubs
    of a pair are adjacent to every vertex of the pair's two copies."""
    n, edges = graph
    out = []
    for t, (i, j) in enumerate(HUB_PAIRS):
        off = t * n
        out += [(off + u, off + v) for u, v in edges]
        out += [(off + q, 12 * n + hub) for q in range(n) for hub in (i, j)]
    return 12 * n + 4, out


def find_cf_coloring(n, hedges, palette, rng, steps=200):
    """Min-conflicts local search for a CF partial coloring; None when the
    step budget runs out.  Used to certify that an instance is colorable."""
    options = list(palette) + [None]
    color = {v: rng.choice(options) for v in range(n)}
    incident = [[] for _ in range(n)]
    for i, e in enumerate(hedges):
        for v in e:
            incident[v].append(i)

    def edge_ok(i):
        return unique_count([v for v in hedges[i] if color[v] is not None], color) > 0

    bad = {i for i in range(len(hedges)) if not edge_ok(i)}
    for _ in range(steps):
        if not bad:
            return {v: c for v, c in color.items() if c is not None}
        v = rng.choice(hedges[rng.choice(sorted(bad))])
        scores = []
        for c in options:
            color[v] = c
            scores.append((sum(1 for i in incident[v] if not edge_ok(i)), c))
        low = min(s for s, _ in scores)
        color[v] = rng.choice([c for s, c in scores if s == low])
        for i in incident[v]:
            if edge_ok(i):
                bad.discard(i)
            else:
                bad.add(i)
    return None


def colorable_graph(n, m, rng, palette=(1, 2)):
    """G(n, m) drawn until local search certifies a CN* coloring from
    `palette`, so that a "no" answer on it is known to be wrong."""
    while True:
        graph = random_graph(n, m, rng)
        witness = find_cf_coloring(n, neighborhoods(*graph, "cn"), palette, rng)
        if witness is not None:
            return graph


def write_graph(path, graph):
    n, edges = graph
    lines = [f"p graph {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


def read_graph(text):
    n, edges = 0, set()
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            n = int(parts[2])
        elif parts and parts[0] == "e":
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            edges.add((min(u, v), max(u, v)))
    return n, edges


def write_hypergraph(path, hgraph):
    n, edges = hgraph
    lines = [f"p hgraph {n} {len(edges)}"]
    lines += ["h " + " ".join(str(v + 1) for v in e) for e in edges]
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


def write_formula(path, formula):
    nvars, clauses = formula
    lines = [f"p cnf {nvars} {len(clauses)}"]
    lines += [" ".join(str(x + 1) for x in c) + " 0" for c in clauses]
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)
