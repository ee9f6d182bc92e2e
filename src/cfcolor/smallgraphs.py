"""Exhaustive enumeration of small graphs, for sweeps and brute-force
property checks."""

from __future__ import annotations

from itertools import combinations, permutations

from cfcolor.graphs import Graph


def all_labeled_graphs(n):
    """Every graph on vertices 0..n-1."""
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


def _canonical_form(n, edge_set):
    best = None
    for perm in permutations(range(n)):
        mapped = frozenset(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edge_set
        )
        key = tuple(sorted(mapped))
        if best is None or key < best:
            best = key
    return best


def nonisomorphic_graphs(n, connected_only=False):
    """One representative per isomorphism class (brute-force canonical
    form; intended for n <= 6)."""
    seen = set()
    out = []
    for g in all_labeled_graphs(n):
        if connected_only and not is_connected(g):
            continue
        key = _canonical_form(n, g.edges)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def is_connected(g):
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n
