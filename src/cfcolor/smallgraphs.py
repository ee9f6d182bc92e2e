"""Exhaustive enumeration of small graphs, for sweeps and brute-force
property checks."""

from __future__ import annotations

from itertools import combinations, permutations

from cfcolor.graphs import Graph


def nonisomorphic_graphs(n, connected_only=False):
    """One graph per isomorphism class on vertices 0..n-1: the smallest
    edge mask of each class (bit i is the i-th pair of
    combinations(range(n), 2)), in increasing mask order.  The first
    unmarked mask starts a class, and its n! relabelings are marked at
    once.  The marks take 2^(n(n-1)/2) bytes, 2 MiB at n = 7 and 256 MiB
    at n = 8, so n is at most 7."""
    if n > 7:
        raise ValueError(f"nonisomorphic_graphs enumerates n <= 7, not {n}")
    slots = list(combinations(range(n), 2))
    bit = {pair: 1 << i for i, pair in enumerate(slots)}
    # one table per relabeling p: pair index -> bit of the pair it maps to
    tables = [
        [bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in slots]
        for p in permutations(range(n))
    ]
    seen = bytearray(1 << len(slots))
    out = []
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        present = [i for i in range(len(slots)) if mask >> i & 1]
        for table in tables:
            seen[sum(map(table.__getitem__, present))] = 1
        g = Graph(n, [slots[i] for i in present])
        if not connected_only or is_connected(g):
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
