"""Pure-Python search kernel.

Same contract as the C kernel in ``_kernel.c``; the two are
interchangeable and must explore the identical search tree so results are
byte-identical.  This module is the reference the parity tests compare the
C kernel against, and the fallback when it cannot be built.  See
``cfcolor.kernels`` for the import-time selection.

Status codes: 0 = solution found, 1 = exhausted (no solution),
2 = node budget exceeded.
"""

from __future__ import annotations

UNDECIDED = -2
UNCOLORED = -1


def check_input(n, vertices, colors):
    """Raise ValueError unless every edge vertex lies in [0, n) and no
    color is negative.  Both kernels index their arrays with vertices and
    colors, the C kernel unchecked, so each runs this, on its flattened
    edges and lists, before its search."""
    if vertices and (min(vertices) < 0 or max(vertices) >= n):
        raise ValueError(f"edge vertex out of range [0, {n})")
    if colors and min(colors) < 0:
        raise ValueError("negative color")


def solve_cf(n, edges, lists, require_total, symmetric, budget):
    """Backtracking search for a conflict-free (partial) list coloring.

    `edges` are vertex index lists, `lists` per-vertex dense color ids in
    list order (when `symmetric`, all lists are identical and a color may
    only be introduced as previous-max + 1).  Vertices are branched in
    decreasing hypergraph-degree order; colors in list order; the
    "uncolored" branch last (absent when require_total).

    Returns (status, assignment, nodes) where assignment[v] is a dense
    color or -1 for uncolored.  Raises ValueError on a vertex or color
    that check_input rejects.
    """
    check_input(
        n, [v for e in edges for v in e], [c for lst in lists for c in lst]
    )
    m = len(edges)
    num_colors = 0
    for lst in lists:
        for c in lst:
            if c + 1 > num_colors:
                num_colors = c + 1

    incident = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for v in e:
            incident[v].append(ei)

    order = sorted(range(n), key=lambda v: (-len(incident[v]), v))

    cnt = [[0] * num_colors for _ in range(m)]
    uniq = [0] * m
    und = [len(e) for e in edges]
    unsat = m
    state = [UNDECIDED] * n
    nodes = 0

    def edge_alive(ei):
        # an edge with no unique color can still be fixed iff some
        # undecided vertex can contribute a color unseen in the edge
        if uniq[ei] != 0:
            return True
        if und[ei] == 0:
            return False
        row = cnt[ei]
        for v in edges[ei]:
            if state[v] == UNDECIDED:
                for c in lists[v]:
                    if row[c] == 0:
                        return True
        return False

    def assign(v, value):
        # returns False when some incident edge becomes dead
        nonlocal unsat
        state[v] = value
        ok = True
        for ei in incident[v]:
            und[ei] -= 1
            if value >= 0:
                row = cnt[ei]
                row[value] += 1
                if row[value] == 1:
                    uniq[ei] += 1
                    if uniq[ei] == 1:
                        unsat -= 1
                elif row[value] == 2:
                    uniq[ei] -= 1
                    if uniq[ei] == 0:
                        unsat += 1
        for ei in incident[v]:
            if not edge_alive(ei):
                ok = False
                break
        return ok

    def unassign(v, value):
        nonlocal unsat
        state[v] = UNDECIDED
        for ei in incident[v]:
            und[ei] += 1
            if value >= 0:
                row = cnt[ei]
                if row[value] == 1:
                    uniq[ei] -= 1
                    if uniq[ei] == 0:
                        unsat += 1
                elif row[value] == 2:
                    uniq[ei] += 1
                    if uniq[ei] == 1:
                        unsat -= 1
                row[value] -= 1

    def search(idx, max_used):
        nonlocal nodes
        if not require_total and unsat == 0:
            return 0
        if idx == n:
            return 0 if unsat == 0 else 1
        v = order[idx]
        if symmetric:
            limit = min(len(lists[v]), max_used + 2)
            candidates = lists[v][:limit]
        else:
            candidates = lists[v]
        for c in candidates:
            nodes += 1
            if nodes > budget:
                return 2
            ok = assign(v, c)
            if ok:
                r = search(idx + 1, max(max_used, c) if symmetric else max_used)
                if r != 1:
                    return r
            unassign(v, c)
        if not require_total:
            nodes += 1
            if nodes > budget:
                return 2
            ok = assign(v, UNCOLORED)
            if ok:
                r = search(idx + 1, max_used)
                if r != 1:
                    return r
            unassign(v, UNCOLORED)
        return 1

    status = search(0, -1)
    if status == 0:
        result = [c if c >= 0 else -1 for c in state]
        return 0, result, nodes
    return status, None, nodes

