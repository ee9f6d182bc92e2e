"""Pure-Python kernels.

``search`` is a line-for-line port of the C kernel in ``_kernel.c``: the
same flat arguments, prepared and checked by ``cfcolor.kernels.solve_cf``,
and the identical search tree, so results are byte-identical.  This
module is the reference the parity tests compare the C kernel against,
and the fallback when it cannot be built.

The search decides the connected parts of the edges one after the
other and ends at the first part without a solution.

``max_star`` is the induced-star branch and bound that ``_kernel.c``
ports to word bitsets; here the bitsets are Python ints.  Both take a
graph's adjacency as CSR (compressed sparse row) arrays: row v is
vert[start[v]:start[v + 1]].

``greedy_color`` is the first-fit coloring behind
``graphs.greedy_color_classes`` and the pipeline's classes, on the same
CSR arrays, and ``gamma`` the edge-meeting count behind
``graphs.hypergraph_stats``, on a hypergraph's CSR edges
(``Hypergraph.csr``).  The C kernel computes both without bitmasks, to
the same results: ``gamma`` as an entry of its own and the classes
inside ``pipeline_core``; ``greedy_color`` has no C entry.

``near_uniform`` is the sample-and-resample loop behind
``prob.near_uniform_color``; the C kernel's draws continue the same
Mersenne Twister stream, so both color alike.

``pipeline_core`` runs the stages of ``prob.cfcn_pipeline`` that do not
depend on the seed on a graph's CSR arrays: the core A and the classes,
``_neighbor_tables`` and ``_check_structure``, ``color_h1`` and
``reduce_lists``, and H2.  The C kernel runs them in one call, to the
same Core, and leaves H1's greedy dead ends, which need the exact
solver, to this one.

There are no pure-Python file readers: without the C kernel, ``fileio``
reads every graph and hypergraph file record by record.

``search`` returns (status, assignment, nodes) with status 0 = solution
found, 1 = exhausted (no solution) or 2 = node budget exceeded;
``max_star`` returns t; ``greedy_color`` a color per vertex; ``gamma``
Gamma; ``near_uniform`` returns (color by vertex, rounds) or raises
ResampleFailure; ``pipeline_core`` a Core.  ``check_csr`` is the CSR
check of ``greedy_color`` and of both backends of ``max_star``, ``gamma``
and ``pipeline_core``, ``check_order`` the order check of
``greedy_color`` and ``check_error`` the PipelineError of both
``pipeline_core`` backends.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from functools import reduce
from itertools import accumulate, chain, pairwise
from operator import or_
from typing import NamedTuple

from cfcolor.errors import PipelineError, ResampleFailure
from cfcolor.verify import unique_colors

UNDECIDED = -2
UNCOLORED = -1
# the errors of the kernels for CSR arrays and orders they cannot read
BAD_CSR = "CSR starts must rise from 0 to the number of neighbors"
BAD_ROW = "adjacency row {} names a vertex outside [0, n) or itself"
BAD_VERTEX = "CSR row {} names a vertex outside [0, n)"
BAD_ORDER = "order vertex {} lies outside [0, n)"
REPEATED_ORDER = "order repeats vertex {}"


def search(n, m, edge_start, edge_vert, list_lo, list_hi, list_color, num_colors,
           require_total, symmetric, uncolored_first, budget):
    """Backtracking search for a conflict-free (partial) list coloring.

    Edge e is edge_vert[edge_start[e]:edge_start[e + 1]] and the list of
    v, dense colors below num_colors, list_color[list_lo[v]:list_hi[v]]
    (when `symmetric`, all lists are identical and a color may only be
    introduced as previous-max + 1).  Vertices are
    branched part by part, by smallest vertex and the vertices in no edge
    last, each in decreasing hypergraph-degree order, ties by id.  At each
    vertex a partial search (`require_total` false) tries "uncolored"
    first when `uncolored_first`, then the colors in list order;
    otherwise the colors, then "uncolored".  A total search tries only
    the colors.  A search over one part that finds nothing visits the
    same nodes in either order.

    The search is the C kernel's loop: an explicit state per depth
    instead of recursion, so its depth is bounded by n, not by the
    Python recursion limit.

    Returns (status, assignment, nodes) where assignment[v] is a dense
    color or -1 for uncolored.
    """
    edges = [edge_vert[edge_start[ei]:edge_start[ei + 1]] for ei in range(m)]
    # a symmetric search passes its shared list once
    spans = zip(list_lo, list_hi)
    lists = [list_color] * n if symmetric else [list_color[a:b] for a, b in spans]

    incident = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for v in e:
            incident[v].append(ei)

    # a part is named by its smallest vertex, the root of a union-find,
    # and the vertices in no edge come last, as part n
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for e in edges:
        for u in e:
            a, b = find(e[0]), find(u)
            root[max(a, b)] = min(a, b)
    part = [find(v) if incident[v] else n for v in range(n)]
    order = sorted(range(n), key=lambda v: (part[v], -len(incident[v]), v))
    # backtracking out of a part's first vertex ends the search; depth n,
    # past the last vertex, begins no part
    first = [True] + [part[order[d]] != part[order[d - 1]] for d in range(1, n)]
    first.append(False)

    cnt = [[0] * num_colors for _ in range(m)]
    uniq = [0] * m
    und = [len(e) for e in edges]
    unsat = m
    state = [UNDECIDED] * n

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
        # returns False when some incident edge becomes dead; the
        # assignment is made either way and undone by unassign
        nonlocal unsat
        state[v] = value
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
                return False
        return True

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

    # depth d decides order[d]: nxt[d] walks v's list positions up to
    # end[d], and "uncolored" takes one extra position: the one before the
    # list (head) or the one after the colors (tail)
    head = 1 if uncolored_first and not require_total else 0
    tail = 1 if not uncolored_first and not require_total else 0
    nxt = [0] * (n + 1)
    end = [0] * (n + 1)
    value = [0] * (n + 1)
    max_used = [-1] * (n + 1)
    nodes = 0
    d = 0
    while True:
        # entering depth d
        if not require_total and unsat == 0:
            break
        if d == n:
            if unsat == 0:
                break
        else:
            limit = len(lists[order[d]])
            if symmetric and limit > max_used[d] + 2:
                limit = max_used[d] + 2
            nxt[d] = -head
            end[d] = limit + tail
        # find the next child to descend into, backtracking as needed
        while True:
            if d < n and nxt[d] < end[d]:
                i = nxt[d]
                nxt[d] = i + 1
                v = order[d]
                c = lists[v][i] if 0 <= i < end[d] - tail else UNCOLORED
                nodes += 1
                if nodes > budget:
                    return 2, None, nodes
                value[d] = c
                if assign(v, c):
                    break
                unassign(v, c)
                continue
            if first[d]:
                return 1, None, nodes
            d -= 1
            unassign(order[d], value[d])
        c = value[d]
        max_used[d + 1] = c if symmetric and c > max_used[d] else max_used[d]
        d += 1
    return 0, [c if c >= 0 else -1 for c in state], nodes


def clique_cover(p, masks):
    """Number of cliques in a greedy cover of the vertex bitmask `p`: an
    upper bound on its independence number."""
    count = 0
    while p:
        low = p & -p
        cand = p & masks[low.bit_length() - 1]
        p ^= low
        while cand:
            low = cand & -cand
            cand &= masks[low.bit_length() - 1]
            p ^= low
        count += 1
    return count


def check_csr(start, vert):
    """Raise ValueError unless the int array start rises from 0 to
    len(vert), so that every row lies inside vert."""
    starts = start.tolist()
    if not starts or starts[0] != 0 or starts[-1] != len(vert) or starts != sorted(starts):
        raise ValueError(BAD_CSR)


def max_star(start, vert):
    """The largest t such that the graph with CSR adjacency
    (start, vert) contains an induced star K_{1,t}; t is 0 for an
    edgeless graph.  Starts that do not rise from 0 to len(vert), and a
    row that names a vertex outside [0, n) or its own vertex, raise
    ValueError.

    t is the maximum, over vertices v, of the maximum independent set
    size inside N(v).  One branch-and-bound over every neighborhood, with
    an explicit stack: a node is (chosen count, candidate bitmask); it
    tries "include the lowest candidate" before "exclude it" and is
    pruned when its count plus a greedy clique cover of its candidates
    cannot beat the best set found so far in any neighborhood.  A node
    whose cover is all singletons is an independent set and needs no
    branching.
    """
    check_csr(start, vert)
    n = len(start) - 1
    masks = []
    for v in range(n):
        mask = 0
        try:
            for w in vert[start[v]:start[v + 1]]:
                mask |= 1 << w
        except ValueError:  # a negative shift count
            mask = -1
        if mask < 0 or mask >> n or mask >> v & 1:
            raise ValueError(BAD_ROW.format(v))
        masks.append(mask)
    best = 0
    for root in masks:
        stack = [(0, root)]
        while stack:
            size, p = stack.pop()
            cover = clique_cover(p, masks)
            if size + cover <= best:
                continue
            if cover == p.bit_count():
                best = size + cover
                continue
            low = p & -p
            rest = p ^ low
            stack.append((size, rest))
            stack.append((size + 1, rest & ~masks[low.bit_length() - 1]))
    return best


def check_order(n, order):
    """Raise ValueError unless every vertex of `order` lies in [0, n): the
    check ``greedy_color`` makes before any other on the order."""
    if order and (min(order) < 0 or max(order) >= n):
        raise ValueError(BAD_ORDER.format(next(v for v in order if not 0 <= v < n)))


def _check_rows(n, start, vert):
    """Raise ValueError for the first CSR row that names a vertex outside
    [0, n)."""
    if vert and (min(vert) < 0 or max(vert) >= n):
        for r, (a, b) in enumerate(pairwise(start)):
            if any(not 0 <= v < n for v in vert[a:b]):
                raise ValueError(BAD_VERTEX.format(r))


def greedy_color(start, vert, order):
    """The first-fit color of each vertex of the graph with CSR adjacency
    (start, vert), -1 for a vertex not in `order`: the vertices of order
    take in turn the smallest color that no already-colored neighbor has.
    Bad starts, an order vertex outside [0, n), a row vertex outside
    [0, n) and a repeated order vertex raise ValueError, in that order.

    used[v] has bit c set once a neighbor of v is colored c, and the
    lowest zero bit is the smallest free color.
    """
    check_csr(start, vert)
    n = len(start) - 1
    check_order(n, order)
    _check_rows(n, start, vert)
    color = [UNCOLORED] * n
    used = [0] * n
    for v in order:
        if color[v] >= 0:
            raise ValueError(REPEATED_ORDER.format(v))
        u = used[v]
        c = color[v] = (~u & (u + 1)).bit_length() - 1
        bit = 1 << c
        for w in vert[start[v]:start[v + 1]]:
            used[w] |= bit
    return color


def gamma(n, start, vert):
    """Gamma of the hypergraph on n vertices with CSR edges (start, vert):
    the largest number of other edges that one edge meets, 0 without
    edges.  Duplicate edges meet each other.  Bad starts and an edge
    vertex outside [0, n) raise ValueError.

    Each vertex gets a bitmask of the edges containing it, and the edges
    an edge meets, itself included, are the OR of its own bit and its
    vertices' masks.
    """
    check_csr(start, vert)
    _check_rows(n, start, vert)
    edges = [vert[a:b] for a, b in pairwise(start)]
    masks = [0] * n
    for i, e in enumerate(edges):
        bit = 1 << i
        for v in e:
            masks[v] |= bit
    return max(
        (reduce(or_, map(masks.__getitem__, e), 1 << i).bit_count() - 1
         for i, e in enumerate(edges)),
        default=0,
    )


def near_uniform(h, lists, seed, max_rounds):
    """The resampling loop of ``prob.near_uniform_color``, which checks
    its input.  Every vertex draws a color with ``lists.sample`` from
    ``random.Random(seed)``; while some edge is bad, with at least 7/8 of
    its vertices colored non-uniquely, the vertices of the lowest-index
    bad edge draw again, in edge order, at most max_rounds times.
    Returns (color by vertex, rounds); at the cap it raises
    ResampleFailure(rounds, lowest bad edge).  An edge vertex outside
    [0, n) raises ValueError, as in ``gamma``.

    The set of bad edges is kept across rounds: a resample can change
    only the edges that meet the resampled one, so only those are
    checked again (Moser & Tardos, JACM 2010).  The check reads counts
    kept per edge, not the edge's colors: a color -> count dict and the
    number of colors counted once, which is the number of uniquely
    colored vertices.  Each recolored vertex updates them on its incident
    edges.  The finished coloring is checked by a full scan.
    """
    _check_rows(h.n, *h.csr)
    rng = random.Random(seed)
    sizes = [len(e) for e in h.edges]
    color = [lists.sample(v, rng) for v in range(h.n)]
    incident = h.incidence
    counts = [Counter([color[v] for v in edge]) for edge in h.edges]
    once = [list(cnt.values()).count(1) for cnt in counts]

    def is_bad(i):
        return 8 * (sizes[i] - once[i]) >= 7 * sizes[i]

    bad = set(filter(is_bad, range(h.m)))
    rounds = 0
    while bad:
        worst = min(bad)
        if rounds >= max_rounds:
            raise ResampleFailure(rounds, worst)
        touched = set()
        for v in h.edges[worst]:
            old = color[v]
            new = color[v] = lists.sample(v, rng)
            touched.update(incident[v])
            if new == old:
                continue
            for i in incident[v]:
                cnt = counts[i]
                x = cnt.pop(old)
                if x > 1:
                    cnt[old] = x - 1
                y = cnt.get(new, 0)
                cnt[new] = y + 1
                # old: 1 -> 0 loses a unique color, 2 -> 1 gains one;
                # new: 0 -> 1 gains one, 1 -> 2 loses one
                once[i] += (x == 2) - (x == 1) + (y == 0) - (y == 1)
        rounds += 1
        bad -= touched
        bad.update(filter(is_bad, touched))

    for edge in h.edges:
        non_unique = len(edge) - len(unique_colors([color[v] for v in edge]))
        if 8 * non_unique >= 7 * len(edge):  # pragma: no cover
            raise AssertionError("resampling terminated with a bad edge")
    return color, rounds


# the checks of pipeline_core, numbered as the C entry reports them:
# (stage, message) by number - 1, formatted with the failing vertex v,
# the count found there, k1 = k - 1, b and need = (k - 1) b + 2
STRUCTURE_A, STRUCTURE_C, LIST_SIZE, X_SIZE, Y_SIZE, EMPTY_LIST = range(1, 7)
CHECKS = (
    ("structure", "vertex {v} has {count} A-neighbors, expected 1..{k1}"),
    ("structure", "C-vertex {v} has {count} B-neighbors, expected {b}..{k1b}"),
    ("color_h1", "list of {v} has {count} colors, need {need}"),
    ("reduce_lists", "|X_{v}| = {count} > k-1"),
    ("reduce_lists", "|Y_{v}| = {count} exceeds (k-1)(b-1)+1"),
    ("reduce_lists", "vertex {v} left with empty list"),
)


def check_error(check, v, count, k, b):
    """The PipelineError of the pipeline check numbered `check`, failed
    at vertex v with `count` found there."""
    stage, message = CHECKS[check - 1]
    k1 = k - 1
    return PipelineError(
        stage, message.format(v=v, count=count, k1=k1, b=b, k1b=k1 * b, need=k1 * b + 2)
    )


class Core(NamedTuple):
    """What ``pipeline_core`` found.  A is members[:bounds[1]] and greedy
    class i is members[bounds[i + 1]:bounds[i + 2]], each increasing; B
    is the first b classes and C the rest.  f1 maps each A-vertex to its
    H1 color; removed holds (X_u, Y_u), two frozensets of colors, for
    each B-vertex u in increasing order; h2 is H2's CSR edges (start,
    vert), one per C-vertex in increasing order, of the indices of its
    B-neighbors in sorted B.  error is (stage, message) of the first
    failed check, and the fields it leaves unreached are None: f1 when
    H1 was not colored, removed and h2 when C is empty or a check
    failed."""

    members: list
    bounds: list
    b: int
    f1: dict | None
    removed: list | None
    h2: tuple | None
    error: tuple | None


def pipeline_core(start, vert, lists, k, b_cap):
    """The stages of ``prob.cfcn_pipeline`` that do not depend on the
    seed, on a graph's CSR adjacency (start, vert), as a Core: the greedy
    maximal independent set A by increasing vertex; the first-fit classes
    of the other vertices in increasing order; b = min(s, b_cap) for s
    classes; the structure checks; color_h1; and, when C is not empty,
    reduce_lists and H2.  Bad starts, lists that do not cover every
    vertex and a row vertex outside [0, n) raise ValueError, in that
    order; a failed check ends the run, as Core.error.
    """
    check_csr(start, vert)
    n = len(start) - 1
    if lists.n != n:
        raise ValueError("lists must cover every vertex")
    _check_rows(n, start, vert)
    rows = [vert[a:b] for a, b in pairwise(start)]
    a_sorted = independent_set(rows)
    a_set = set(a_sorted)
    color = greedy_color(start, vert, [v for v in range(n) if v not in a_set])
    s = max(color, default=UNCOLORED) + 1
    b = min(s, b_cap)
    groups = [a_sorted] + [[] for _ in range(s)]
    for v, c in enumerate(color):
        if c >= 0:
            groups[c + 1].append(v)
    members = list(chain.from_iterable(groups))
    bounds = list(accumulate(map(len, groups), initial=0))
    b_set = set(chain.from_iterable(groups[1:b + 1]))
    c_sorted = sorted(chain.from_iterable(groups[b + 1:]))

    f1 = removed = h2 = None
    try:
        in_a, in_b = _neighbor_tables(rows, a_sorted, b_set, c_sorted)
        _check_structure(in_a, in_b, a_set, k, b)
        for a in a_sorted:
            if lists.size(a) < (k - 1) * b + 2:
                raise check_error(LIST_SIZE, a, lists.size(a), k, b)
        f1, witness = color_h1(in_a, a_set, b_set, lists)
        if c_sorted:
            removed = reduce_lists(rows, in_a, b_set, witness, lists, k, b)
            b_index = {u: i for i, u in enumerate(sorted(b_set))}
            h2 = (
                array("i", accumulate(map(len, in_b.values()), initial=0)),
                array("i", [b_index[u] for row in in_b.values() for u in row]),
            )
    except PipelineError as exc:
        return Core(members, bounds, b, f1, None, None, exc.args)
    return Core(members, bounds, b, f1, removed, h2, None)


def independent_set(rows):
    """The greedy maximal independent set of the graph with adjacency
    rows, scanning vertices by increasing id, in increasing order."""
    chosen, blocked = [], [False] * len(rows)
    for v, row in enumerate(rows):
        if not blocked[v]:
            chosen.append(v)
            for w in row:
                blocked[w] = True
    return chosen


def _neighbor_tables(rows, a_sorted, b_set, c_sorted):
    """in_a[v], v's closed A-neighbors (v itself for v in A, since A is
    independent), and in_b[v], each C-vertex's B-neighbors, keyed in
    increasing order; every row increases.  Only the rows of A and B are
    read, so the work is their degree sum, not every neighborhood's.
    """
    in_a = [[] for _ in rows]
    for a in a_sorted:
        in_a[a].append(a)
        for w in rows[a]:
            in_a[w].append(a)
    in_b = {v: [] for v in c_sorted}
    for u in sorted(b_set):
        for w in rows[u]:
            if w in in_b:
                in_b[w].append(u)
    return in_a, in_b


def _check_structure(in_a, in_b, a_set, k, b):
    """Every vertex outside A has 1..k-1 A-neighbors and every C-vertex
    b..(k-1)b B-neighbors; the lowest vertex that fails is named."""
    for v, row in enumerate(in_a):
        if v not in a_set and not (1 <= len(row) <= k - 1):
            raise check_error(STRUCTURE_A, v, len(row), k, b)
    for v, row in in_b.items():
        if not (b <= len(row) <= (k - 1) * b):
            raise check_error(STRUCTURE_C, v, len(row), k, b)


def color_h1(in_a, a_set, b_set, lists):
    """Color the independent core so every vertex of A u B sees a unique
    color among its closed A-neighbors, which in_a[v] lists in increasing
    order.

    Greedy: each a in A takes a list color unused by any A-vertex sharing
    a conflict edge with it; a greedy dead end falls back to the exact
    solver on the A-neighborhood hypergraph H1.  Requires
    |L_a| >= (k-1)b + 2 in the pipeline's parlance; callers check sizes.
    Returns (f1, witness), where f1 maps each a in A to its color and
    witness[v] for v in A u B is the smallest color that appears once on
    in_a[v] under f1; an A-vertex is its own witness.
    """
    a_sorted = sorted(a_set)
    vertices = sorted(a_set | b_set)
    for v in vertices:
        if not in_a[v]:
            raise PipelineError(
                "color_h1", f"vertex {v} in B has no neighbor in A"
            )

    conflicts = {a: set() for a in a_sorted}
    for v in vertices:
        edge = in_a[v]
        for x in edge:
            conflicts[x].update(w for w in edge if w != x)

    f = {}
    greedy_ok = True
    for a in a_sorted:
        taken = {f[w] for w in conflicts[a] if w in f}
        chosen = None
        for c in lists.colors(a):
            if c not in taken:
                chosen = c
                break
        if chosen is None:
            greedy_ok = False
            break
        f[a] = chosen

    if not greedy_ok:
        # imported here: solve imports the kernels, which import this module
        from cfcolor.graphs import Hypergraph
        from cfcolor.solve import SolveInstance, solve_list_cf

        a_index = {a: i for i, a in enumerate(a_sorted)}
        h1 = Hypergraph._from_sorted(
            len(a_sorted), [tuple(a_index[w] for w in in_a[v]) for v in vertices]
        )
        sub = solve_list_cf(SolveInstance(h1), lists.restrict(a_sorted))
        if sub is None:
            raise PipelineError("color_h1", "A-core hypergraph is uncolorable")
        f = {a_sorted[i]: c for i, c in sub.items()}

    witness = {}
    for v in vertices:
        unique = unique_colors([f.get(w) for w in in_a[v]])
        if not unique:  # pragma: no cover
            raise AssertionError("H1 coloring left an edge without a witness")
        witness[v] = min(unique)
    return f, witness


def reduce_lists(rows, in_a, b_set, witness, lists, k, b):
    """The colors to strike from the lists of B: for u in B, X_u holds
    the witness colors of u's A-neighbors in_a[u] (their own colors) and
    Y_u those of u's closed B-neighbors, u itself and those in rows[u],
    from color_h1's witness map.  Returns (X_u, Y_u) as frozensets for
    each u in increasing order.  The checks name the first u whose X_u or
    Y_u is too large, or whose list L_u minus both is empty.
    """
    removed = []
    for u in sorted(b_set):
        xs = frozenset(witness[a] for a in in_a[u])
        ys = frozenset([witness[u], *(witness[w] for w in rows[u] if w in b_set)])
        if len(xs) > k - 1:
            raise check_error(X_SIZE, u, len(xs), k, b)
        if len(ys) > (k - 1) * (b - 1) + 1:
            raise check_error(Y_SIZE, u, len(ys), k, b)
        if sum(lists.contains(u, c) for c in xs | ys) == lists.size(u):
            raise check_error(EMPTY_LIST, u, 0, k, b)
        removed.append((xs, ys))
    return removed
