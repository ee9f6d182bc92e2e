"""Reference oracles for cross-checking the library.

The brute-force ones enumerate the full search space with no pruning;
keep their instances tiny.  The others are the plain, slower forms of
optimized library routines, which must agree with them exactly.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from cfcolor import kernels
from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.graphs import Graph
from cfcolor.prob import ResampleFailure
from cfcolor.smallgraphs import is_connected
from cfcolor.solve import (
    ChoosabilityCertificate,
    _canonical_k_subsets,
    solve_list_cf,
)


# for tests of the C kernel: alone, or against the pure-Python kernels or
# the record loop of fileio
requires_compiled = pytest.mark.skipif(
    kernels.BACKEND != "compiled", reason="no C compiler to build _kernel.c"
)


def run_python(code, *flags, timeout=None, check=True, stdout=subprocess.PIPE):
    """Run code in a fresh interpreter that imports this cfcolor, its
    stdout going to `stdout` (captured by default); with check, a
    nonzero exit raises."""
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = dict(os.environ)
    # stdout is block-buffered, as it is for a user, unless flushed
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        check=check,
        timeout=timeout,
    )


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def brute_force_nonisomorphic_graphs(n, connected_only=False):
    """nonisomorphic_graphs by a canonical form per labeled graph: every
    graph on 0..n-1 in edge-mask order, kept when the smallest sorted
    edge tuple over all n! relabelings of it is new."""
    slots = list(combinations(range(n), 2))
    seen = set()
    out = []
    for mask in range(1 << len(slots)):
        g = Graph(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])
        if connected_only and not is_connected(g):
            continue
        key = min(
            tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges))
            for p in permutations(range(n))
        )
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def has_edge(g, u, v):
    return v in g.adj[u]


def format_hypergraph(h):
    lines = [f"p hgraph {h.n} {h.m}"]
    lines.extend("h " + " ".join(str(v + 1) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def format_formula(formula):
    lines = [f"p cnf {formula.n} {formula.m}"]
    lines.extend(
        " ".join(str(x + 1) for x in clause) + " 0" for clause in formula.clauses
    )
    return "\n".join(lines) + "\n"


def cf_valid(h, f, require_total=False):
    """Direct restatement of the CF condition, independent of verify_cf."""
    if require_total and len(f) != h.n:
        return False
    for e in h.edges:
        colors = [f[v] for v in e if v in f]
        if not any(colors.count(c) == 1 for c in set(colors)):
            return False
    return True


def cf_report(h, f, lists=None, require_total=False):
    """verify_cf's report fields, restated from the definition: for each
    edge, (edge, vertex, color) with the smallest color that exactly one
    of its colored vertices has, or the edge as a violation; colored
    vertices outside their lists; uncolored vertices when totality is
    required.  Returns (witnesses, edge violations, list violations,
    totality violations) as tuples."""
    witnesses = []
    edge_violations = []
    for i, e in enumerate(h.edges):
        colors = [f[v] for v in e if v in f]
        once = sorted(c for c in set(colors) if colors.count(c) == 1)
        if once:
            (v,) = [v for v in e if v in f and f[v] == once[0]]
            witnesses.append((i, v, once[0]))
        else:
            edge_violations.append(i)
    list_violations = []
    if lists is not None:
        list_violations = [
            v for v in range(h.n) if v in f and f[v] not in lists.colors(v)
        ]
    totality_violations = []
    if require_total:
        totality_violations = [v for v in range(h.n) if v not in f]
    return (
        tuple(witnesses),
        tuple(edge_violations),
        tuple(list_violations),
        tuple(totality_violations),
    )


def first_fit_classes(g, order):
    """greedy_color_classes with each vertex's used colors collected in a
    set and the first free color searched upward."""
    color = {}
    for v in order:
        used = {color[w] for w in g.adj[v] if w in color}
        color[v] = min(c for c in range(len(used) + 1) if c not in used)
    count = max(color.values(), default=-1) + 1
    return tuple(
        frozenset(v for v in color if color[v] == c) for c in range(count)
    )


def brute_force_cf(h, lists, require_total=False):
    """Some valid CF(*) coloring by full enumeration, or None."""
    options = []
    for v in range(h.n):
        opts = [(v, c) for c in lists.colors(v)]
        if not require_total:
            opts.append((v, None))
        options.append(opts)
    for combo in product(*options):
        f = PartialColoring({v: c for v, c in combo if c is not None})
        if cf_valid(h, f, require_total=require_total):
            return f
    return None


def all_pimds(g):
    """Every PIMDS of g, by enumerating all 2^n subsets."""
    out = []
    for mask in range(1 << g.n):
        s = {v for v in range(g.n) if mask >> v & 1}
        if all(sum(1 for w in g.adj[v] if w in s) == 1 for v in range(g.n)):
            out.append(frozenset(s))
    return out


def all_pids(g):
    """Every PIDS of g, by enumerating all 2^n subsets."""
    out = []
    for mask in range(1 << g.n):
        s = {v for v in range(g.n) if mask >> v & 1}
        if all(
            sum(1 for w in g.closed[v] if w in s) == 1
            for v in range(g.n)
        ):
            out.append(frozenset(s))
    return out


def all_one_in_three(formula):
    """Every 1-in-3 solution, by enumerating all 2^n assignments."""
    out = []
    for mask in range(1 << formula.n):
        s = frozenset(x for x in range(formula.n) if mask >> x & 1)
        if formula.is_one_in_three(s):
            out.append(s)
    return out


def connected_parts(n, sets):
    """The connected parts of the sets, by smallest vertex, each as
    (its vertices in increasing order, its sets over positions in that
    list).  Vertices in no set belong to no part."""
    incident = [[] for _ in range(n)]
    for si, s in enumerate(sets):
        for v in s:
            incident[v].append(si)
    reached = [False] * n
    taken = [False] * len(sets)
    for v in range(n):
        if reached[v] or not incident[v]:
            continue
        reached[v] = True
        vertices, part_sets = [v], []
        for u in vertices:  # grows while it is walked
            for si in incident[u]:
                if not taken[si]:
                    taken[si] = True
                    part_sets.append(sets[si])
                    for w in sets[si]:
                        if not reached[w]:
                            reached[w] = True
                            vertices.append(w)
        vertices.sort()
        position = {w: i for i, w in enumerate(vertices)}
        yield vertices, [[position[w] for w in s] for s in part_sets]


def exact_one_by_parts(n, sets, budget):
    """kernels.exact_one as one kernel call per connected part of the
    sets, each part relabelled onto its own vertices and searched under
    what is left of the budget."""
    if any(not s for s in sets):
        return 1, None, 0
    members, nodes = [], 0
    for vertices, part_sets in connected_parts(n, sets):
        k = len(vertices)
        status, assignment, used = kernels.solve_cf(
            k, part_sets, [[0]] * k, False, budget - nodes
        )
        nodes += used
        if status != 0:
            return status, None, nodes
        members += [vertices[i] for i, c in enumerate(assignment) if c == 0]
    return 0, sorted(members), nodes


def decide_choosable_unrestricted(inst, k, universe_size):
    """Choosability over all k-assignments drawn from {1..universe_size},
    with no symmetry pruning.  Cross-check for the canonical enumeration."""
    subsets = list(combinations(range(1, universe_size + 1), k))
    for entries in product(subsets, repeat=inst.hypergraph.n):
        lists = ListAssignment(list(entries))
        if solve_list_cf(inst, lists) is None:
            return ChoosabilityCertificate(answer=False, witness=lists)
    return ChoosabilityCertificate(answer=True)


def pairwise_hypergraph_stats(h):
    """hypergraph_stats' Gamma by intersecting every pair of edges."""
    edge_sets = [set(e) for e in h.edges]
    gamma = 0
    for i, ei in enumerate(edge_sets):
        hits = sum(1 for j, ej in enumerate(edge_sets) if j != i and ei & ej)
        gamma = max(gamma, hits)
    return gamma


def brute_force_max_star(g):
    """max_star by enumerating subsets of every neighborhood.  A subset of
    an independent set is independent, so each neighborhood's sizes are
    tried upward from the best so far until one has no independent
    subset."""
    best = 0
    for v in range(g.n):
        nbrs = g.adj[v]
        size = best + 1
        while size <= len(nbrs) and any(
            not any(has_edge(g, a, b) for a, b in combinations(s, 2))
            for s in combinations(nbrs, size)
        ):
            best = size
            size += 1
    return best


def full_rescan_near_uniform_color(h, lists, rng_seed, max_rounds):
    """near_uniform_color's resampling loop that rescans every edge after
    each round and compares Fractions.  Returns (colors by vertex,
    rounds); raises ResampleFailure at the round cap.  Input checks are
    left to the code under test."""
    rng = random.Random(rng_seed)
    color = [lists.sample(v, rng) for v in range(h.n)]

    def first_bad():
        for i, edge in enumerate(h.edges):
            colors = [color[v] for v in edge]
            non_unique = sum(1 for c in colors if colors.count(c) > 1)
            if non_unique >= Fraction(7, 8) * len(edge):
                return i
        return None

    rounds = 0
    bad = first_bad()
    while bad is not None:
        if rounds >= max_rounds:
            raise ResampleFailure(rounds, bad)
        for v in h.edges[bad]:
            color[v] = lists.sample(v, rng)
        rounds += 1
        bad = first_bad()
    return color, rounds


def canonical_assignments(n, k):
    """All k-assignments over {1..k*n} up to color renaming.

    Lists are built vertex by vertex; scanning lists in vertex order and
    each list ascending, a color larger than every color introduced so
    far may only appear as previous-max + 1.  Yields lists-of-tuples in
    lexicographic order, so the first failing assignment found is the
    canonically smallest.
    """

    def extend(prefix, max_used):
        if len(prefix) == n:
            yield list(prefix)
            return
        for subset in _canonical_k_subsets(k, max_used):
            prefix.append(subset)
            yield from extend(prefix, max(max_used, subset[-1]))
            prefix.pop()

    yield from extend([], 0)


def decide_choosable_reference(inst, k):
    """decide_choosable for k >= 2 without the pool: solve every canonical
    k-assignment from scratch, in order, and stop at the first failure."""
    for entries in canonical_assignments(inst.hypergraph.n, k):
        lists = ListAssignment(entries)
        if solve_list_cf(inst, lists) is None:
            return ChoosabilityCertificate(answer=False, witness=lists)
    return ChoosabilityCertificate(answer=True)


def first_uncovered_assignment(n, k, pool):
    """The first canonical k-assignment with no pool coloring inside its
    lists, or None.  Each vertex keeps, per color, the set of pool indices
    coloring it so, plus those leaving it uncolored; an assignment is
    covered when these sets, unioned over each list and intersected over
    the vertices, leave some index."""
    everyone = (1 << len(pool)) - 1
    uncolored = [everyone] * n
    by_color = [{} for _ in range(n)]
    for i, f in enumerate(pool):
        for v, c in f.items():
            uncolored[v] &= ~(1 << i)
            by_color[v][c] = by_color[v].get(c, 0) | 1 << i
    for entries in canonical_assignments(n, k):
        fitting = everyone
        for v, colors in enumerate(entries):
            allowed = uncolored[v]
            for c in colors:
                allowed |= by_color[v].get(c, 0)
            fitting &= allowed
        if not fitting:
            return entries
    return None
