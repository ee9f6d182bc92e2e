"""Certification of colorings and combinatorial certificates.

Every positive output produced elsewhere in the package is expected to
pass through this module.  All functions are pure; violations are
reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class EdgeWitness(NamedTuple):
    """Edge edge_index has its smallest unique color `color` on `vertex`;
    a tuple, the cheapest record to build once per edge."""

    edge_index: int
    vertex: int
    color: int


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    witnesses: tuple = ()
    edge_violations: tuple = ()  # indices of edges with no unique color
    list_violations: tuple = ()  # vertices colored outside their list
    totality_violations: tuple = ()  # uncolored vertices, when totality required

    def lines(self):
        out = [f"valid {'yes' if self.valid else 'no'}"]
        for w in self.witnesses:
            out.append(f"edge {w.edge_index} witness {w.vertex} color {w.color}")
        for i in self.edge_violations:
            out.append(f"edge {i} violation no-unique-color")
        for v in self.list_violations:
            out.append(f"vertex {v} violation color-not-in-list")
        for v in self.totality_violations:
            out.append(f"vertex {v} violation uncolored")
        return out


def unique_colors(colors):
    """The set of colors occurring exactly once in `colors`.

    An edge meets the conflict-free condition iff this set, taken over the
    colors of its vertices, is non-empty.  None entries (uncolored
    vertices) are skipped.
    """
    once = set()
    repeated = set()
    for c in colors:
        if c in once:
            repeated.add(c)
        else:
            once.add(c)
    once -= repeated
    once.discard(None)
    return once


def verify_cf(h, f, lists=None, require_total=False):
    """Check that f is a conflict-free partial coloring of h.

    Valid iff every hyperedge has a colored vertex whose color appears
    exactly once among the colored vertices of that edge, every colored
    vertex respects its list (when lists are given), and every vertex is
    colored (when require_total).  Uncolored vertices are ignored by the
    uniqueness count.  When several unique colors exist in an edge the
    reported witness carries the smallest one.

    Only the colored vertices count, so they are counted through
    h.incidence: each puts itself into the edges containing it, and the
    work is their degrees plus one step per edge, not the sum of the edge
    sizes.  A colored vertex outside [0, h.n) lies in no edge.  The
    vertices are put in by ascending color (a stable sort), so each edge
    lists its colored vertices color-sorted, and the head's color is the
    smallest.  It is unique when the head is the edge's only colored
    vertex or the next vertex has another color: then the head is the
    witness, at no further cost.  Only the other edges count their colors
    with `unique_colors`.
    """
    fmap = dict(f.items())
    incidence = h.incidence
    colored = [[] for _ in range(h.m)]
    for v in sorted(fmap, key=fmap.__getitem__):
        if 0 <= v < h.n:
            for i in incidence[v]:
                colored[i].append(v)
    witnesses = []
    edge_violations = []
    for i, vertices in enumerate(colored):
        if vertices:
            head = fmap[vertices[0]]
            if len(vertices) == 1 or fmap[vertices[1]] != head:
                witnesses.append(EdgeWitness(i, vertices[0], head))
                continue
        colors = [fmap[v] for v in vertices]
        unique = unique_colors(colors)
        if unique:
            c = min(unique)
            witnesses.append(EdgeWitness(i, vertices[colors.index(c)], c))
        else:
            edge_violations.append(i)

    list_violations = []
    if lists is not None:
        for v, c in f.items():
            if not (0 <= v < lists.n and lists.contains(v, c)):
                list_violations.append(v)

    totality_violations = []
    if require_total:
        totality_violations = [v for v in range(h.n) if v not in f]

    valid = not (edge_violations or list_violations or totality_violations)
    return VerificationReport(
        valid=valid,
        witnesses=tuple(witnesses),
        edge_violations=tuple(edge_violations),
        list_violations=tuple(sorted(list_violations)),
        totality_violations=tuple(sorted(totality_violations)),
    )


def hits_each_once(sets, members):
    """Does `members` meet every one of `sets` in exactly one element?

    This is the conflict-free condition with a single color: a set has a
    unique color iff exactly one of its vertices is colored.  PIMDS, PIDS
    and 1-in-3 solutions are the sets meeting a family this way.
    """
    members = set(members)
    return all(sum(1 for x in s if x in members) == 1 for s in sets)


def is_pimds(g, s):
    """Perfect induced matching dominating set: the subgraph induced by s
    is a perfect matching of s and every vertex of g has exactly one
    neighbor in s.  Both conditions collapse to s meeting every open
    neighborhood exactly once.
    """
    return hits_each_once(g.adj, s)


def is_pids(g, s):
    """Perfect independent dominating set: s is independent and every
    vertex outside s has exactly one neighbor in s, i.e. s meets every
    closed neighborhood exactly once."""
    return hits_each_once(g.closed, s)
