"""Independent answer checks for the benchmark.

Everything here restates the definitions directly and shares no code with
the measured package: a conflict-free (CF) coloring gives every hyperedge a
color that appears exactly once among its colored vertices; a PIMDS hits
every open neighborhood exactly once; a PIDS hits every closed neighborhood
exactly once; a 1-in-3 assignment makes exactly one variable of each clause
true.  Vertices are 0-indexed here; the file formats are 1-indexed.
"""

from __future__ import annotations

from collections import Counter
from itertools import product


class WrongAnswer(Exception):
    """The program's answer contradicts the definition or a cross-check."""


def neighborhoods(n, edges, variant):
    """Edges of the derived hypergraph for an ON*/CN*/ON/CN variant."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if variant.startswith("on"):
        return [sorted(adj[v]) for v in range(n)]
    return [sorted(adj[v] | {v}) for v in range(n)]


def is_total(variant):
    return not variant.endswith("star")


def cf_ok(hedges, color):
    """Every edge holds a color that exactly one of its colored vertices has."""
    for e in hedges:
        counts = Counter(color[v] for v in e if v in color)
        if 1 not in counts.values():
            return False
    return True


def unique_count(edge, color):
    counts = Counter(color[v] for v in edge)
    return sum(1 for v in edge if counts[color[v]] == 1)


def check_coloring(n, hedges, color, total, allowed=None):
    """Raise WrongAnswer unless `color` is a CF coloring within `allowed`."""
    for v, c in color.items():
        if not 0 <= v < n:
            raise WrongAnswer(f"colored vertex {v + 1} out of range")
        if allowed is not None and not allowed(v, c):
            raise WrongAnswer(f"vertex {v + 1} colored {c} outside its list")
    if total and len(color) != n:
        raise WrongAnswer("coloring is not total")
    if not cf_ok(hedges, color):
        raise WrongAnswer("some edge has no uniquely colored vertex")


def brute_force_colorable(hedges, lists, total):
    """Some CF coloring with vertex v colored from lists[v] exists (tiny n)."""
    options = [list(lst) if total else list(lst) + [None] for lst in lists]
    for combo in product(*options):
        color = {v: c for v, c in enumerate(combo) if c is not None}
        if cf_ok(hedges, color):
            return True
    return False


def exactly_once(sets, chosen):
    return all(sum(1 for v in s if v in chosen) == 1 for s in sets)


def check_pimds(n, edges, chosen):
    if not exactly_once(neighborhoods(n, edges, "on"), chosen):
        raise WrongAnswer("set is not a PIMDS")


def check_pids(n, edges, chosen):
    if not exactly_once(neighborhoods(n, edges, "cn"), chosen):
        raise WrongAnswer("set is not a PIDS")


def one_in_three(clauses, true_vars):
    return all(sum(1 for x in c if x in true_vars) == 1 for c in clauses)


def brute_force_one_in_three(nvars, clauses):
    for mask in range(1 << nvars):
        if one_in_three(clauses, {x for x in range(nvars) if mask >> x & 1}):
            return True
    return False


class Agreement:
    """Cross-check of yes/no answers that several methods give for one
    question (oracle, PIMDS and PIDS on the same formula).

    Callers record a "yes" only after its certificate passed, so a "yes"
    settles the question; a "no" stands until a certificate contradicts it.
    Every disagreement is a wrong answer.
    """

    def __init__(self, known=None):
        self.known = known

    def record(self, answer, method):
        if self.known is None:
            self.known = answer
        elif self.known != answer:
            self.known = self.known or answer
            word = "yes" if answer else "no"
            raise WrongAnswer(f"{method} says {word}, another method disagrees")


def parse_coloring_lines(text):
    """`v <vertex> <color>` lines of CLI output, as a 0-indexed dict."""
    color = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "v":
            v = int(parts[1]) - 1
            if v in color:
                raise WrongAnswer(f"vertex {v + 1} colored twice")
            color[v] = int(parts[2])
    return color
