"""Brute-force reference oracles for cross-checking the solvers.

Everything here enumerates the full search space with no pruning; keep
instances tiny.
"""

from __future__ import annotations

from itertools import combinations, product

from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.solve import ChoosabilityCertificate, solve_list_cf


def cf_valid(h, f, require_total=False):
    """Direct restatement of the CF condition, independent of verify_cf."""
    if require_total and len(f) != h.n:
        return False
    for e in h.edges:
        colors = [f[v] for v in e if v in f]
        if not any(colors.count(c) == 1 for c in set(colors)):
            return False
    return True


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
            sum(1 for w in g.closed_neighborhood(v) if w in s) == 1
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


def decide_choosable_unrestricted(inst, k, universe_size):
    """Choosability over all k-assignments drawn from {1..universe_size},
    with no symmetry pruning.  Cross-check for the canonical enumeration."""
    subsets = list(combinations(range(1, universe_size + 1), k))
    for entries in product(subsets, repeat=inst.hypergraph.n):
        lists = ListAssignment(list(entries))
        if solve_list_cf(inst, lists) is None:
            return ChoosabilityCertificate(answer=False, witness=lists)
    return ChoosabilityCertificate(answer=True)
