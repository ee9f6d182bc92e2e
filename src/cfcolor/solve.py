"""Exact desk-scale decision procedures and oracles.

Everything here is exhaustive search with explicit resource budgets:
exceeding a budget raises BudgetExceededError, never returns a wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from cfcolor import kernels
from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.errors import BudgetExceededError
from cfcolor.graphs import Hypergraph, derived_hypergraph
from cfcolor.verify import hits_each_once, verify_cf

DEFAULT_NODE_BUDGET = 20_000_000
DEFAULT_ASSIGNMENT_BUDGET = 5_000_000
MAX_DENSE_COLORS = 2_000_000

VARIANTS = ("on-star", "cn-star", "on", "cn")


@dataclass(frozen=True)
class SolveInstance:
    """A hypergraph to CF-color, plus the totality requirement."""

    hypergraph: Hypergraph
    require_total: bool = False

    @classmethod
    def from_graph(cls, g, variant):
        """Build the ON*/CN*/ON/CN instance for a graph.

        ON variants require no isolated vertices; star variants use
        partial-coloring semantics.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        mode = "open" if variant.startswith("on") else "closed"
        return cls(
            hypergraph=derived_hypergraph(g, mode),
            require_total=not variant.endswith("star"),
        )


def _dense_colors(lists, n_cap):
    """Map a ListAssignment onto dense kernel colors.

    Returns (dense_lists, colors_by_dense).  Every list is cut to its
    first n_cap colors: the other vertices use fewer colors than that, so
    a vertex colored outside its cut list can take a color of it that no
    other vertex uses, which keeps every edge's unique color.  Equal cut
    lists share one dense list, so identical lists are mapped once and
    the kernel sees that the search is color-symmetric.  The union of the
    cut range lists is measured before any color is listed.
    """
    entries = [lists.colors(v)[:n_cap] for v in range(lists.n)]
    distinct = dict.fromkeys(entries)
    covered = end = 0
    ranges = sorted((e.start, e.stop) for e in distinct if isinstance(e, range))
    for lo, hi in ranges:
        if hi > end:
            covered += hi - max(lo, end)
            end = hi
    if covered > MAX_DENSE_COLORS:
        raise BudgetExceededError(
            f"range lists span {covered} colors, over the dense-color cap"
        )
    universe = sorted({c for e in distinct for c in e})
    if len(universe) > MAX_DENSE_COLORS:
        raise BudgetExceededError(
            f"color universe of size {len(universe)} exceeds the dense-color cap"
        )
    dense_of = {c: i for i, c in enumerate(universe)}
    for e in distinct:
        distinct[e] = [dense_of[c] for c in e]
    return [distinct[e] for e in entries], universe


def _kernel_result(search, budget, found):
    """The result of a kernel's (status, result, nodes), None when the
    search is exhausted.  Raises BudgetExceededError, with the nodes
    explored, when the budget trips."""
    status, result, nodes = found
    if status == 2:
        raise BudgetExceededError(f"{search} exceeded {budget} nodes", nodes=nodes)
    return result


def solve_list_cf(inst, lists, budget=DEFAULT_NODE_BUDGET, uncolored_first=True):
    """Exhaustive backtracking search for an L-CF(*) coloring.

    Returns a coloring passing verify_cf, or None iff no such coloring
    exists.  Raises BudgetExceededError when the node budget trips and
    MemoryError when the kernel cannot allocate its arrays.  A
    star-variant search tries "uncolored" at each vertex before its list
    colors, unless `uncolored_first` is false; the order decides which
    coloring is found and how fast, never whether one exists.
    """
    h = inst.hypergraph
    if lists.n != h.n:
        raise ValueError("list assignment must cover every vertex")
    dense_lists, colors_by_dense = _dense_colors(lists, h.n)
    found = kernels.solve_cf(
        h.n, h.edges, dense_lists, inst.require_total, budget, uncolored_first
    )
    assignment = _kernel_result("solve_list_cf", budget, found)
    if assignment is None:
        return None
    f = PartialColoring(
        {v: colors_by_dense[c] for v, c in enumerate(assignment) if c >= 0}
    )
    report = verify_cf(h, f, lists=lists, require_total=inst.require_total)
    if not report.valid:  # pragma: no cover - kernel contract
        raise AssertionError("solver produced a coloring that fails verification")
    return f


def chromatic_number(inst, budget=DEFAULT_NODE_BUDGET):
    """Least k such that the constant assignment {1..k} admits a CF(*)
    coloring, together with a witness coloring."""
    for k in range(1, inst.hypergraph.n + 2):
        lists = ListAssignment.uniform(inst.hypergraph.n, range(1, k + 1))
        f = solve_list_cf(inst, lists, budget=budget)
        if f is not None:
            return k, f
    raise AssertionError("distinct colors always yield a CF coloring")


@dataclass(frozen=True)
class ChoosabilityCertificate:
    """Outcome of a choosability decision.

    On "no", `witness` is the canonically smallest k-assignment with no
    valid coloring (confirmed by solve_list_cf returning None).  On "yes",
    `pool` holds colorings that each passed verify_cf with the lists they
    were found for.  For k = 1 the pool is the coloring of the constant
    assignment, whose color class transfers to any singleton lists.  For
    k >= 2 the pool is empty when every vertex shares edges with fewer
    than k other vertices: colored greedily in any order, each vertex
    then has a color in its list that no vertex sharing an edge with it
    has, so the colors inside every edge are distinct and each is unique.
    Otherwise every canonical k-assignment has a pool member inside its
    lists, and since being conflict-free does not depend on the lists,
    list membership alone checks the answer.
    """

    answer: bool
    witness: ListAssignment | None = None
    pool: tuple = ()


def _few_sharers(h, k):
    """Does every vertex share edges with fewer than k other vertices?"""
    if any(len(e) > k for e in h.edges):
        return False
    # a vertex's set holds itself once it lies in an edge
    sharers = [set() for _ in range(h.n)]
    for e in h.edges:
        for v in e:
            sharers[v].update(e)
    return all(len(s) <= k for s in sharers)


def _canonical_k_subsets(k, max_used):
    """The lists a vertex may take after lists using colors up to
    max_used, up to color renaming: the sorted k-subsets of
    {1..max_used+k} whose colors above max_used are max_used+1,
    max_used+2, ... without a gap; lexicographic order, which walks the
    prefixes of old colors in post-order, at O(k) a subset."""
    m = max_used
    prefix, low = [], 1
    while True:
        while len(prefix) < k and low <= m:
            prefix.append(low)
            low += 1
        yield (*prefix, *range(m + 1, m + 1 + k - len(prefix)))
        if not prefix:
            return
        low = prefix.pop() + 1


def decide_choosable(
    inst,
    k,
    budget=DEFAULT_NODE_BUDGET,
    assignment_budget=DEFAULT_ASSIGNMENT_BUDGET,
):
    """Is the instance k-CF(*)-choosable?

    For k = 1 the constant singleton assignment is the hardest one (any
    monochromatic solution transfers to arbitrary singleton lists), so
    only it is checked.  For k >= 2 the answer is "yes" at once when
    every vertex shares edges with fewer than k others (see
    ChoosabilityCertificate); otherwise the canonical k-assignments (every
    k-assignment up to color renaming: vertex by vertex, a list from
    _canonical_k_subsets of the largest color used before it) are walked
    in lexicographic order, keeping a pool of the colorings found so
    far.  Whether a coloring is conflict-free does not depend on
    the lists, so a pool member whose colors lie in an assignment's lists
    colors it: solve_list_cf runs only at a leaf that no member fits, and
    a subtree is skipped when a member fitting its prefix colors no
    vertex below it.  The first leaf without a coloring is therefore
    still the canonically smallest failing assignment.  Each vertex keeps
    one pool map, from a color (None for uncolored) to the members giving
    it that color.  The assignment budget counts the leaves the walk
    reaches, covered or solved, and the subtrees it skips, one each: every
    descent reaches one of them within n steps, so the budget bounds the
    walk for any k.

    The solver tries colors before "uncolored": its colorings then tend
    to leave the last vertices uncolored, which is what lets the walk
    skip subtrees.  Uncolored first, C7 takes twice as long.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = inst.hypergraph.n
    if k == 1:
        lists = ListAssignment.uniform(n, [1])
        f = solve_list_cf(inst, lists, budget=budget, uncolored_first=False)
        if f is None:
            return ChoosabilityCertificate(answer=False, witness=lists)
        return ChoosabilityCertificate(answer=True, pool=(f,))
    if _few_sharers(inst.hypergraph, k):
        return ChoosabilityCertificate(answer=True)

    # Pool members as bits: col[v][c] color v with c, where c None leaves
    # v uncolored; tail_free[d] color no vertex >= d.  fit[d] holds the
    # members whose colors lie in the lists of the prefix entries[:d].
    pool = []
    col = [{None: 0} for _ in range(n)]
    tail_free = [0] * (n + 1)
    fit = [0] * (n + 1)
    # entries[d] is the list of vertex d, entry pos[d] - 1 of the table of
    # max_used[d], the largest color used before d: the lists listed so far
    # and the generator of the rest, where a listed None ends them
    entries = [None] * n
    pos = [0] * n
    max_used = [0] * n
    subsets_by_max = {0: ([], _canonical_k_subsets(k, 0))}
    leaves = skipped = calls = 0
    d = 0
    while d >= 0:
        # descend to the next list of vertex d, or back up after the last
        if d < n and not fit[d] & tail_free[d]:
            listed, rest = subsets_by_max[max_used[d]]
            if pos[d] == len(listed):
                listed.append(next(rest, None))
            subset = listed[pos[d]]
            if subset is None:
                d -= 1
                continue
            pos[d] += 1
            entries[d] = subset
            pools = col[d]
            mask = pools[None]
            for c in subset:
                mask |= pools.get(c, 0)
            fit[d + 1] = fit[d] & mask
            d += 1
            if d < n:
                m = max_used[d] = max(max_used[d - 1], subset[-1])
                if m not in subsets_by_max:
                    subsets_by_max[m] = ([], _canonical_k_subsets(k, m))
                pos[d] = 0
            continue
        # a leaf and a skipped subtree each settle at least one assignment
        if leaves + skipped >= assignment_budget:
            raise BudgetExceededError(
                f"choosability enumeration exceeded {assignment_budget} "
                f"assignments: reached {leaves} leaves, made {calls} "
                f"solver calls, pool of {len(pool)} colorings, skipped "
                f"{skipped} subtrees"
            )
        if d < n:  # a pool member covers the subtree
            skipped += 1
        else:
            leaves += 1
            if not fit[n]:
                lists = ListAssignment(entries)
                calls += 1
                f = solve_list_cf(
                    inst, lists, budget=budget, uncolored_first=False
                )
                if f is None:
                    return ChoosabilityCertificate(answer=False, witness=lists)
                bit = 1 << len(pool)
                pool.append(f)
                for v in range(n):
                    c = f.get(v)
                    col[v][c] = col[v].get(c, 0) | bit
                last = max(f.domain, default=-1)
                for j in range(last + 1, n + 1):
                    tail_free[j] |= bit
                # found for this leaf, so it fits every prefix on the path
                for j in range(n + 1):
                    fit[j] |= bit
        d -= 1
    return ChoosabilityCertificate(answer=True, pool=tuple(pool))


def _find_exact_one(sets, n, budget):
    """Some vertex subset meeting every one of `sets` exactly once, or
    None.  The kernel's answer is checked against the sets it searched,
    with a raise that survives ``python -O``."""
    found = kernels.exact_one(n, sets, budget)
    members = _kernel_result("exact-one search", budget, found)
    if members is None:
        return None
    if not hits_each_once(sets, members):
        raise AssertionError("exact-one answer does not meet every set once")
    return frozenset(members)


def find_pimds(g):
    """Some perfect induced matching dominating set of g, or None.

    A set S qualifies iff every vertex of g has exactly one neighbor in
    S, i.e. S hits every open neighborhood exactly once.
    """
    return _find_exact_one(g.adj, g.n, DEFAULT_NODE_BUDGET)


def find_pids(g):
    """Some perfect independent dominating set of g, or None.

    A set S qualifies iff S hits every closed neighborhood exactly once.
    """
    return _find_exact_one(g.closed, g.n, DEFAULT_NODE_BUDGET)


def solve_one_in_three(formula):
    """Truth assignment giving every clause exactly one true variable,
    or None.  The clauses are the sets of the exact-one search, so the
    node budget bounds it as it bounds PIMDS and PIDS.  The kernel
    decides the groups of clauses linked by shared variables one after
    the other, by smallest variable, each group's variables by decreasing
    clause count, ties by index, False first; the first group without a
    solution ends the search.  A variable in no clause stays False.
    """
    return _find_exact_one(formula.clauses, formula.n, DEFAULT_NODE_BUDGET)
