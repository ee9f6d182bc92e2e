import random
from itertools import combinations

import pytest

from cfcolor import cli, fileio, kernels, solve
from cfcolor.coloring import ListAssignment
from cfcolor.errors import BudgetExceededError
from cfcolor.graphs import Graph, Hypergraph, derived_hypergraph, random_hypergraph
from cfcolor.reductions import FIGURE_FORMULA, Formula, build_g_double_prime
from cfcolor.smallgraphs import nonisomorphic_graphs
from cfcolor.verify import is_pids, is_pimds
from util import (
    all_one_in_three,
    all_pids,
    all_pimds,
    brute_force_cf,
    canonical_assignments,
    cf_valid,
    complete_graph,
    cycle_graph,
    decide_choosable_reference,
    decide_choosable_unrestricted,
    first_uncovered_assignment,
    path_graph,
    run_python,
    star_graph,
)


def test_solve_instance_variants():
    g = path_graph(3)
    inst = solve.SolveInstance.from_graph(g, "cn-star")
    assert not inst.require_total
    assert inst.hypergraph.edges == ((0, 1), (0, 1, 2), (1, 2))
    inst = solve.SolveInstance.from_graph(g, "on")
    assert inst.require_total
    with pytest.raises(ValueError):
        solve.SolveInstance.from_graph(g, "nope")


# frozen expected chromatic numbers, independently enumerated by full
# brute force over all (partial) colorings
CHROMATIC_TABLE = [
    # (graph, cn*, on*, cn, on)
    (path_graph(4), 1, 1, 2, 2),
    (path_graph(5), 1, 2, 2, 2),
    (cycle_graph(4), 2, 1, 2, 2),
    (cycle_graph(5), 2, 2, 2, 3),
    (complete_graph(4), 1, 2, 2, 2),
    (star_graph(3), 1, 1, 2, 2),
]


@pytest.mark.parametrize("g,cn_star,on_star,cn,on", CHROMATIC_TABLE)
def test_chromatic_numbers(g, cn_star, on_star, cn, on):
    expected = {"cn-star": cn_star, "on-star": on_star, "cn": cn, "on": on}
    for variant, want in expected.items():
        inst = solve.SolveInstance.from_graph(g, variant)
        k, f = solve.chromatic_number(inst)
        assert k == want
        assert cf_valid(inst.hypergraph, f, require_total=inst.require_total)


def test_solver_agrees_with_brute_force_on_small_graphs():
    for g in nonisomorphic_graphs(4):
        for variant in solve.VARIANTS:
            if variant.startswith("on") and (g.has_isolated_vertex() or g.n == 0):
                continue
            inst = solve.SolveInstance.from_graph(g, variant)
            for k in (1, 2):
                lists = ListAssignment.uniform(g.n, range(1, k + 1))
                mine = solve.solve_list_cf(inst, lists)
                ref = brute_force_cf(
                    inst.hypergraph, lists, require_total=inst.require_total
                )
                assert (mine is None) == (ref is None)


def test_solver_agrees_with_brute_force_on_random_hypergraphs():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(2, 7)
        h = random_hypergraph(n, rng.randint(1, 5), 1, min(3, n), rng)
        entries = [
            tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 2))))
            for _ in range(n)
        ]
        lists = ListAssignment(entries)
        for total in (False, True):
            inst = solve.SolveInstance(h, require_total=total)
            mine = solve.solve_list_cf(inst, lists)
            ref = brute_force_cf(h, lists, require_total=total)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert cf_valid(h, mine, require_total=total)
                assert all(lists.contains(v, c) for v, c in mine.items())


def test_budget_raises():
    g = cycle_graph(12)
    inst = solve.SolveInstance.from_graph(g, "cn")
    lists = ListAssignment.uniform(g.n, range(1, 4))
    with pytest.raises(BudgetExceededError):
        solve.solve_list_cf(inst, lists, budget=5)


def test_equal_lists_written_differently_search_symmetrically(monkeypatch):
    # (1, 2) and range(1, 3) are the same list: the search is as
    # color-symmetric as with {1, 2} everywhere and visits its 15 nodes
    # (30 when only identical entries counted as symmetric)
    g = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
    inst = solve.SolveInstance.from_graph(g, "cn")
    nodes = []
    search = kernels.solve_cf

    def counted(*args):
        found = search(*args)
        nodes.append(found[2])
        return found

    monkeypatch.setattr(kernels, "solve_cf", counted)
    mixed = ListAssignment([(1, 2) if v % 2 else range(1, 3) for v in range(5)])
    assert solve.solve_list_cf(inst, mixed) is None
    assert solve.solve_list_cf(inst, ListAssignment.uniform(5, (1, 2))) is None
    assert nodes == [15, 15]


# the first G(40, 78) that the benchmark's cfbench/inputs.colorable_graph
# draws from Random(2026); it has a CN* coloring from {1, 2}
G40_EDGES = (
    (0, 3), (0, 12), (0, 26), (2, 4), (2, 8), (2, 17), (2, 18), (2, 26),
    (2, 31), (2, 39), (3, 9), (3, 11), (3, 22), (3, 34), (5, 36), (6, 16),
    (6, 17), (6, 33), (7, 13), (7, 20), (8, 19), (8, 24), (9, 11), (9, 16),
    (9, 22), (10, 14), (10, 22), (10, 31), (10, 38), (11, 15), (11, 23),
    (12, 17), (12, 18), (12, 19), (13, 15), (13, 17), (13, 20), (13, 36),
    (14, 20), (14, 28), (14, 32), (15, 26), (15, 38), (16, 23), (16, 27),
    (16, 31), (16, 37), (16, 38), (17, 21), (17, 28), (18, 20), (18, 30),
    (18, 37), (18, 39), (19, 20), (19, 27), (19, 36), (19, 39), (20, 22),
    (20, 30), (20, 31), (21, 27), (21, 28), (22, 24), (22, 32), (23, 33),
    (24, 25), (24, 27), (26, 33), (26, 39), (28, 35), (29, 32), (29, 38),
    (30, 36), (31, 36), (33, 38), (34, 38), (34, 39),
)


def test_random_cn_star_graph_answers_uncolored_first():
    # a sparse coloring is the easy one to find: tried first, "uncolored"
    # answers within the benchmark's 50,000-node budget, where trying the
    # colors first trips it
    inst = solve.SolveInstance.from_graph(Graph(40, G40_EDGES), "cn-star")
    lists = ListAssignment.uniform(40, (1, 2))
    f = solve.solve_list_cf(inst, lists, budget=50_000)
    assert f is not None and cf_valid(inst.hypergraph, f, require_total=False)
    assert all(lists.contains(v, c) for v, c in f.items())
    with pytest.raises(BudgetExceededError):
        solve.solve_list_cf(inst, lists, budget=50_000, uncolored_first=False)


def test_canonical_assignment_counts_and_order():
    first = list(canonical_assignments(2, 2))
    assert first == [
        [(1, 2), (1, 2)],
        [(1, 2), (1, 3)],
        [(1, 2), (2, 3)],
        [(1, 2), (3, 4)],
    ]
    assert sum(1 for _ in canonical_assignments(3, 2)) == 29


def test_canonical_colors_stay_in_universe():
    for entries in canonical_assignments(3, 2):
        for lst in entries:
            assert all(1 <= c <= 6 for c in lst)


def test_canonical_k_subsets_are_the_filtered_combinations():
    for k in range(1, 6):
        for m in range(8):
            assert list(solve._canonical_k_subsets(k, m)) == [
                s
                for s in combinations(range(1, m + k + 1), k)
                if max(s[-1], m) == m + sum(c > m for c in s)
            ], (k, m)


_LARGE_K_STAR = """
from cfcolor import solve
from cfcolor.errors import BudgetExceededError
from cfcolor.graphs import Graph

star = Graph(32, [(1, v) for v in range(32) if v != 1])
inst = solve.SolveInstance.from_graph(star, "cn-star")
try:
    solve.decide_choosable(inst, 30, assignment_budget=1000)
except BudgetExceededError as e:
    print(e)
"""


def test_large_k_walks_answer_or_trip_their_budget(tmp_path):
    # every vertex of K2, C5 and P3 shares edges with fewer than k other
    # vertices, so a greedy coloring proves "yes" before any walk.  C5
    # walked before: at k = 10^10 it ran out of memory building a list of
    # k colors, and k = 10^20 raised OverflowError
    for g, k in ((complete_graph(2), 30), (cycle_graph(5), 40), (path_graph(3), 30)):
        cert = solve.decide_choosable(solve.SolveInstance.from_graph(g, "cn-star"), k)
        assert cert.answer and not cert.pool
    c5 = tmp_path / "c5.txt"
    c5.write_text(fileio.format_graph(cycle_graph(5)))
    for k in ("10000000000", "100000000000000000000"):
        assert cli.main(["choose", "--graph", str(c5), "--k", k]) == 0
    # the star's centre, vertex 1, shares edges with all 31 others.  The
    # centre has 2^30 or more canonical lists; listed up front, they kept
    # the walk from counting a leaf.  It skips a subtree for each list
    # holding the color a pool member gives the centre, and the budget
    # counts those too
    out = run_python(_LARGE_K_STAR, timeout=60).stdout.split("\n")
    assert out[0].startswith("choosability enumeration exceeded 1000 assignments")
    assert out[0].endswith("skipped 999 subtrees")


def test_choosability_known_values():
    inst = solve.SolveInstance.from_graph(cycle_graph(4), "cn-star")
    cert = solve.decide_choosable(inst, 1)
    assert not cert.answer
    assert cert.witness is not None
    assert solve.decide_choosable(inst, 2).answer
    assert solve.decide_choosable(
        solve.SolveInstance.from_graph(path_graph(3), "cn-star"), 1
    ).answer
    assert solve.decide_choosable(
        solve.SolveInstance.from_graph(star_graph(3), "on-star"), 1
    ).answer


def test_choosability_matches_unrestricted_enumeration():
    for g in nonisomorphic_graphs(3):
        for variant in ("cn-star", "cn"):
            inst = solve.SolveInstance.from_graph(g, variant)
            for k in (1, 2):
                fast = solve.decide_choosable(inst, k)
                slow = decide_choosable_unrestricted(inst, k, k * g.n)
                assert fast.answer == slow.answer


def _small_graph_instances():
    for n in range(1, 5):
        for g in nonisomorphic_graphs(n):
            for variant in solve.VARIANTS:
                if variant.startswith("on") and g.has_isolated_vertex():
                    continue
                yield solve.SolveInstance.from_graph(g, variant)


def _assert_pool_proves_yes(inst, k, cert):
    h = inst.hypergraph
    assert cert.pool
    assert all(cf_valid(h, f, require_total=inst.require_total) for f in cert.pool)
    assert first_uncovered_assignment(h.n, k, cert.pool) is None


def _every_vertex_shares_with_fewer_than(h, k):
    return all(
        len({u for e in h.edges if v in e for u in e} - {v}) < k
        for v in range(h.n)
    )


@pytest.mark.parametrize("k", [2, 3])
def test_choosability_matches_per_assignment_reference(k):
    """Same answer and witness as solving every canonical assignment in
    turn.  At k = 3 the reference is run only on a "no"; on a "yes" it is
    replaced by what it would find, that every canonical assignment has a
    valid pool coloring inside its lists (running the reference on every
    "yes" takes about 17 s on two cores).  Where every vertex shares edges
    with fewer than k others the pool is empty and the reference must
    say "yes"."""
    for inst in _small_graph_instances():
        cert = solve.decide_choosable(inst, k)
        if _every_vertex_shares_with_fewer_than(inst.hypergraph, k):
            # the greedy bound answers with no pool, and the reference says
            # "yes" too: at k - 1 when the bound holds there as well, which
            # is cheaper and enough, since k-choosable means k+1-choosable
            assert cert.answer and not cert.pool
            h = inst.hypergraph
            lower = k > 2 and _every_vertex_shares_with_fewer_than(h, k - 1)
            assert decide_choosable_reference(inst, k - 1 if lower else k).answer
            continue
        if k == 2 or not cert.answer:
            ref = decide_choosable_reference(inst, k)
            assert (cert.answer, cert.witness) == (ref.answer, ref.witness)
        if cert.answer:
            _assert_pool_proves_yes(inst, k, cert)


def test_choosability_no_has_the_reference_witness():
    triangle = Hypergraph(3, [(0, 1), (0, 2), (1, 2)])
    inst = solve.SolveInstance(triangle, require_total=True)
    cert = solve.decide_choosable(inst, 2)
    assert not cert.answer and not cert.pool
    assert cert.witness == ListAssignment([(1, 2), (1, 2), (1, 2)])
    assert cert.witness == decide_choosable_reference(inst, 2).witness


def test_choosability_pool_covers_c5(monkeypatch):
    solve_list_cf = solve.solve_list_cf
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_list_cf(*args, **kwargs)

    monkeypatch.setattr(solve, "solve_list_cf", counted)
    inst = solve.SolveInstance.from_graph(cycle_graph(5), "cn-star")
    cert = solve.decide_choosable(inst, 2)
    assert cert.answer
    # 4900 canonical assignments; the pool leaves 102 to the solver
    assert len(calls) <= 200
    assert len(cert.pool) == len(calls)
    _assert_pool_proves_yes(inst, 2, cert)


@pytest.mark.parametrize("n,solver_calls", [(5, 102), (6, 712)])
def test_choosability_walk_keeps_colors_first(monkeypatch, n, solver_calls):
    # the walk skips a subtree only below a pool member's last colored
    # vertex, so its solver tries colors first; uncolored first, these
    # counts (and C7's 6,156) grow
    solve_list_cf = solve.solve_list_cf
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("uncolored_first"))
        return solve_list_cf(*args, **kwargs)

    monkeypatch.setattr(solve, "solve_list_cf", counted)
    inst = solve.SolveInstance.from_graph(cycle_graph(n), "cn-star")
    assert solve.decide_choosable(inst, 2).answer
    assert calls == [False] * solver_calls


def test_find_pimds_matches_enumeration():
    for g in nonisomorphic_graphs(5):
        found = solve.find_pimds(g)
        everything = all_pimds(g)
        if everything:
            assert found in everything
        else:
            assert found is None


def test_find_pids_matches_enumeration():
    for g in nonisomorphic_graphs(5):
        found = solve.find_pids(g)
        everything = all_pids(g)
        if everything:
            assert found in everything
        else:
            assert found is None


def test_star_k13_has_a_pimds():
    # {center, leaf}: the center's unique neighbor in S is the leaf and
    # every leaf's unique neighbor in S is the center.  "Not a member" is
    # tried first, so the last leaf is the one taken
    found = solve.find_pimds(star_graph(3))
    assert found == frozenset({0, 3})
    assert is_pimds(star_graph(3), found)


def test_one_in_three_figure_formula():
    assert solve.solve_one_in_three(FIGURE_FORMULA) == frozenset({0, 3})


def test_one_in_three_matches_enumeration():
    rng = random.Random(7)
    import math

    for _ in range(60):
        n = rng.randint(3, 6)
        m = rng.randint(1, min(5, math.comb(n, 3)))
        clauses = set()
        while len(clauses) < m:
            clauses.add(tuple(sorted(rng.sample(range(n), 3))))
        formula = Formula(n, tuple(sorted(clauses)))
        mine = solve.solve_one_in_three(formula)
        everything = all_one_in_three(formula)
        if everything:
            assert mine in everything
        else:
            assert mine is None


def test_one_in_three_answers_formulas_over_30_variables():
    # x4..x31 lie in no clause and stay false
    formula = Formula(31, ((0, 1, 2),))
    result = solve.solve_one_in_three(formula)
    assert formula.is_one_in_three(result) and len(result) == 1
    # a planted solution over 60 variables: each clause has one true and
    # two false variables
    rng = random.Random(5)
    planted = set(rng.sample(range(60), 20))
    false = sorted(set(range(60)) - planted)
    clauses = {
        tuple(sorted([rng.choice(sorted(planted)), *rng.sample(false, 2)]))
        for _ in range(50)
    }
    formula = Formula(60, tuple(sorted(clauses)))
    assert formula.is_one_in_three(solve.solve_one_in_three(formula))
    # every triple of x1..x4 has no solution, whatever the other variables
    formula = Formula(40, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    assert solve.solve_one_in_three(formula) is None


def test_exact_one_matches_subset_enumeration():
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        # vertices in `free` lie in no set
        free = set(rng.sample(range(n), rng.randint(0, n - 1)))
        used = [v for v in range(n) if v not in free]
        sets = []
        for _ in range(rng.randint(1, 8)):
            pick = rng.random()
            if sets and pick < 0.2:
                sets.append(list(rng.choice(sets)))
            elif pick < 0.4:
                sets.append([rng.choice(used)])
            else:
                sets.append(sorted(rng.sample(used, rng.randint(1, len(used)))))
        exists = any(
            all(sum(mask >> v & 1 for v in s) == 1 for s in sets)
            for mask in range(1 << n)
        )
        status, members, nodes = kernels.exact_one(n, sets, 10**6)
        assert status == (0 if exists else 1)
        if exists:
            found += 1
            chosen = set(members)
            assert all(len(chosen.intersection(s)) == 1 for s in sets)
            assert chosen <= set().union(*sets)
        # the budget is shared by the parts and trips one node past it
        assert kernels.exact_one(n, sets, nodes) == (status, members, nodes)
        assert kernels.exact_one(n, sets, nodes - 1) == (2, None, nodes)
    assert 0 < found < 300


def test_exact_one_searches_each_part_on_its_own():
    # in G'' every variable outside the clauses is a K2 part of its own;
    # searched as one, a dead end among the clauses backtracked through
    # all of them and ran past the default budget from 25 variables on
    formula = Formula(26, ((1, 18, 21), (3, 9, 14), (10, 13, 22)))
    g = build_g_double_prime(formula).graph
    sets = [sorted(g.closed[v]) for v in range(g.n)]
    status, members, nodes = kernels.exact_one(g.n, sets, solve.DEFAULT_NODE_BUDGET)
    assert status == 0 and nodes < 1000
    assert is_pids(g, frozenset(members))


def test_search_stops_at_the_first_part_that_fails():
    # each of 12 disjoint K4s has a CN* coloring from {1} and the C4 after
    # them has none; searched without the split, the C4's dead end
    # backtracked through all 4^12 colorings of the K4s and ran past the
    # default budget
    edges = [
        (4 * i + a, 4 * i + b) for i in range(12) for a, b in combinations(range(4), 2)
    ]
    edges += [(48 + v, 48 + (v + 1) % 4) for v in range(4)]
    inst = solve.SolveInstance.from_graph(Graph(52, edges), "cn-star")
    assert solve.solve_list_cf(inst, ListAssignment.uniform(52, [1])) is None


_WRONG_EXACT_ONE = """
from cfcolor import kernels, solve
from cfcolor.reductions import FIGURE_FORMULA
from cfcolor.graphs import Graph

assert not __debug__, "run under python -O"
kernels.exact_one = lambda n, sets, budget: (0, [0], 1)
p3 = Graph(3, [(0, 1), (1, 2)])
calls = {
    "find_pimds": lambda: solve.find_pimds(p3),
    "find_pids": lambda: solve.find_pids(p3),
    "solve_one_in_three": lambda: solve.solve_one_in_three(FIGURE_FORMULA),
}
for name, call in calls.items():
    try:
        result = call()
    except AssertionError:
        print(name, "rejected")
    else:
        print(name, "returned", sorted(result))
"""


def test_exact_one_results_verified_under_optimize():
    # {0} is no PIMDS or PIDS of P3 and no 1-in-3 solution of the figure
    # formula; the checks must survive `python -O`, which strips asserts
    out = run_python(_WRONG_EXACT_ONE, "-O").stdout.split("\n")
    assert out[:3] == [
        "find_pimds rejected",
        "find_pids rejected",
        "solve_one_in_three rejected",
    ]


def test_symmetric_range_lists_are_not_materialized():
    import tracemalloc

    inst = solve.SolveInstance.from_graph(path_graph(5), "cn-star")
    lists = ListAssignment.uniform_range(5, 2_000_000)
    tracemalloc.start()
    try:
        f = solve.solve_list_cf(inst, lists)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f is not None
    assert peak < 1_000_000


def test_range_list_universe_is_checked_before_it_is_built():
    import tracemalloc

    # every list is cut to its first n colors: on P2 these are {0, 1} twice
    p2 = solve.SolveInstance.from_graph(path_graph(2), "cn-star")
    lists = ListAssignment([range(0, 3_000_000), range(0, 5)])
    assert solve.solve_list_cf(p2, lists) is not None
    # 1500 disjoint cut lists of 1500 colors span 2,250,000 colors
    n = 1500
    inst = solve.SolveInstance.from_graph(path_graph(n), "cn-star")
    lists = ListAssignment([range(n * v, n * v + 10**9) for v in range(n)])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="span 2250000 colors"):
            solve.solve_list_cf(inst, lists)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # overlaps count once, gaps not at all
    for step, span in ((1400, 1400 * (n - 1) + n), (2000, n * n)):
        entries = [range(step * v, step * v + 2 * n) for v in range(n)]
        with pytest.raises(BudgetExceededError, match=f"span {span} colors"):
            solve.solve_list_cf(inst, ListAssignment(entries))


def test_explicit_list_universe_is_capped():
    # 1500 disjoint explicit lists of 1500 colors hold 2,250,000 colors
    n = 1500
    inst = solve.SolveInstance.from_graph(path_graph(n), "cn-star")
    lists = ListAssignment([tuple(range(2 * n * v, 2 * n * v + n)) for v in range(n)])
    with pytest.raises(
        BudgetExceededError,
        match="^color universe of size 2250000 exceeds the dense-color cap$",
    ):
        solve.solve_list_cf(inst, lists)


def test_long_range_lists_are_cut_before_their_colors_are_listed():
    import tracemalloc

    # the union of these lists holds 1,000,001 colors, under the cap; only
    # the first 40 colors of each list are mapped to dense colors
    inst = solve.SolveInstance.from_graph(cycle_graph(40), "cn-star")
    lists = ListAssignment([range(v % 2, 1_000_000 + v % 2) for v in range(40)])
    tracemalloc.start()
    try:
        f = solve.solve_list_cf(inst, lists)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the coloring found before the lists were cut
    expected = {2 + 3 * i: i % 2 for i in range(13)}
    assert dict(f.items()) == {**expected, 39: 1}
