import math
import random

import pytest

from cfcolor import reductions, solve
from cfcolor.coloring import ListAssignment
from cfcolor.graphs import derived_hypergraph, extended_double_cover
from cfcolor.reductions import FIGURE_FORMULA, Formula
from cfcolor.verify import verify_cf
from util import all_pids, all_pimds, complete_graph, cycle_graph, has_edge, path_graph


def random_formula(rng, n_hi=6, m_hi=5):
    n = rng.randint(3, n_hi)
    m = rng.randint(1, min(m_hi, math.comb(n, 3)))
    clauses = set()
    while len(clauses) < m:
        clauses.add(tuple(sorted(rng.sample(range(n), 3))))
    return Formula(n, tuple(sorted(clauses)))


def test_formula_validation():
    with pytest.raises(ValueError):
        Formula(3, ((0, 1, 1),))
    with pytest.raises(ValueError):
        Formula(3, ((0, 1, 3),))
    f = Formula(4, ((2, 0, 1),))
    assert f.clauses == ((0, 1, 2),)
    assert f.is_one_in_three({0})
    assert not f.is_one_in_three({0, 1})


def test_figure_formula_solution():
    assert FIGURE_FORMULA.is_one_in_three({0, 3})
    assert not FIGURE_FORMULA.is_one_in_three({0})


def test_associated_graph_shape():
    out = reductions.build_associated_graph(FIGURE_FORMULA)
    assert out.graph.n == FIGURE_FORMULA.n + FIGURE_FORMULA.m == 9
    assert out.graph.m == 3 * FIGURE_FORMULA.m == 12
    # bipartite between variables and clauses
    for u, v in out.graph.edges:
        assert (out.roles[u][0] == "variable") != (out.roles[v][0] == "variable")


def test_g_prime_shape():
    out = reductions.build_g_prime(FIGURE_FORMULA)
    n, m = FIGURE_FORMULA.n, FIGURE_FORMULA.m
    assert out.graph.n == m + 3 * n == 19
    assert out.graph.m == 3 * m + 2 * n == 22
    # each variable vertex ends an induced 2-path: x - mid - far
    for i in range(n):
        mid = out.vertex_with_role(("gadget-mid", i))
        far = out.vertex_with_role(("gadget-far", i))
        assert has_edge(out.graph, i, mid)
        assert has_edge(out.graph, mid, far)
        assert not has_edge(out.graph, i, far)
        assert len(out.graph.adj[far]) == 1
        assert len(out.graph.adj[mid]) == 2


def test_g_double_prime_shape():
    out = reductions.build_g_double_prime(FIGURE_FORMULA)
    n, m = FIGURE_FORMULA.n, FIGURE_FORMULA.m
    assert out.graph.n == m + 2 * n == 14
    assert out.graph.m == 3 * m + n == 17
    for i in range(n):
        pend = out.vertex_with_role(("pendant", i))
        assert out.graph.adj[pend] == (i,)


@pytest.mark.parametrize(
    "g", [complete_graph(1), complete_graph(2), cycle_graph(4), path_graph(4)]
)
def test_h_gadget_shape(g):
    out = reductions.build_h_gadget(g)
    assert out.graph.n == 12 * g.n + 4
    assert out.graph.m == 12 * g.m + 24 * g.n
    hubs = [out.vertex_with_role(("hub", ell)) for ell in range(1, 5)]
    # hubs are pairwise non-adjacent
    for a in range(4):
        for b in range(a + 1, 4):
            assert not has_edge(out.graph, hubs[a], hubs[b])
    # each hub sees exactly the 6 copies carrying its index
    for ell in range(1, 5):
        seen = {
            out.roles[w][:4]
            for w in out.graph.adj[hubs[ell - 1]]
        }
        assert all(ell in (i, j) for (_, i, j, z) in seen)
        assert len(seen) == 6


def test_reduction_equivalence_on_random_formulas():
    rng = random.Random(11)
    for _ in range(40):
        formula = random_formula(rng)
        sat = solve.solve_one_in_three(formula) is not None
        gp = reductions.build_g_prime(formula).graph
        gpp = reductions.build_g_double_prime(formula).graph
        assert (solve.find_pimds(gp) is not None) == sat
        assert (solve.find_pids(gpp) is not None) == sat


def test_certificate_round_trip():
    rng = random.Random(13)
    done = 0
    while done < 15:
        formula = random_formula(rng)
        sat = solve.solve_one_in_three(formula)
        if sat is None:
            continue
        done += 1
        for variant in ("on", "cn"):
            cert = reductions.truth_to_certificate(formula, sat, variant)
            assert reductions.certificate_to_truth(formula, cert, variant) == sat


def test_figure_certificates_match_worked_example():
    sat = frozenset({0, 3})
    cert = reductions.truth_to_certificate(FIGURE_FORMULA, sat, "cn")
    out = reductions.build_g_double_prime(FIGURE_FORMULA)
    pendants = {out.vertex_with_role(("pendant", i)) for i in (1, 2, 4)}
    assert cert == frozenset({0, 3} | pendants)


def test_certificate_to_truth_rejects_junk():
    with pytest.raises(ValueError):
        reductions.certificate_to_truth(FIGURE_FORMULA, {0}, "cn")


def _inner(gg, lists):
    inst = solve.SolveInstance.from_graph(gg, "cn-star")
    return solve.solve_list_cf(inst, lists)


def test_hg_strategy_produces_valid_colorings():
    g = complete_graph(3)
    out = reductions.build_h_gadget(g)
    rng = random.Random(3)
    distinct_hub_runs = 0
    for _ in range(40):
        entries = [
            tuple(sorted(rng.sample(range(1, 11), 2))) for _ in range(out.graph.n)
        ]
        lists = ListAssignment(entries)
        f = reductions.hg_strategy(g, lists, _inner)
        report = verify_cf(derived_hypergraph(out.graph, "closed"), f, lists=lists)
        assert report.valid
        if len(f) == 4:
            distinct_hub_runs += 1
    assert distinct_hub_runs > 0


def test_hg_strategy_rejects_non_2_assignment():
    g = complete_graph(3)
    out = reductions.build_h_gadget(g)
    lists = ListAssignment.uniform(out.graph.n, [1, 2, 3])
    with pytest.raises(ValueError):
        reductions.hg_strategy(g, lists, _inner)


def test_edc_equivalence_pids_vs_pimds():
    # CN certificate on g exists iff ON certificate on its double cover does
    from cfcolor.smallgraphs import nonisomorphic_graphs

    for g in nonisomorphic_graphs(5, connected_only=True):
        d = extended_double_cover(g)
        assert bool(all_pids(g)) == bool(all_pimds(d))


def test_edc_transfer_both_directions():
    g = cycle_graph(5)
    inst = solve.SolveInstance.from_graph(g, "cn-star")
    lists = ListAssignment.uniform(g.n, [1, 2])
    fx = solve.solve_list_cf(inst, lists)
    fy = solve.solve_list_cf(inst, ListAssignment.uniform(g.n, [3, 4]))
    f = reductions.edc_transfer("cn-to-on", g, (fx, fy))
    d = extended_double_cover(g)
    assert verify_cf(derived_hypergraph(d, "open"), f).valid
    back = reductions.edc_transfer("on-to-cn", g, f)
    assert verify_cf(derived_hypergraph(g, "closed"), back).valid
    assert dict(back.items()) == dict(fx.items())


def test_edc_transfer_rejects_invalid_input():
    from cfcolor.coloring import PartialColoring

    g = cycle_graph(5)
    bad = PartialColoring({})
    with pytest.raises(ValueError):
        reductions.edc_transfer("cn-to-on", g, (bad, bad))
