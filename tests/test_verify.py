import pytest

from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.graphs import Hypergraph, derived_hypergraph
from cfcolor.reductions import FIGURE_FORMULA
from cfcolor.smallgraphs import nonisomorphic_graphs
from cfcolor.verify import EdgeWitness, is_pimds, is_pids, unique_colors, verify_cf
from util import cycle_graph, path_graph, star_graph


def test_valid_partial_coloring_with_witnesses():
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    f = PartialColoring({0: 5, 3: 5})
    report = verify_cf(h, f)
    assert report.valid
    # each edge has one colored vertex, its witness
    assert report.witnesses == (EdgeWitness(0, 0, 5), EdgeWitness(1, 3, 5))


def test_smallest_unique_color_is_the_witness():
    h = Hypergraph(3, [(0, 1, 2)])
    f = PartialColoring({0: 9, 1: 2, 2: 4})
    report = verify_cf(h, f)
    assert report.witnesses[0].color == 2
    assert report.witnesses[0].vertex == 1
    # colors that fall as vertex ids rise; an edge whose smallest color is
    # unique, and one whose smallest color repeats while a larger one is
    # unique
    h = Hypergraph(6, [(0, 1, 2, 3), (2, 3, 4, 5), (1, 3, 4)])
    f = PartialColoring({0: 9, 1: 6, 2: 4, 3: 1, 4: 1, 5: 0})
    assert verify_cf(h, f).witnesses == (
        EdgeWitness(0, 3, 1),
        EdgeWitness(1, 5, 0),
        EdgeWitness(2, 1, 6),
    )


def test_edge_with_no_unique_color_fails():
    h = Hypergraph(6, [(0, 1), (2, 3), (0, 1, 4, 5)])
    f = PartialColoring({0: 1, 1: 1, 2: 1, 3: 2, 4: 3, 5: 3})
    report = verify_cf(h, f)
    assert not report.valid
    # in edge 2 every color repeats
    assert report.edge_violations == (0, 2)
    assert report.witnesses == (EdgeWitness(1, 2, 1),)


def test_fully_uncolored_edge_fails():
    h = Hypergraph(3, [(0, 1), (1, 2)])
    f = PartialColoring({0: 1})
    report = verify_cf(h, f)
    assert not report.valid
    assert report.edge_violations == (1,)


def test_list_violations_reported():
    h = Hypergraph(2, [(0, 1)])
    f = PartialColoring({0: 7})
    lists = ListAssignment([(1, 2), (1, 2)])
    report = verify_cf(h, f, lists=lists)
    assert not report.valid
    assert report.list_violations == (0,)


def test_totality_enforced_when_requested():
    h = Hypergraph(3, [(0, 1), (1, 2)])
    f = PartialColoring({0: 1, 1: 2})
    assert verify_cf(h, f).valid
    report = verify_cf(h, f, require_total=True)
    assert not report.valid
    assert report.totality_violations == (2,)


def test_colored_vertices_outside_the_hypergraph_lie_in_no_edge():
    # counted through the incidence, a vertex outside [0, h.n) must count
    # in no edge, as in a scan of the edges, and must not index the
    # incidence: -1 would read the last vertex's edges of a derived
    # hypergraph
    h = Hypergraph(3, [(0, 1), (1, 2)])
    report = verify_cf(h, PartialColoring({0: 1, 3: 2, 7: 1}))
    assert report.witnesses == (EdgeWitness(0, 0, 1),)
    assert report.edge_violations == (1,)
    closed = derived_hypergraph(path_graph(3), "closed")
    report = verify_cf(closed, PartialColoring({-1: 5, 3: 5}))
    assert not report.valid and report.witnesses == ()
    assert report.edge_violations == (0, 1, 2)
    # outside vertices with the smallest color must not head an edge
    report = verify_cf(h, PartialColoring({-1: 0, 0: 1, 1: 3, 5: 0, 2: 3}))
    assert report.witnesses == (EdgeWitness(0, 0, 1),)
    assert report.edge_violations == (1,)


def test_colored_vertices_without_a_list_break_the_lists():
    # a vertex outside [0, lists.n) has no list that holds its color: -1
    # must not read the last vertex's list, and 2 must be reported, not
    # raise
    h = Hypergraph(2, [(0, 1)])
    lists = ListAssignment([(5,), (7,)])
    report = verify_cf(h, PartialColoring({0: 5, -1: 7}), lists=lists)
    assert not report.valid and report.list_violations == (-1,)
    report = verify_cf(h, PartialColoring({2: 7}), lists=lists)
    assert not report.valid and report.list_violations == (2,)


def test_report_lines_mention_each_violation():
    h = Hypergraph(2, [(0, 1)])
    f = PartialColoring({0: 1, 1: 1})
    lines = "\n".join(verify_cf(h, f).lines())
    assert "no" in lines
    assert "edge 0" in lines


def test_unique_colors_are_the_colors_seen_once():
    assert unique_colors([1, 1, 2, 3]) == {2, 3}
    assert unique_colors([2, 2]) == set()
    # uncolored vertices count for nothing, even when repeated
    assert unique_colors([None, None, 4]) == {4}


def test_is_pimds_on_star():
    g = star_graph(3)
    assert is_pimds(g, {0, 1})
    assert not is_pimds(g, {0})
    assert not is_pimds(g, {1, 2})
    assert not is_pimds(g, set())


def test_is_pids_on_path():
    g = path_graph(3)
    assert is_pids(g, {1})
    assert not is_pids(g, {0})
    assert not is_pids(g, {0, 2})


def test_c4_has_no_pids():
    g = cycle_graph(4)
    for mask in range(16):
        s = {v for v in range(4) if mask >> v & 1}
        assert not is_pids(g, s)


def test_pimds_matches_cf_definition():
    # PIMDS, PIDS and 1-in-3 solutions are exactly the sets that, colored
    # with one color, CF-color the open neighborhoods, the closed
    # neighborhoods and the clauses; every graph on up to 5 vertices and
    # every vertex subset
    def subsets(n):
        return [{v for v in range(n) if mask >> v & 1} for mask in range(1 << n)]

    def one_color_cf(h, s):
        return verify_cf(h, PartialColoring({v: 1 for v in s})).valid

    found = {"pimds": 0, "pids": 0}
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            # an isolated vertex has an empty open neighborhood: no PIMDS
            isolated = g.has_isolated_vertex()
            opened = None if isolated else derived_hypergraph(g, "open")
            closed = derived_hypergraph(g, "closed")
            for s in subsets(n):
                pimds = is_pimds(g, s)
                assert pimds == (not isolated and one_color_cf(opened, s))
                pids = is_pids(g, s)
                assert pids == one_color_cf(closed, s)
                found["pimds"] += pimds
                found["pids"] += pids
    assert found["pimds"] > 0 and found["pids"] > 0
    clauses = Hypergraph(5, FIGURE_FORMULA.clauses)
    solutions = []
    for s in subsets(5):
        one_in_three = FIGURE_FORMULA.is_one_in_three(s)
        assert one_in_three == one_color_cf(clauses, s)
        if one_in_three:
            solutions.append(s)
    assert solutions == [{0, 3}]
