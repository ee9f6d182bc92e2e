import random

import pytest

from cfcolor.graphs import (
    Graph,
    Hypergraph,
    derived_hypergraph,
    extended_double_cover,
    greedy_color_classes,
    hypergraph_stats,
    line_graph,
    max_star,
    maximal_independent_set,
    random_graph,
)
from cfcolor.smallgraphs import nonisomorphic_graphs
from util import complete_graph, cycle_graph, has_edge, path_graph, star_graph


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_basics():
    g = cycle_graph(4)
    assert g.n == 4 and g.m == 4
    assert g.adj[0] == (1, 3)
    assert g.closed[0] == (0, 1, 3)
    assert g.max_degree() == 2
    assert not g.has_isolated_vertex()
    assert Graph(2).has_isolated_vertex()


def test_derived_hypergraph_edge_per_vertex_in_order():
    g = path_graph(3)
    open_h = derived_hypergraph(g, "open")
    assert open_h.edges == ((1,), (0, 2), (1,))
    closed_h = derived_hypergraph(g, "closed")
    assert closed_h.edges == ((0, 1), (0, 1, 2), (1, 2))


def test_derived_open_rejects_isolated():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="isolated"):
        derived_hypergraph(g, "open")


def _sample_graphs():
    """Graphs with no vertex, one vertex, isolated vertices, and random
    ones from empty to complete."""
    yield Graph(0)
    yield Graph(1)
    yield Graph(4, [(1, 2)])
    rng = random.Random(11)
    for _ in range(30):
        yield random_graph(rng.randint(1, 25), rng.choice([0.0, 0.1, 0.3, 1.0]), rng)


def test_closed_neighborhoods_insert_the_vertex_into_its_adjacency():
    for g in _sample_graphs():
        assert len(g.closed) == g.n
        for v in range(g.n):
            assert g.closed[v] == tuple(sorted(g.adj[v] + (v,)))


def test_derived_hypergraphs_equal_the_checked_construction():
    for g in _sample_graphs():
        closed = [g.adj[v] + (v,) for v in range(g.n)]
        assert derived_hypergraph(g, "closed") == Hypergraph(g.n, closed)
        if g.has_isolated_vertex():
            with pytest.raises(ValueError, match="isolated"):
                derived_hypergraph(g, "open")
        else:
            assert derived_hypergraph(g, "open") == Hypergraph(g.n, g.adj)


def test_hypergraph_rejects_a_repeated_vertex():
    # as parse_hypergraph does; merging the edge into (0, 1) hides the repeat
    with pytest.raises(ValueError, match=r"vertex 0 repeated in hyperedge \(0, 0, 1\)"):
        Hypergraph(3, [(0, 0, 1)])
    with pytest.raises(ValueError, match="vertex 2 repeated"):
        Hypergraph(4, [(0, 1), (2, 3, 2, 1)])


def test_hypergraph_stats():
    h = Hypergraph(5, [(0, 1, 2), (2, 3), (3, 4), (0, 4)])
    # (0, 1, 2) meets (2, 3) and (0, 4)
    assert hypergraph_stats(h) == 2
    assert hypergraph_stats(Hypergraph(3, [])) == 0


def test_max_star():
    assert max_star(star_graph(3)) == 3
    assert max_star(complete_graph(4)) == 1
    assert max_star(cycle_graph(5)) == 2
    assert max_star(Graph(2)) == 0
    # line graphs are claw-free
    for n in (4, 5):
        for g in nonisomorphic_graphs(n):
            lg, _ = line_graph(g)
            if lg.n:
                assert max_star(lg) <= 2


def test_max_star_has_no_recursion_limit():
    # one neighborhood of 1500 pairwise non-adjacent vertices
    assert max_star(Graph(1501, [(0, v) for v in range(1, 1501)])) == 1500


def test_maximal_independent_set_properties():
    for g in nonisomorphic_graphs(5):
        s = maximal_independent_set(g)
        assert all(not has_edge(g, u, v) for u in s for v in s if u < v)
        # maximality: every vertex outside has a neighbor inside
        assert all(v in s or any(w in s for w in g.adj[v]) for v in range(g.n))


def test_greedy_classes_partition_and_properness():
    for g in nonisomorphic_graphs(5):
        classes = greedy_color_classes(g, range(g.n))
        seen = set()
        for cls in classes:
            assert not (cls & seen)
            seen |= cls
            assert all(not has_edge(g, u, v) for u in cls for v in cls if u < v)
        assert seen == set(range(g.n))
        # every later-class vertex has a neighbor in each earlier class
        for i, cls in enumerate(classes):
            for v in cls:
                for j in range(i):
                    assert any(w in classes[j] for w in g.adj[v])


def test_extended_double_cover_shape():
    g = cycle_graph(4)
    d = extended_double_cover(g)
    assert d.n == 8
    assert d.m == 2 * g.m + g.n
    # bipartite: no edges within either part
    for u, v in d.edges:
        assert (u < 4) != (v < 4)
    # x_i ~ y_j iff i == j or ij in E
    for i in range(4):
        for j in range(4):
            expect = i == j or has_edge(g, i, j)
            assert has_edge(d, i, 4 + j) == expect


def test_line_graph_of_path_is_path():
    lg, base = line_graph(path_graph(4))
    assert lg.n == 3 and lg.m == 2
    assert base == [(0, 1), (1, 2), (2, 3)]


def test_random_graph_deterministic_under_seed():
    import random

    a = random_graph(12, 0.4, random.Random(5))
    b = random_graph(12, 0.4, random.Random(5))
    assert a == b
