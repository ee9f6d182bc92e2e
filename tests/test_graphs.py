import random

import pytest

from cfcolor import fileio, kernels, prob
from cfcolor.coloring import ListAssignment, PartialColoring
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
from cfcolor.verify import verify_cf
from util import (
    complete_graph,
    cycle_graph,
    first_fit_classes,
    has_edge,
    path_graph,
    star_graph,
)


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


def _benchmark_line_graph():
    """The line graph of G(60, 531), the randomized workload's size: 531
    vertices."""
    rng = random.Random(1)
    pairs = [(u, v) for u in range(60) for v in range(u + 1, 60)]
    return line_graph(Graph(60, rng.sample(pairs, 531)))[0]


def test_derived_incidence_is_the_graphs_rows():
    # derived_hypergraph presets the incidence to g.adj or g.closed; it
    # must be the one counted from the edges, in both modes, on graphs
    # with isolated vertices (which have no open neighborhood) and at the
    # benchmark's size, and verify_cf must report alike through either
    big = _benchmark_line_graph()
    assert big.n == 531
    cases = [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]
    cases += [Graph(3), Graph(4, [(0, 1)]), big]
    rng = random.Random(5)
    checked = {"open": 0, "closed": 0}
    for g in cases:
        for mode in ("open", "closed"):
            if mode == "open" and g.has_isolated_vertex():
                continue
            h = derived_hypergraph(g, mode)
            plain = Hypergraph(h.n, h.edges)
            assert h.incidence == plain.incidence
            f = PartialColoring({v: rng.randrange(3) for v in range(g.n) if rng.random() < 0.3})
            assert verify_cf(h, f) == verify_cf(plain, f)
            checked[mode] += 1
    assert checked["open"] > 30 and checked["closed"] == len(cases)


def _graph_files():
    """(n, edges, text) for the one-vertex graph, a graph with no edge,
    isolated vertices beside edges, and random graphs with their edges
    shuffled; every other edge has its ends swapped."""
    rng = random.Random(13)
    cases = [(1, []), (4, []), (6, [(0, 3), (3, 5)]), (7, [(6, 2), (1, 2), (5, 1)])]
    for _ in range(20):
        g = random_graph(rng.randint(2, 40), rng.choice([0.05, 0.2, 0.5, 1.0]), rng)
        cases.append((g.n, rng.sample(g.edges, len(g.edges))))
    for n, edges in cases:
        edges = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)]
        lines = [f"p graph {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
        yield n, edges, "\n".join(lines) + "\n"


def test_graphs_born_from_csr_equal_the_built_ones():
    # a graph read by the C reader holds only its csr; it builds `closed`
    # and max_degree() from that without building `adj`, and every view
    # of it must equal those of the record loop's graph and of the one
    # built edge by edge.  The C reader takes only files with an edge, so
    # a graph made from the built graph's arrays stands in for it on the
    # others, and on the pure-Python backend
    for n, edges, text in _graph_files():
        built = Graph(n, edges)
        readings = [
            fileio.parse_graph(text),
            fileio._parse_graph_records(text),
            built,
            Graph._from_csr(*Graph(n, edges).csr),
        ]
        assert "adj" not in vars(readings[3])
        if edges and kernels.read_graph is not None:
            assert "adj" not in vars(readings[0])
        born = [g for g in readings if "adj" not in vars(g)]
        views = [(g.closed, g.max_degree(), g.csr) for g in readings]
        assert all("adj" not in vars(g) for g in born)
        assert views == [views[2]] * 4
        for g in readings:
            assert (g.n, g.adj, g.edges) == (n, built.adj, built.edges)
        assert built.max_degree() == max(map(len, built.adj), default=0)


def test_a_pipeline_request_builds_no_adjacency_rows():
    # on a graph read from a file, max_star and pipeline_core read its
    # csr and verify_cf its closed rows, so the request builds no `adj`;
    # reading it then builds it, from csr, once.  With no C reader, a
    # graph made from the same arrays stands in for the parsed one
    big = _benchmark_line_graph()
    text = fileio.format_graph(big)
    g = fileio.parse_graph(text) if kernels.read_graph else Graph._from_csr(*big.csr)
    _, _, r = prob.pipeline_list_size(g, True)
    _, trace = prob.cfcn_pipeline(g, ListAssignment.uniform_range(g.n, r), 1, True)
    assert not trace.delegated
    assert "adj" not in vars(g)
    assert g.adj == big.adj and "adj" in vars(g)


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


def test_greedy_classes_match_first_fit_on_a_line_graph():
    # the benchmark's size: 531 vertices, colored in full and, as the
    # pipeline's core does, without a maximal independent set
    g, _ = line_graph(random_graph(60, 0.3, random.Random(1)))
    a_set = maximal_independent_set(g)
    for order in (range(g.n), [v for v in range(g.n) if v not in a_set]):
        assert greedy_color_classes(g, order) == first_fit_classes(g, order)


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
