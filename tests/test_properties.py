import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcolor import fileio, prob, solve
from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.graphs import Graph, Hypergraph, hypergraph_stats, max_star
from cfcolor.verify import verify_cf
from util import (
    brute_force_cf,
    brute_force_max_star,
    canonical_assignments,
    cf_valid,
    full_rescan_near_uniform_color,
    pairwise_hypergraph_stats,
)


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def sparse_graphs(draw, max_n):
    """Graphs with an edge density drawn first, so that sparse
    neighborhoods with large independent sets occur too."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for e in pairs if rng.random() < p])


@st.composite
def hypergraphs(draw, max_n=6, max_m=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    edges = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=n,
                unique=True,
            )
        )
        for _ in range(m)
    ]
    return Hypergraph(n, edges)


@st.composite
def colorings(draw, n, max_color=4):
    mapping = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=1, max_value=max_color),
        )
    )
    return PartialColoring(mapping)


@given(hypergraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_verify_matches_direct_definition(h, data):
    f = data.draw(colorings(h.n))
    for total in (False, True):
        assert (
            verify_cf(h, f, require_total=total).valid
            == cf_valid(h, f, require_total=total)
        )


@given(hypergraphs(max_n=5, max_m=4), st.data())
@settings(max_examples=80, deadline=None)
def test_solver_agrees_with_enumeration(h, data):
    entries = [
        tuple(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(min_value=1, max_value=4),
                        min_size=1,
                        max_size=2,
                        unique=True,
                    )
                )
            )
        )
        for _ in range(h.n)
    ]
    lists = ListAssignment(entries)
    for total in (False, True):
        inst = solve.SolveInstance(h, require_total=total)
        mine = solve.solve_list_cf(inst, lists)
        ref = brute_force_cf(h, lists, require_total=total)
        assert (mine is None) == (ref is None)
        if mine is not None:
            assert cf_valid(h, mine, require_total=total)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_canonical_assignments_are_k_assignments(n, k):
    total = 0
    for entries in canonical_assignments(n, k):
        total += 1
        assert len(entries) == n
        for lst in entries:
            assert len(lst) == len(set(lst)) == k
            assert all(1 <= c <= k * n for c in lst)
        if total > 2000:
            break
    assert total >= 1


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_graph_format_round_trip(g):
    assert fileio.parse_graph(fileio.format_graph(g)) == g


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_pimds_search_is_sound_and_complete(g):
    from util import all_pimds

    found = solve.find_pimds(g)
    everything = all_pimds(g)
    assert (found is None) == (not everything)
    if found is not None:
        assert found in everything


@given(graphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_one_choosable_iff_one_colorable(g):
    for variant in ("cn-star", "cn"):
        inst = solve.SolveInstance.from_graph(g, variant)
        chooser = solve.decide_choosable(inst, 1).answer
        lists = ListAssignment.uniform(g.n, [1])
        colorable = solve.solve_list_cf(inst, lists) is not None
        assert chooser == colorable
        # spot-check against one random singleton assignment
        rng = random.Random(g.n * 31 + g.m)
        entries = [(rng.randint(1, 3),) for _ in range(g.n)]
        alt = solve.solve_list_cf(inst, ListAssignment(entries)) is not None
        if chooser:
            assert alt


@given(hypergraphs(max_n=12, max_m=12))
@settings(max_examples=150, deadline=None)
def test_hypergraph_stats_match_pairwise_reference(h):
    assert hypergraph_stats(h) == pairwise_hypergraph_stats(h)


@given(sparse_graphs(max_n=16))
@settings(max_examples=150, deadline=None)
def test_max_star_matches_brute_force(g):
    assert max_star(g) == brute_force_max_star(g)


@given(
    hypergraphs(max_n=14, max_m=10),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 2, 5, 40]),
    st.integers(min_value=0, max_value=2**32),
)
# seed 0 colors the 8-vertex edge with exactly 7 non-unique vertices, at
# the 7/8 boundary of the bad-edge test, which random draws rarely reach
@example(h=Hypergraph(8, [tuple(range(8))]), extra=0, cap=40, seed=0)
@settings(max_examples=150, deadline=None)
def test_near_uniform_color_matches_full_rescan(h, extra, cap, seed):
    """Same colors and rounds as the full-rescan loop, and at the round
    cap the same failure."""
    max_size = max(len(e) for e in h.edges)
    lists = ListAssignment.uniform_range(h.n, max_size + extra)
    settings = dict(list_factor=1, alpha_override=1, max_rounds=cap)
    try:
        want = full_rescan_near_uniform_color(h, lists, seed, cap)
    except prob.ResampleFailure as exc:
        with pytest.raises(prob.ResampleFailure) as got:
            prob.near_uniform_color(h, lists, seed, **settings)
        assert (got.value.rounds, got.value.worst_edge) == (exc.rounds, exc.worst_edge)
        return
    f, rounds = prob.near_uniform_color(h, lists, seed, **settings)
    assert ([f[v] for v in range(h.n)], rounds) == want


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.lists(st.integers(min_value=0, max_value=70), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_without_matches_the_comprehension(lo, size, removed):
    """The same tuple as filtering L_v color by color, on range and tuple
    entries, with removed colors inside and outside the list and
    repeated ones."""
    entries = [range(lo, lo + size), tuple(range(lo, lo + 2 * size, 2))]
    lists = ListAssignment(entries)
    for as_set in (set(removed), removed):
        for v, entry in enumerate(entries):
            want = tuple(c for c in entry if c not in as_set)
            assert lists.without(v, as_set) == want
