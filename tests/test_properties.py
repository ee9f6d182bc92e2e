import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcolor import fileio, prob, solve
from cfcolor.coloring import ListAssignment, PartialColoring, ReducedRange
from cfcolor.graphs import (
    Graph,
    Hypergraph,
    greedy_color_classes,
    hypergraph_stats,
    max_star,
)
from cfcolor.verify import verify_cf
from util import (
    brute_force_cf,
    brute_force_max_star,
    canonical_assignments,
    cf_report,
    cf_valid,
    first_fit_classes,
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


@given(hypergraphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_report_matches_direct_definition(h, data):
    """Every field of verify_cf's report, on edges that may repeat, partial
    colorings, and with and without lists."""
    repeats = data.draw(st.lists(st.sampled_from(h.edges), max_size=3))
    h = Hypergraph(h.n, list(h.edges) + repeats)
    f = data.draw(colorings(h.n))
    lists = data.draw(
        st.none()
        | st.lists(
            st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
            min_size=h.n,
            max_size=h.n,
        ).map(ListAssignment)
    )
    for total in (False, True):
        report = verify_cf(h, f, lists=lists, require_total=total)
        witnesses, edges, listed, uncolored = cf_report(h, f, lists, total)
        got = tuple((w.edge_index, w.vertex, w.color) for w in report.witnesses)
        assert got == witnesses
        assert report.edge_violations == edges
        assert report.list_violations == listed
        assert report.totality_violations == uncolored
        assert report.valid == (not (edges or listed or uncolored))


@given(sparse_graphs(max_n=16), st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_classes_match_first_fit(g, data):
    """The same classes as the set-based first fit, on orders that leave
    vertices out, as the pipeline's core leaves out its independent set."""
    order = data.draw(st.permutations(range(g.n)))
    order = order[: data.draw(st.integers(min_value=0, max_value=g.n))]
    assert greedy_color_classes(g, order) == first_fit_classes(g, order)


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


@given(
    st.lists(
        st.one_of(
            st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8),
            st.tuples(st.integers(0, 5), st.integers(1, 5)).map(lambda t: range(t[0], sum(t))),
        ),
        min_size=1,
        max_size=6,
    )
)
@example([[3, 1, 3, 2], [5], [0, 0], range(2, 4)])
@settings(max_examples=150, deadline=None)
def test_parsed_lists_are_normalized(rows):
    # `l` records in any order and with repeats read as ListAssignment
    # normalizes them: ascending, every color once
    text = "".join(
        f"L {v + 1} {row.start} {row.stop}\n" if isinstance(row, range)
        else f"l {v + 1} " + " ".join(map(str, row)) + "\n"
        for v, row in enumerate(rows)
    )
    lists = fileio.parse_lists(text, len(rows))
    assert lists == ListAssignment(rows)
    for v, row in enumerate(rows):
        assert lists.colors(v) == (row if isinstance(row, range) else tuple(sorted(set(row))))


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
    """The same colors as filtering L_v color by color, on range and
    tuple entries, with removed colors inside and outside the list and
    repeated ones; a range entry gives a ReducedRange, whose tuple is
    compared."""
    entries = [range(lo, lo + size), tuple(range(lo, lo + 2 * size, 2))]
    lists = ListAssignment(entries)
    for as_set in (set(removed), removed):
        for v, entry in enumerate(entries):
            want = tuple(c for c in entry if c not in as_set)
            assert tuple(lists.without(v, as_set)) == want


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=40),
    st.lists(st.integers(min_value=0, max_value=80), max_size=12),
    st.lists(st.integers(min_value=0, max_value=80), max_size=4),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200, deadline=None)
def test_reduced_range_acts_like_its_tuple(lo, size, removed, again, seed):
    """A reduced range list indexes, slices, measures, tests membership,
    iterates and samples like the tuple of the colors it keeps, and
    equals every reduced list of the same colors; reduced again, it
    gives that tuple."""
    span = range(lo, lo + size)
    lists = ListAssignment([span])
    for strike in (set(removed), set(removed) | set(again)):
        reduced = lists.without(0, strike)
        want = tuple(c for c in span if c not in strike)
        assert isinstance(reduced, ReducedRange)
        assert len(reduced) == len(want) and bool(reduced) == bool(want)
        assert tuple(reduced) == want
        assert [reduced[i] for i in range(-len(want), len(want))] == list(want + want)
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                reduced[i]
        for cut in (slice(None), slice(1, -1), slice(None, None, 3), slice(5, 1, -1)):
            assert reduced[cut] == want[cut]
        for c in range(lo - 2, lo + size + 2):
            assert (c in reduced) == (c in want)
        # equal colors, other removed ones: the whole span minus its gaps
        if want:
            hull = range(want[0], want[-1] + 1)
            other = ListAssignment([hull]).without(0, set(hull) - set(want))
            assert other == reduced and hash(other) == hash(reduced)
        if not want:
            continue
        explicit, kept = ListAssignment([want]), ListAssignment._from_sorted([reduced])
        assert kept.size(0) == explicit.size(0)
        assert kept.colors(0) is reduced
        assert all(kept.contains(0, c) == explicit.contains(0, c) for c in span)
        rng_kept, rng_explicit = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert kept.sample(0, rng_kept) == explicit.sample(0, rng_explicit)
    twice = ListAssignment._from_sorted([lists.without(0, set(removed))]).without(0, set(again))
    assert twice == tuple(lists.without(0, set(removed) | set(again)))
