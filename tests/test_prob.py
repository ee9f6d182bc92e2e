import math
import random
from types import SimpleNamespace

import pytest

from cfcolor import prob
from cfcolor.coloring import ListAssignment
from cfcolor.graphs import (
    derived_hypergraph,
    line_graph,
    random_graph,
    random_hypergraph,
)
from cfcolor.verify import unique_colors, verify_cf
from util import (
    cf_valid,
    cycle_graph,
    full_rescan_near_uniform_color,
    has_edge,
    path_graph,
    star_graph,
)


def test_lemma_config_validation():
    # each setting is checked where it is used, before any other check
    h = random_hypergraph(20, 5, 2, 4, random.Random(0))
    lists = ListAssignment.uniform_range(h.n, 1)
    for setting, message in (
        ({"list_factor": 0}, "list_factor must be >= 1"),
        ({"max_rounds": 0}, "max_rounds must be >= 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            prob.near_uniform_color(h, lists, 0, **setting)
    g = cycle_graph(5)
    with pytest.raises(ValueError, match="^retry_limit must be >= 1$"):
        prob.cfcn_pipeline(g, ListAssignment.uniform_range(g.n, 1), 0, retry_limit=0)


def test_required_alpha_full_scale_values():
    # floor dominates for small intersection bounds
    assert prob.required_alpha(1) == 2**12
    assert prob.required_alpha(0) == 2**12
    # the log term takes over once 136 ln(16*Gamma) > 4096
    big = math.ceil(math.exp(4096 / 136) / 16) + 1
    assert prob.required_alpha(big) == math.ceil(136 * math.log(16 * big))


def test_gamma_is_counted_only_when_alpha_is_not_given(monkeypatch):
    counted = []
    stats = prob.hypergraph_stats
    monkeypatch.setattr(prob, "hypergraph_stats", lambda h: counted.append(h) or stats(h))
    h = random_hypergraph(40, 10, 2, 4, random.Random(3))
    lists = ListAssignment.uniform_range(h.n, 32 * 4)
    # an override is the minimum edge size as given, whatever Gamma is
    with pytest.raises(ValueError, match="below required alpha 7"):
        prob.near_uniform_color(h, lists, 0, alpha_override=7)
    assert counted == []
    with pytest.raises(ValueError, match="below required alpha 4096"):
        prob.near_uniform_color(h, lists, 0)
    assert counted == [h]
    # the pipeline counts H2's Gamma once, in _core, however many seeds
    # the resampling tries
    for i, g in enumerate(claw_free_corpus(5, 12, seed=22)):
        counted.clear()
        lists = pipeline_lists(g, True)
        _, trace = prob.cfcn_pipeline(g, lists, 200 + i, True, retry_limit=20)
        assert len(counted) == (1 if trace.part_c else 0)


def test_pipeline_list_size_values():
    from cfcolor.graphs import Graph
    sizes = prob.pipeline_list_size

    # C5: max_star 2, Delta 2; r = ceil(2^18 k ln 2) or ceil(32 k ln 2)
    c5 = cycle_graph(5)
    assert sizes(c5, False, None) == (3, 2, 545114)
    assert sizes(c5, True, None) == (3, 2, 67)
    # an override is taken as given, but never below 2; 0 is not "unset"
    for k_override in (0, 1):
        assert sizes(c5, False, k_override) == (2, 2, 363409)
        assert sizes(c5, True, k_override) == (2, 2, 45)
    assert sizes(c5, False, 3) == (3, 2, 545114)
    assert sizes(c5, True, 3) == (3, 2, 67)
    # K_{1,4}: max_star 4, Delta 4
    assert sizes(star_graph(4), False, None) == (5, 4, 1817044)
    assert sizes(star_graph(4), True, None) == (5, 4, 222)
    assert sizes(star_graph(4), True, 3) == (3, 4, 134)
    # no edge: Delta < 2 needs no list size at all
    edgeless = Graph(3)
    for scaled_mode in (False, True):
        assert sizes(edgeless, scaled_mode, None) == (2, 0, 0)
        assert sizes(edgeless, scaled_mode, 3) == (3, 0, 0)


def test_lemma_lists_sizes():
    from cfcolor.graphs import Hypergraph

    h = random_hypergraph(20, 5, 3, 7, random.Random(0))
    top = max(len(e) for e in h.edges)
    lists = prob.lemma_lists(h, 32)
    assert lists.n == 20 and all(lists.colors(v) == range(32 * top) for v in range(20))
    # an edgeless hypergraph still gets list_factor colors per vertex
    assert prob.lemma_lists(Hypergraph(3, []), 5).colors(2) == range(5)


def test_near_uniform_color_succeeds_and_is_deterministic():
    rng = random.Random(1)
    h = random_hypergraph(64, 30, 16, 24, rng)
    max_size = max(len(e) for e in h.edges)
    lists = ListAssignment.uniform_range(h.n, 32 * max_size)
    settings = dict(alpha_override=16, max_rounds=100)
    f1, rounds1 = prob.near_uniform_color(h, lists, 5, **settings)
    f2, rounds2 = prob.near_uniform_color(h, lists, 5, **settings)
    assert dict(f1.items()) == dict(f2.items())
    assert rounds1 == rounds2
    assert set(f1.domain) == set(range(h.n))
    for e in h.edges:
        unique = len(unique_colors([f1[v] for v in e]))
        assert unique >= math.ceil(len(e) / 8)


def test_near_uniform_color_matches_full_rescan_at_scale():
    h = random_hypergraph(400, 300, 8, 12, random.Random(1))
    lists = ListAssignment.uniform_range(h.n, 12)
    for seed in range(3):
        for cap in (1, 5, 1000):
            settings = dict(list_factor=1, alpha_override=8, max_rounds=cap)
            try:
                want = full_rescan_near_uniform_color(h, lists, seed, cap)
            except prob.ResampleFailure as exc:
                with pytest.raises(prob.ResampleFailure) as got:
                    prob.near_uniform_color(h, lists, seed, **settings)
                assert (got.value.rounds, got.value.worst_edge) == (
                    exc.rounds,
                    exc.worst_edge,
                )
                continue
            f, rounds = prob.near_uniform_color(h, lists, seed, **settings)
            assert ([f[v] for v in range(h.n)], rounds) == want


def test_near_uniform_color_rejects_small_lists():
    rng = random.Random(2)
    h = random_hypergraph(40, 10, 16, 20, rng)
    lists = ListAssignment.uniform_range(h.n, 10)
    with pytest.raises(ValueError, match="list of vertex"):
        prob.near_uniform_color(h, lists, 0, alpha_override=16)


def test_near_uniform_color_rejects_small_edges():
    rng = random.Random(3)
    h = random_hypergraph(40, 10, 2, 4, rng)
    lists = ListAssignment.uniform_range(h.n, 32 * 4)
    # default alpha floor: 2^12
    with pytest.raises(ValueError, match="minimum edge size"):
        prob.near_uniform_color(h, lists, 0)


def claw_free_corpus(count, base_n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        base = random_graph(base_n, 0.3, rng)
        g, _ = line_graph(base)
        if g.n >= 2 and g.max_degree() >= 1:
            out.append(g)
    return out


def pipeline_lists(g, scaled_mode=False, k_override=None):
    _, _, r = prob.pipeline_list_size(g, scaled_mode, k_override)
    return ListAssignment.uniform_range(g.n, max(r, 1))


def test_pipeline_full_constants_color_claw_free_graphs():
    for i, g in enumerate(claw_free_corpus(5, 12, seed=21)):
        lists = pipeline_lists(g)
        f, trace = prob.cfcn_pipeline(g, lists, 100 + i)
        assert verify_cf(derived_hypergraph(g, "closed"), f, lists=lists).valid
        # the full-scale b always swallows every greedy class at desk scale
        assert trace.b == trace.s
        assert not trace.part_c
        assert not trace.delegated
        check_trace_invariants(g, trace)


def test_pipeline_scaled_mode_exercises_the_h2_stage():
    saw_c = 0
    for i, g in enumerate(claw_free_corpus(5, 12, seed=22)):
        lists = pipeline_lists(g, True)
        f, trace = prob.cfcn_pipeline(g, lists, 200 + i, True, retry_limit=20)
        assert verify_cf(derived_hypergraph(g, "closed"), f, lists=lists).valid
        if trace.part_c and not trace.delegated:
            saw_c += 1
        check_trace_invariants(g, trace)
    assert saw_c > 0


@pytest.mark.parametrize("palette", [2, 10])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_colors_non_uniform_lists(seed, palette):
    """Lists of r colors drawn from a palette of palette * r: the reduced
    lists of B differ from vertex to vertex, and H2 is colored from them
    without delegating."""
    g, _ = line_graph(random_graph(60, 0.3, random.Random(seed)))
    _, _, r = prob.pipeline_list_size(g, True)
    assert r == {1: 376, 2: 368, 3: 387}[seed]
    rng = random.Random(100 + seed)
    lists = ListAssignment([rng.sample(range(palette * r), r) for _ in range(g.n)])
    f, trace = prob.cfcn_pipeline(g, lists, seed, True)
    assert verify_cf(derived_hypergraph(g, "closed"), f, lists=lists).valid
    assert trace.part_c and not trace.delegated
    check_trace_invariants(g, trace)


def check_trace_invariants(g, trace):
    a = trace.independent_set
    # A is a maximal independent set
    assert all(not has_edge(g, u, v) for u in a for v in a if u < v)
    assert all(v in a or any(w in a for w in g.adj[v]) for v in range(g.n))
    # classes partition V minus A
    seen = set()
    for cls_ in trace.classes:
        assert not (cls_ & seen)
        assert not (cls_ & a)
        seen |= cls_
    assert seen == set(range(g.n)) - a
    # B is the first b classes, C the rest
    assert trace.b == min(trace.s, trace.b)
    assert trace.part_b == frozenset().union(*trace.classes[: trace.b]) if trace.classes else not trace.part_b
    assert trace.part_c == (seen - trace.part_b)
    if not trace.delegated:
        # f1 colors exactly A
        assert set(trace.f1.domain) == a
        # X/Y removals stay within their size bounds
        for u in trace.removed_x:
            assert len(trace.removed_x[u]) <= trace.k - 1
            assert len(trace.removed_y[u]) <= (trace.k - 1) * (trace.b - 1) + 1
        # the witness rule, from g and f1 alone: X_u holds the colors of
        # u's A-neighbors, Y_u the smallest color that appears once among
        # the closed A-neighbors of each closed B-neighbor of u
        assert set(trace.removed_x) == (set(trace.part_b) if trace.part_c else set())
        for u in trace.removed_x:
            assert trace.removed_x[u] == {trace.f1[x] for x in g.adj[u] if x in a}
            assert trace.removed_y[u] == {
                smallest_once(trace.f1, [x for x in g.closed[w] if x in a])
                for w in g.closed[u]
                if w in trace.part_b
            }
    assert trace.final is not None
    assert trace.attempts >= 1


def test_pipeline_trace_lines_round_trip_key_facts():
    g = claw_free_corpus(1, 10, seed=23)[0]
    lists = pipeline_lists(g, True)
    _, trace = prob.cfcn_pipeline(g, lists, 9, True)
    text = "\n".join(trace.lines())
    assert f"k {trace.k}" in text
    assert f"delta {trace.delta}" in text
    assert "A " in text and "B " in text and "C " in text
    assert "delegated" in text


@pytest.mark.parametrize(
    "scaled_mode, line",
    [
        (False, "constants b_floor=4096 b_log_coeff=272 list_factor=32 r_coeff=262144"),
        (True, "constants b_floor=2 b_log_coeff=0.0 list_factor=32 r_coeff=32.0"),
    ],
)
def test_pipeline_trace_prints_the_constants_row(scaled_mode, line):
    g = cycle_graph(5)
    _, trace = prob.cfcn_pipeline(g, pipeline_lists(g, scaled_mode), 1, scaled_mode)
    assert [x for x in trace.lines() if x.startswith("constants")] == [line]
    # the trace holds a copy of the row, not the table's own
    assert trace.constants == prob.CONSTANTS[scaled_mode]
    assert trace.constants is not prob.CONSTANTS[scaled_mode]


def test_pipeline_determinism():
    g = claw_free_corpus(1, 10, seed=24)[0]
    lists = pipeline_lists(g, True)
    f1, _ = prob.cfcn_pipeline(g, lists, 4, True)
    f2, _ = prob.cfcn_pipeline(g, lists, 4, True)
    assert dict(f1.items()) == dict(f2.items())


def test_pipeline_rejects_undersized_lists():
    g = claw_free_corpus(1, 10, seed=25)[0]
    with pytest.raises(ValueError, match="pipeline needs"):
        prob.cfcn_pipeline(g, ListAssignment.uniform_range(g.n, 3), 0)


def smallest_once(f1, vertices):
    colors = [f1[x] for x in vertices]
    return min(c for c in colors if colors.count(c) == 1)


def test_color_h1_covers_a_union_b():
    g = claw_free_corpus(1, 12, seed=26)[0]
    from cfcolor.graphs import maximal_independent_set

    a = set(maximal_independent_set(g))
    b = set(range(g.n)) - a
    in_a = [[x for x in g.closed[v] if x in a] for v in range(g.n)]
    lists = ListAssignment.uniform_range(g.n, 64)
    f1, witness = prob.color_h1(in_a, a, b, lists)
    assert set(f1.domain) == a
    # every vertex of A u B sees a unique color among closed A-neighbors,
    # and its witness is the smallest such color
    assert set(witness) == set(range(g.n))
    for v in range(g.n):
        assert witness[v] == smallest_once(f1, in_a[v])
        if v in a:
            assert witness[v] == f1[v]

    # a B-vertex without an A-neighbor is reported before any coloring
    in_a[max(b)] = []
    with pytest.raises(prob.PipelineError, match=f"vertex {max(b)} in B has no"):
        prob.color_h1(in_a, a, b, lists)


def test_color_h1_falls_back_to_the_exact_solver(monkeypatch):
    solved = []
    solve_list_cf = prob.solve_list_cf
    monkeypatch.setattr(
        prob, "solve_list_cf", lambda *a: solved.append(1) or solve_list_cf(*a)
    )
    # B-vertex 3 sees all of A = {0, 1, 2}: greedy gives 0 and 1 the two
    # colors of {1, 2} and is stuck at 2, which the solver on H1 colors
    in_a = [[0], [1], [2], [0, 1, 2]]
    a, b = {0, 1, 2}, {3}
    lists = ListAssignment([(1, 2)] * 4)
    f1, witness = prob.color_h1(in_a, a, b, lists)
    assert solved == [1]
    assert set(f1.domain) == a
    assert all(f1[v] in lists.colors(v) for v in a)
    assert witness == {v: smallest_once(f1, in_a[v]) for v in range(4)}

    # three B-vertices ask for a proper 2-coloring of the triangle on A
    in_a = [[0], [1], [2], [0, 1], [1, 2], [0, 2]]
    with pytest.raises(
        prob.PipelineError, match=r"^\[color_h1\] A-core hypergraph is uncolorable$"
    ):
        prob.color_h1(in_a, a, {3, 4, 5}, ListAssignment([(1, 2)] * 6))


@pytest.mark.parametrize(
    "in_a_2, witness, lists_2, message",
    [
        # A-vertices 0 and 1 protect two colors, above k - 1 = 1
        ([0, 1], {0: 1, 1: 2, 2: 1, 3: 1}, (1, 2, 3), r"\|X_2\| = 2 > k-1"),
        # B-vertices 2 and 3 protect two colors, above (k-1)(b-1)+1 = 1
        ([0], {0: 1, 1: 1, 2: 1, 3: 2}, (1, 2, 3), r"\|Y_2\| = 2 exceeds \(k-1\)\(b-1\)\+1"),
        # vertex 2's list holds only the struck color 1
        ([0], {0: 1, 1: 1, 2: 1, 3: 1}, (1,), "vertex 2 left with empty list"),
    ],
    ids=["X", "Y", "empty-list"],
)
def test_reduce_lists_checks(in_a_2, witness, lists_2, message):
    from cfcolor.graphs import Graph

    # A = {0, 1}, B = {2, 3}; vertex 2 is the B-vertex checked first
    g = Graph(4, [(0, 2), (1, 2), (2, 3)])
    in_a = [[0], [1], in_a_2, [1]]
    lists = ListAssignment([(1, 2, 3), (1, 2, 3), lists_2, (1, 2, 3)])
    with pytest.raises(prob.PipelineError, match=message):
        prob.reduce_lists(g, in_a, {2, 3}, witness, lists, k=2, b=1)


def test_pipeline_retries_only_the_resampling(monkeypatch):
    """A failure that does not depend on the seed is recorded once and
    delegates at once; a failed resampling is retried with the next seed
    without redoing the stages before it."""
    # k = 2 forbids two A-neighbors, and vertex 1 of the path 0-1-2 has two
    g = path_graph(3)
    lists = pipeline_lists(g, True, 2)
    f, trace = prob.cfcn_pipeline(g, lists, 0, True, k_override=2)
    assert trace.delegated and trace.attempts == 1
    assert trace.failures == (
        "attempt 1: [structure] vertex 1 has 2 A-neighbors, expected 1..1",
    )

    g = claw_free_corpus(1, 12, seed=22)[0]
    lists = pipeline_lists(g, True)
    color_h1 = prob.color_h1
    h1_calls, seeds = [], []

    def counted_color_h1(*args, **kwargs):
        h1_calls.append(1)
        return color_h1(*args, **kwargs)

    monkeypatch.setattr(prob, "color_h1", counted_color_h1)
    for error, tried in (
        (prob.ResampleFailure(1, 0), [7, 8, 9, 10]),
        (ValueError("minimum edge size 1 below required alpha 2"), [7]),
    ):
        def failing_lemma(h, lists, rng_seed, **settings):
            seeds.append(rng_seed)
            raise error

        monkeypatch.setattr(prob, "near_uniform_color", failing_lemma)
        h1_calls.clear()
        seeds.clear()
        f, trace = prob.cfcn_pipeline(g, lists, 7, True, retry_limit=4)
        assert verify_cf(derived_hypergraph(g, "closed"), f, lists=lists).valid
        assert trace.delegated and trace.part_c
        assert seeds == tried and len(trace.failures) == len(tried)
        assert trace.attempts == len(tried) and h1_calls == [1]
    # the lemma's ValueError is recorded under the h2 stage
    assert trace.failures == (
        "attempt 1: [h2] minimum edge size 1 below required alpha 2",
    )

    # with C empty nothing depends on the seed: a failed check is not retried
    invalid = SimpleNamespace(valid=False, edge_violations=[0])
    monkeypatch.setattr(prob, "verify_cf", lambda *args, **kwargs: invalid)
    _, trace = prob.cfcn_pipeline(g, pipeline_lists(g), 7, retry_limit=4)
    assert not trace.part_c and trace.delegated
    assert trace.failures == ("attempt 1: verification failed on edges [0]",)
