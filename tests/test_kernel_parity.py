"""The compiled and pure-Python kernels must explore the identical search
tree: equal status, equal result, equal node count, on every input; and
their max_star must find the same largest induced star and their gamma
the same Gamma, each refusing the same input with the same error.  Their
near_uniform must draw the colors and resample the edges of the
full-rescan loop, and fail at the same round and edge, and their
pipeline_core must find the same core, classes, checks, H1 colors and
H2; the classes are the first-fit colors of greedy_color, which has no
C entry of its own.  The C
read_graph and read_hypergraph, which have no pure-Python twins, must
read a file into the arrays of what fileio's record loop reads from it,
and leave every other text to that loop.  A kernel whose allocation
fails raises MemoryError.  The compiled backend is ``_kernel.c``, built
on import when a C compiler is present."""

import math
import random
from array import array
from itertools import accumulate, chain, combinations
from unittest import mock

import pytest

from cfcolor import _kernel_py as pure
from cfcolor import cli, fileio, graphs, kernels, prob
from cfcolor.coloring import ListAssignment
from cfcolor.errors import InputFormatError, ResampleFailure
from cfcolor.graphs import Graph, Hypergraph, line_graph
from util import (
    brute_force_max_star,
    connected_parts,
    exact_one_by_parts,
    first_fit_classes,
    format_hypergraph,
    full_rescan_near_uniform_color,
    pairwise_hypergraph_stats,
    requires_compiled,
    run_python,
)


@requires_compiled
def test_backend_is_compiled_when_built():
    assert kernels.BACKEND == "compiled"
    assert kernels.search is not pure.search
    assert kernels.near_uniform is not pure.near_uniform
    # max_star hands the arrays' buffers to C, which reads C ints
    with pytest.raises(TypeError, match="CSR arrays of C ints"):
        kernels.max_star(array("q", [0]), array("i"))


def _on_pure_backend(*args):
    """kernels.solve_cf(*args) on the pure-Python search."""
    with mock.patch.object(kernels, "search", pure.search):
        return kernels.solve_cf(*args)


def _same_in_both_backends(*args):
    """The compiled results of solve_cf(*args) with "uncolored" tried
    first and last, after checking that the pure kernel returns the same
    and that a search finding nothing finds nothing in both orders.  When
    the edges form one part it also visits the same nodes in both; with
    several, the parts before the failing one are searched up to their
    first solution, whose cost depends on the order."""
    results = []
    for uncolored_first in (True, False):
        got = kernels.solve_cf(*args, uncolored_first)
        pure_got = _on_pure_backend(*args, uncolored_first)
        assert got == pure_got, (args, uncolored_first)
        results.append(got)
    if 1 in (results[0][0], results[1][0]):
        assert results[0][0] == results[1][0], args
        n, edges = args[:2]
        if len(list(connected_parts(n, edges))) == 1:
            assert results[0] == results[1], args
    return results


@requires_compiled
def test_solve_cf_parity_randomized():
    rng = random.Random(99)
    trips = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        edges = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)]
        lists = [sorted(rng.sample(range(5), rng.randint(1, 3))) for _ in range(n)]
        budget = rng.choice([50, 100000])
        for total in (False, True):
            for got in _same_in_both_backends(n, edges, lists, total, budget):
                trips += got[0] == 2
    assert trips > 0


@requires_compiled
def test_solve_cf_parity_symmetric_mode():
    rng = random.Random(7)
    # (instances, largest n, budget): small exhaustive searches, then n up
    # to 40 (edges of at most 8 vertices) where the budget trips
    trips = one_color_trips = 0
    for count, max_n, budget in ((100, 8, 100000), (20, 40, 50_000)):
        for _ in range(count):
            n = rng.randint(2, max_n)
            m = rng.randint(1, max_n)
            size = min(n, 8)
            edges = [sorted(rng.sample(range(n), rng.randint(1, size))) for _ in range(m)]
            shared = list(range(rng.randint(1, 4)))
            for total in (False, True):
                for got in _same_in_both_backends(n, edges, [shared] * n, total, budget):
                    trips += got[0] == 2
            # the one-color list [0] in partial mode is the exact-one
            # search behind PIMDS, PIDS and the 1-in-3 oracle; it prunes
            # so hard that only a small budget trips it here
            for limit in (budget, 20):
                for got in _same_in_both_backends(n, edges, [[0]] * n, False, limit):
                    one_color_trips += got[0] == 2
    assert trips > 0 and one_color_trips > 0


def test_unequal_lists_are_searched_inside_their_lists():
    # with a caller-set symmetry flag these searched as if the lists were
    # equal: the C kernel answered "no" to the first and colored vertex 2
    # of the second outside its list [2]
    for n, edges, lists, budget in (
        (2, [[0, 1]], [[0], [1]], 10),
        (3, [[0, 1, 2]], [[0, 1], [0, 1], [2]], 100),
    ):
        got = kernels.solve_cf(n, edges, lists, True, budget)
        assert got == _on_pure_backend(n, edges, lists, True, budget)
        status, assignment, _ = got
        assert status == 0
        assert all(assignment[v] in lists[v] for v in range(n)), got


def test_equal_lists_search_like_one_shared_list():
    # symmetry is read from the lists, so equal lists held separately
    # search exactly like one list shared by every vertex
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10)
        edges = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 10))]
        shared = sorted(rng.sample(range(6), rng.randint(1, 4)))
        separate = [list(shared) for _ in range(n)]
        for total in (False, True):
            for uncolored_first in (True, False):
                flags = (total, 10_000, uncolored_first)
                one = kernels.solve_cf(n, edges, [shared] * n, *flags)
                assert kernels.solve_cf(n, edges, separate, *flags) == one, (edges, flags)


def _exact_one_cases():
    """(n, sets, budget) for the exact-one parity tests."""
    rng = random.Random(3)
    # (instances, largest n, largest set, budgets): small searches, then n
    # up to 40 where the budget trips
    cases = []
    bands = ((200, 10, 10, (20, 100000)), (20, 40, 4, (50_000,)))
    for count, max_n, max_size, budgets in bands:
        for _ in range(count):
            n = rng.randint(1, max_n)
            m = rng.randint(1, max_n)
            size = min(n, max_size)
            sets = [sorted(rng.sample(range(n), rng.randint(1, size))) for _ in range(m)]
            cases.append((n, sets, rng.choice(budgets)))
    return cases


@requires_compiled
def test_exact_one_parity_randomized(monkeypatch):
    cases = _exact_one_cases()
    compiled = [kernels.exact_one(*case) for case in cases]
    # solve_cf looks search up at call time, so this runs the same search
    # on the pure-Python kernel
    monkeypatch.setattr(kernels, "search", pure.search)
    assert compiled == [kernels.exact_one(*case) for case in cases]
    assert any(got[0] == 2 for got in compiled)


def test_exact_one_matches_the_search_by_parts():
    # the kernel's split gives what one kernel call per relabelled part
    # gave, at a budget neither trips; only the node counts may differ
    for n, sets, _ in _exact_one_cases():
        split = kernels.exact_one(n, sets, 10**7)
        by_parts = exact_one_by_parts(n, sets, 10**7)
        assert split[0] != 2 and split[:2] == by_parts[:2], (n, sets)


@requires_compiled
def test_budget_status_and_node_counts_match():
    # a deliberately hard unsatisfiable-ish instance under a tiny budget
    n = 10
    edges = [[v, (v + 1) % n, (v + 2) % n] for v in range(n)]
    lists = [[0, 1]] * n
    # any total solution needs at least n assignments, so a budget of 5
    # must trip in both backends at the same node
    a = kernels.solve_cf(n, edges, lists, True, 5)
    b = _on_pure_backend(n, edges, lists, True, 5)
    assert a == b
    assert a[0] == 2 and a[2] == 6


_OUT_OF_MEMORY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cfcolor import cli, fileio, kernels
from cfcolor.graphs import Graph
assert kernels.BACKEND == "compiled"
try:
    kernels.solve_cf(2, [[0, 1]], [[0], [2**31 - 2]], False, 100)
except MemoryError as exc:
    print(exc)
open(%r, "w").write(fileio.format_graph(Graph(1000, [(v, v + 1) for v in range(999)])))
open(%r, "w").write("".join(f"L {v + 1} {1000 * v} {1000 * v + 1000}\\n" for v in range(1000)))
print(cli.main(["solve", "--graph", %r, "--lists", %r]))
"""


@requires_compiled
def test_out_of_memory_is_a_memory_error(tmp_path):
    # 2^31 - 1 colors give the one edge a count row of 8 GiB, past the
    # 2 GiB address space: the kernel's allocation fails before any node
    # and the binding raises MemoryError.  Through the CLI, 1,000
    # disjoint lists of 1,000 colors give 1,000 closed neighborhoods a
    # count row of 4 MB each, and the CLI exits 2
    graph, lists = str(tmp_path / "g.txt"), str(tmp_path / "lists.txt")
    done = run_python(_OUT_OF_MEMORY % (graph, lists, graph, lists), timeout=60)
    assert done.stdout.splitlines() == ["solve_cf on 2 vertices ran out of memory", "2"]
    message = "solve_cf on 1000 vertices ran out of memory"
    assert done.stderr == f"resources exhausted: MemoryError: {message}\n"


def test_both_backends_reject_out_of_range_input():
    # a vertex outside [0, n), a negative color or a list count other
    # than n is an error on either backend, never an index that wraps
    # around or runs off an array; both with equal lists, which are passed
    # once, and with unequal ones
    cases = [
        (2, [[-1, 0]], [[0], [0]], "edge vertex out of range"),
        (2, [[-1, 0]], [[0], [1]], "edge vertex out of range"),
        (2, [[2, 0]], [[0], [0]], "edge vertex out of range"),
        (2, [[2, 0]], [[1], [0]], "edge vertex out of range"),
        (2, [[1, 0]], [[0, -1], [0, -1]], "negative color"),
        (2, [[1, 0]], [[0], [0, -1]], "negative color"),
        (3, [[1, 0]], [[0], [0]], "2 lists for 3 vertices"),
        (3, [[1, 0]], [[0], [1]], "2 lists for 3 vertices"),
        (1, [[0]], [[0], [0]], "2 lists for 1 vertices"),
        (-1, [], [], "0 lists for -1 vertices"),
    ]
    for n, edges, lists, message in cases:
        for search in (kernels.search, pure.search):
            with mock.patch.object(kernels, "search", search):
                with pytest.raises(ValueError, match=message):
                    kernels.solve_cf(n, edges, lists, False, 10)
    # the range check runs before the answer for an empty set
    for sets in ([[-1]], [[2]], [[], [2]]):
        with pytest.raises(ValueError, match="edge vertex out of range"):
            kernels.exact_one(2, sets, 10)


def _max_star_graphs():
    """About 2,000 graphs of at most 16 vertices: random graphs of four
    densities and the line graphs of those with at most 16 edges."""
    rng = random.Random(11)
    found = []
    for _ in range(1350):
        n = rng.randint(1, 16)
        p = rng.choice([0.1, 0.25, 0.5, 0.8])
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        found.append(g)
        if 1 <= g.m <= 16:
            found.append(line_graph(g)[0])
    return found


def test_max_star_parity_on_small_graphs():
    cases = _max_star_graphs()
    assert len(cases) >= 2000
    for g in cases:
        want = brute_force_max_star(g)
        assert kernels.max_star(*g.csr) == pure.max_star(*g.csr) == want, g.adj


def _benchmark_line_graphs():
    """The 40 line graphs of the benchmark's seed-1 randomized workload:
    G(60, 531) drawn as `cfbench/workloads.py` draws it, each followed by
    the request's seed draw; 531 vertices and about 9,200 edges each."""
    rng = random.Random("randomized:1")
    pairs = list(combinations(range(60), 2))
    found = []
    for _ in range(40):
        base = Graph(60, sorted(rng.sample(pairs, round(0.3 * math.comb(60, 2)))))
        found.append(line_graph(base)[0])
        rng.randrange(10**6)
    return found


def test_max_star_parity_on_the_benchmark_line_graphs():
    # line graphs are claw-free, and each of these has a path on three
    # edges, whose middle edge has two nonadjacent neighbors
    for g in _benchmark_line_graphs():
        assert g.n == 531
        assert kernels.max_star(*g.csr) == pure.max_star(*g.csr) == 2


@requires_compiled
def test_read_graph_parity_on_the_benchmark_line_graphs():
    # the C reader gives the CSR that Graph.csr computes from the rows of
    # the record loop's Graph, and parse_graph gives the same Graph and
    # CSR with the C reader and without it, on the pure-Python backend
    for g in _benchmark_line_graphs():
        text = fileio.format_graph(g)
        assert kernels.read_graph(text) == g.csr
        assert fileio._parse_graph_records(text) == g
        for reader in (kernels.read_graph, None):
            with mock.patch.object(kernels, "read_graph", reader):
                back = fileio.parse_graph(text)
            assert back == g and back.csr == g.csr


def test_max_star_parity_on_banded_graphs():
    # neighborhoods inside a band of the vertex order span only some of
    # the bitset words, the ones the C kernel touches
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(60, 400)
        band = rng.randint(2, 24)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, min(n, u + band))
                      if rng.random() < 0.4])
        assert kernels.max_star(*g.csr) == pure.max_star(*g.csr), (n, band)


def _csr(rows):
    return array("i", accumulate(map(len, rows), initial=0)), array("i", chain(*rows))


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_max_star_extremes_on_both_backends(backend):
    search = kernels.max_star if backend == "active" else pure.max_star
    with mock.patch.object(kernels, "max_star", search):
        assert graphs.max_star(Graph(1501, [(0, v) for v in range(1, 1501)])) == 1500
        assert graphs.max_star(Graph(1)) == graphs.max_star(Graph(70)) == 0
        assert graphs.max_star(Graph(0)) == 0
    # a row outside [0, n) or naming its own vertex is refused, never
    # read past the bitsets or looped on
    for adj, row in (([[1], [2]], 1), ([[1], [0, 1]], 1), ([[-1], [0]], 0)):
        with pytest.raises(ValueError, match=f"adjacency row {row} names"):
            search(*_csr(adj))
    # and so are starts that would read outside vert: not from 0, not up
    # to its end, or falling on the way
    for start, vert in (([], []), ([1, 1], [0]), ([0, 1], [0, 0]), ([0, 2, 1, 2], [1, 2])):
        with pytest.raises(ValueError, match="CSR starts must rise"):
            search(array("i", start), array("i", vert))


def _first_fit_colors(g, order):
    """greedy_color's colors, read off the classes of the set-based first
    fit."""
    color = [-1] * g.n
    for c, cls in enumerate(first_fit_classes(g, order)):
        for v in cls:
            color[v] = c
    return color


def test_greedy_color_parity_on_random_graphs():
    # graphs of up to 40 vertices, n = 0 and edgeless ones included, each
    # colored in full, in a shuffled part of its vertices and in the empty
    # order
    rng = random.Random(28)
    for _ in range(300):
        n = rng.randint(0, 40)
        p = rng.choice([0.0, 0.1, 0.3, 0.7])
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for order in (list(range(n)), rng.sample(range(n), rng.randint(0, n)), []):
            assert pure.greedy_color(*g.csr, order) == _first_fit_colors(g, order)


def test_gamma_parity_on_random_hypergraphs():
    # hypergraphs of up to 30 vertices with repeated edges, n = 0, and no
    # edges, against the pairwise reference
    rng = random.Random(29)
    cases = [Hypergraph(0, []), Hypergraph(5, []), Hypergraph(2, [(0, 1)] * 3)]
    for _ in range(300):
        n = rng.randint(1, 30)
        edges = [rng.sample(range(n), rng.randint(1, min(n, 6))) for _ in range(rng.randint(0, 30))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))
        cases.append(Hypergraph(n, edges))
    for h in cases:
        want = pairwise_hypergraph_stats(h)
        assert kernels.gamma(h.n, *h.csr) == pure.gamma(h.n, *h.csr) == want, h.edges


def test_greedy_color_and_gamma_parity_on_the_benchmark_line_graphs():
    # the pipeline's classes, of the vertices outside a maximal independent
    # set, as the active pipeline_core finds them without handing the
    # request to its twin, and Gamma of the closed neighborhoods, which
    # meet far more edges than the pipeline's H2
    for g in _benchmark_line_graphs():
        a_set = graphs.maximal_independent_set(g)
        order = [v for v in range(g.n) if v not in a_set]
        _, _, r = prob.pipeline_list_size(g, True)
        core, in_c = _same_core(*g.csr, ListAssignment.uniform_range(g.n, r), 3, 2)
        assert in_c or kernels.BACKEND != "compiled"
        assert core.members[:core.bounds[1]] == sorted(a_set)
        color = [-1] * g.n
        for c in range(len(core.bounds) - 2):
            for v in core.members[core.bounds[c + 1]:core.bounds[c + 2]]:
                color[v] = c
        assert color == pure.greedy_color(*g.csr, order)
        closed = graphs.derived_hypergraph(g, "closed")
        assert kernels.gamma(g.n, *closed.csr) == pure.gamma(g.n, *closed.csr)


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_greedy_color_and_gamma_refuse_what_they_cannot_read(backend):
    # greedy_color has no C entry: both runs check the twin
    greedy = pure.greedy_color
    gamma = kernels.gamma if backend == "active" else pure.gamma
    # starts that would read outside vert
    for start, vert in (([], []), ([1, 1], [0]), ([0, 2, 1, 2], [1, 2])):
        start, vert = array("i", start), array("i", vert)
        with pytest.raises(ValueError, match="CSR starts must rise"):
            greedy(start, vert, [])
        with pytest.raises(ValueError, match="CSR starts must rise"):
            gamma(3, start, vert)
    # a row, of a graph or of a hypergraph's edges, naming a vertex
    # outside [0, n): the first such row is named.  A graph has a row per
    # vertex; a hypergraph's n is its own
    for rows, n, row in (([[1], [3]], 2, 1), ([[-1], [0]], 2, 0), ([[0], [1], [2]], 2, 2)):
        if n == len(rows):
            with pytest.raises(ValueError, match=f"CSR row {row} names a vertex outside"):
                greedy(*_csr(rows), [])
        with pytest.raises(ValueError, match=f"CSR row {row} names a vertex outside"):
            gamma(n, *_csr(rows))
    with pytest.raises(ValueError, match="CSR row 0 names a vertex outside"):
        gamma(-1, *_csr([[0]]))
    assert gamma(-1, *_csr([])) == 0
    # the order is checked first, then the rows, then repeats in the order
    path = _csr([[1], [0, 2], [1]])
    bad_rows = _csr([[1], [5], [1]])
    for order, v in (([0, 3], 3), ([-1, 0], -1), ([2**40, 7], 2**40), ([0, 0, 9], 9)):
        for csr in (path, bad_rows):
            with pytest.raises(ValueError, match=f"order vertex {v} lies outside"):
                greedy(*csr, order)
    with pytest.raises(ValueError, match="CSR row 1 names"):
        greedy(*bad_rows, [0, 0])
    for order, v in (([0, 0], 0), ([2, 1, 0, 1], 1)):
        with pytest.raises(ValueError, match=f"order repeats vertex {v}$"):
            greedy(*path, order)


_GAMMA_OUT_OF_MEMORY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cfcolor import graphs, kernels
assert kernels.BACKEND == "compiled"
try:
    graphs.hypergraph_stats(graphs.Hypergraph(1 << 29, [(0,)]))
except MemoryError as exc:
    print(exc)
"""


@requires_compiled
def test_gamma_out_of_memory_is_a_memory_error():
    # the incidence starts of 2^29 vertices take 2 GiB, past the 1 GiB
    # address space: the allocation fails before any count
    done = run_python(_GAMMA_OUT_OF_MEMORY, timeout=60)
    assert done.stdout == "gamma on 536870912 vertices ran out of memory\n"


_MAX_STAR_OUT_OF_MEMORY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cfcolor import cli, graphs, kernels
assert kernels.BACKEND == "compiled"
g = graphs.Graph(150000, [(0, 1)])
try:
    kernels.max_star(*g.csr)
except MemoryError as exc:
    print(exc)
try:
    graphs.max_star(g)
except MemoryError as exc:
    print(exc)
open(%r, "w").write("p graph 150000 1\\ne 1 2\\n")
print(cli.main(["pipeline", "--graph", %r, "--lists", "RANGE:5", "--seed", "1"]))
"""


@requires_compiled
def test_max_star_out_of_memory_is_a_memory_error(tmp_path):
    # 150,000 neighborhoods of 2,344 words each are 2.8 GB of bitsets,
    # past the 2 GiB address space: the allocation fails before any search
    path = str(tmp_path / "wide.txt")
    done = run_python(_MAX_STAR_OUT_OF_MEMORY % (path, path), timeout=60)
    message = "max_star on 150000 vertices ran out of memory"
    assert done.stdout.splitlines() == [message, message, "2"]
    assert done.stderr == f"resources exhausted: MemoryError: {message}\n"


_READER_OUT_OF_MEMORY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cfcolor import cli, fileio, kernels
assert kernels.BACKEND == "compiled"
wide = "p graph 2147483647 1\\ne 1 2\\n"
print(kernels.read_graph(wide))
try:
    fileio.parse_graph(wide)
except MemoryError as exc:
    print(repr(exc))
open(%r, "w").write(wide)
print(cli.main(["edc", "--graph", %r]))
"""


@requires_compiled
def test_read_graph_out_of_memory_is_a_memory_error(tmp_path):
    # the C reader declines 2^31 - 1 vertices in a 27-character text, so
    # nothing is sized from them there; the record loop's row per vertex
    # is 16 GiB, past the 2 GiB address space: parse_graph raises
    # MemoryError, worded as the C entries word it, and the CLI exits 2
    path = str(tmp_path / "wide.txt")
    done = run_python(_READER_OUT_OF_MEMORY % (path, path), timeout=60)
    message = "parse_graph on 2147483647 vertices ran out of memory"
    assert done.stdout.splitlines() == ["None", f"MemoryError('{message}')", "2"]
    assert done.stderr == f"resources exhausted: MemoryError: {message}\n"


@requires_compiled
def test_a_build_removes_the_libraries_it_replaces(tmp_path):
    # another compile command keys another library; building it removes
    # the first, so the cache holds one library however often either
    # the source or the command changes
    assert kernels.load(tmp_path)[0] == "compiled"
    [first] = tmp_path.iterdir()
    with mock.patch.object(kernels, "COMPILE_FLAGS", ("-O1", "-shared", "-fPIC")):
        assert kernels.load(tmp_path)[0] == "compiled"
    [library] = tmp_path.iterdir()
    assert library != first and library.name.startswith("_kernel-")


def test_loader_falls_back_then_reuses_its_cache(tmp_path):
    # the pure-Python backend has no file readers: fileio reads every
    # graph and hypergraph file record by record
    assert kernels.load(tmp_path, compiler="no-such-compiler") == (
        "pure-python",
        pure.search,
        pure.max_star,
        pure.gamma,
        pure.near_uniform,
        pure.pipeline_core,
        None,
        None,
    )
    assert list(tmp_path.iterdir()) == []
    if kernels.BACKEND != "compiled":
        pytest.skip("no C compiler to build _kernel.c")
    (
        backend, search, max_star, gamma, near_uniform, pipeline_core, read_graph,
        read_hypergraph,
    ) = kernels.load(tmp_path)
    assert backend == "compiled"
    [library] = tmp_path.iterdir()
    built = library.stat().st_mtime_ns
    assert kernels.load(tmp_path)[0] == "compiled"
    assert list(tmp_path.iterdir()) == [library]
    assert library.stat().st_mtime_ns == built
    # the edge {0, 1} and the lists [0], [0], passed unshared
    args = (2, 1, [0, 2], [0, 1], [0, 1], [1, 2], [0, 0], 1, True, False, True, 10)
    assert search(*args) == pure.search(*args) == (1, None, 2)
    # all the kernels come from the one library: the path 0 - 1 - 2
    path = _csr([[1], [0, 2], [1]])
    assert max_star(*path) == pure.max_star(*path) == 2
    # as edges, the rows {1}, {0, 2}, {1}: only the two copies of {1} meet
    assert gamma(3, *path) == pure.gamma(3, *path) == 1
    # A = {0, 2} and the class {1}, which k = 2 lets have one A-neighbor
    lists = ListAssignment.uniform_range(3, 4)
    core = pure.pipeline_core(*path, lists, 2, 1)
    assert pipeline_core(*path, lists, 2, 1) == core
    assert core.error == ("structure", "vertex 1 has 2 A-neighbors, expected 1..1")
    text = "p graph 3 2\ne 2 3\ne 1 2\n"
    assert read_graph(text) == path == fileio._parse_graph_records(text).csr
    text = "p hgraph 3 2\nh 3 1\nh 2\n"
    assert read_hypergraph(text) == (3, array("i", [0, 2, 3]), array("i", [0, 2, 1]))
    h = fileio._parse_hypergraph_records(text)
    assert near_uniform(h, ListAssignment.uniform_range(3, 4), 1, 5) == pure.near_uniform(
        h, ListAssignment.uniform_range(3, 4), 1, 5
    )


def _resample(near_uniform, h, lists, seed, cap, list_factor=1):
    """(colors by vertex, rounds) of prob.near_uniform_color on the kernel
    near_uniform, or ("failed", rounds, worst edge) at the round cap."""
    with mock.patch.object(kernels, "near_uniform", near_uniform):
        try:
            f, rounds = prob.near_uniform_color(
                h, lists, seed, list_factor=list_factor, alpha_override=1, max_rounds=cap
            )
        except ResampleFailure as exc:
            return "failed", exc.rounds, exc.worst_edge
    return [f[v] for v in range(h.n)], rounds


def _rescan(h, lists, seed, cap):
    """_resample's result from the full-rescan loop of tests/util."""
    try:
        return full_rescan_near_uniform_color(h, lists, seed, cap)
    except ResampleFailure as exc:
        return "failed", exc.rounds, exc.worst_edge


def _same_resampling(h, lists, seed, cap, list_factor=1):
    """The active backend's resampling, after checking that the pure
    kernel and the full-rescan loop give the same."""
    got = _resample(kernels.near_uniform, h, lists, seed, cap, list_factor)
    assert got == _resample(pure.near_uniform, h, lists, seed, cap, list_factor)
    assert got == _rescan(h, lists, seed, cap), (h.edges, seed, cap)
    return got


def _resampler_lists(n, size, rng):
    """Lists of `size` colors on n vertices: one shared range, ranges with
    removed colors, each with others, and explicit lists."""
    wide = ListAssignment([range(v % 3, v % 3 + size + 4) for v in range(n)])
    return {
        "range": ListAssignment.uniform_range(n, size),
        "reduced": ListAssignment._from_sorted([
            wide.without(v, set(rng.sample(wide.colors(v), 4))) for v in range(n)
        ]),
        "explicit": ListAssignment([rng.sample(range(3 * size), size) for _ in range(n)]),
    }


def test_near_uniform_parity_with_the_full_rescan():
    # lists hardly longer than the edges, most edges of 2 vertices: many
    # edges are bad, so that the caps of 1 and 5 rounds trip and 1000
    # rounds do not
    rng = random.Random(8)
    outcomes = set()
    for _ in range(25):
        n = rng.randint(4, 30)
        edges = [rng.sample(range(n), rng.randint(2, min(n, rng.choice([2, 3, 8]))))
                 for _ in range(rng.randint(1, 16))]
        h = Hypergraph(n, edges)
        size = max(map(len, h.edges)) + rng.choice([0, 0, 1])
        for kind, lists in _resampler_lists(n, size, rng).items():
            for cap in (1, 5, 1000):
                got = _same_resampling(h, lists, rng.randrange(10**6), cap)
                outcomes.add((kind, cap, got[0] == "failed"))
    for kind in ("range", "reduced", "explicit"):
        assert {(kind, 1, True), (kind, 1000, False)} <= outcomes
    assert any(cap == 5 and failed for _, cap, failed in outcomes)


def test_near_uniform_edge_cases_on_both_backends():
    h = Hypergraph(12, [range(0, 6), range(3, 9), range(6, 12), (0, 11)])
    singletons = Hypergraph(3, [(0,), (1,), (2,)])
    one = ListAssignment.uniform_range(3, 1)
    # one color per vertex: an edge of one vertex is never bad, an edge
    # of two always is (the lemma's checks want two colors for it)
    assert _same_resampling(singletons, one, 3, 5) == ([0, 0, 0], 0)
    for near_uniform in (kernels.near_uniform, pure.near_uniform):
        with pytest.raises(ResampleFailure) as got:
            near_uniform(Hypergraph(3, [(2,), (0, 1)]), one, 3, 5)
        assert (got.value.rounds, got.value.worst_edge) == (5, 1)
        # an edge naming a vertex outside [0, n), which only _from_sorted
        # lets through, is refused as gamma refuses it; vertex -1 is not
        # read as vertex 2
        for edges, row in (([(0, 3)], 0), ([(1, 2), (-1, 0)], 1)):
            bad = Hypergraph._from_sorted(3, edges)
            with pytest.raises(ValueError, match=f"^CSR row {row} names a vertex outside"):
                near_uniform(bad, one, 3, 5)
        # and with n < 0 no vertex lies inside
        with pytest.raises(ValueError, match="^CSR row 0 names a vertex outside"):
            near_uniform(Hypergraph._from_sorted(-1, [(0,)]), one, 3, 5)
    # 2^32 + 1 colors are drawn from two Twister words, as is
    # list_factor 10^14 times 6 (50 bits); a negative seed
    _same_resampling(h, ListAssignment.uniform_range(12, 2**32 + 1), 5, 10)
    huge = prob.lemma_lists(h, 10**14)
    assert huge.size(0) == 6 * 10**14
    _same_resampling(h, huge, 5, 10, list_factor=10**14)
    _same_resampling(h, ListAssignment.uniform_range(12, 6), -12345, 1000)
    # round caps above INT_MAX are clamped to MAX_BUDGET, which no run
    # reaches
    for cap in (2**31, 2**70):
        _same_resampling(h, ListAssignment.uniform_range(12, 6), 2, cap)
    # the C entry takes colors up to 2^63 - 1 and declines larger ones,
    # explicit or in a range, which the pure kernel then colors
    for top, declined in ((2**63 - 1, False), (2**63, True), (2**80, True)):
        for last in (tuple(range(top - 6, top + 1)), range(top - 6, top + 1)):
            lists = ListAssignment([range(7 * v, 7 * v + 7) for v in range(11)] + [last])
            with mock.patch.object(pure, "near_uniform", wraps=pure.near_uniform) as twin:
                got = _resample(kernels.near_uniform, h, lists, 9, 50)
            assert got == _rescan(h, lists, 9, 50) and got[0][11] >= top - 6
            if kernels.BACKEND == "compiled":
                assert twin.called == declined


def _benchmark_hypergraphs(count):
    """(hypergraph, seed) of the first `count` lemma requests of the
    benchmark's seed-1 randomized workload, drawn after the 40 graphs of
    _benchmark_line_graphs as `cfbench/workloads.py` draws them: 1000
    vertices and 600 edges of 8 to 12 vertices each."""
    rng = random.Random("randomized:1")
    pairs = list(combinations(range(60), 2))
    for _ in range(40):
        rng.sample(pairs, round(0.3 * math.comb(60, 2)))
        rng.randrange(10**6)
    found = []
    for _ in range(count):
        edges = [sorted(rng.sample(range(1000), rng.randint(8, 12))) for _ in range(600)]
        found.append((Hypergraph(1000, edges), rng.randrange(10**6)))
    return found


@requires_compiled
def test_read_hypergraph_and_lemma_parity_on_the_benchmark_hypergraphs(tmp_path, capsys):
    # the C reader gives the Hypergraph of the record loop, and the lemma
    # request prints the same rounds and coloring on both backends
    for h, seed in _benchmark_hypergraphs(20):
        text = format_hypergraph(h)
        assert kernels.read_hypergraph(text) is not None
        assert fileio.parse_hypergraph(text) == fileio._parse_hypergraph_records(text) == h
    for i, (h, seed) in enumerate(_benchmark_hypergraphs(3)):
        path = tmp_path / f"hyper{i}.hgraph"
        path.write_text(format_hypergraph(h))
        argv = ["lemma", "--hgraph", str(path), "--list-factor", "1", "--alpha", "8",
                "--seed", str(seed)]
        outputs = []
        for near_uniform, reader in ((kernels.near_uniform, kernels.read_hypergraph),
                                     (pure.near_uniform, None)):
            with mock.patch.object(kernels, "near_uniform", near_uniform), \
                    mock.patch.object(kernels, "read_hypergraph", reader):
                assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("rounds ")


@requires_compiled
@pytest.mark.parametrize(
    "text",
    [
        "p hgraph 3 1\nc a comment\nh 1 2\n",
        "p hgraph 3 1\nh 1\t2\n",
        "p hgraph 3 1\nh 1  2\n",
        "p hgraph 3 1\nh 1 2 \n",
        "p hgraph 3 1\nh 01 2\n",
        "p hgraph 3 1\nh 1 2",
        "p hgraph 3 1\r\nh 1 2\r\n",
        "p hgraph 3 1\nh 1 2 1\n",
        "p hgraph 3 1\nh 1 4\n",
        "p hgraph 3 1\nh 0 2\n",
        "p hgraph 3 1\nh\n",
        "p hgraph 3 2\nh 1 2\n",
        "p hgraph 3 1\nh 1 2\nh 3\n",
        "p hgraph 3 1\nh 1 2\nx\n",
        "p hgraph 03 1\nh 1 2\n",
    ],
    ids=["comment", "tab", "two-spaces", "trailing-space", "leading-zero", "no-newline",
         "crlf", "repeated-vertex", "vertex-above-n", "vertex-0", "empty-edge",
         "too-few-edges", "too-many-edges", "trailing-text", "header-zero"],
)
def test_read_hypergraph_leaves_other_texts_to_the_record_loop(text):
    # the record loop reads what the C reader declines, with its result
    # or its line-numbered error
    assert kernels.read_hypergraph(text) is None
    try:
        want = fileio._parse_hypergraph_records(text)
    except InputFormatError as exc:
        with pytest.raises(InputFormatError) as got:
            fileio.parse_hypergraph(text)
        assert str(got.value) == str(exc)
    else:
        assert fileio.parse_hypergraph(text) == want


def _same_core(start, vert, lists, k, b_cap):
    """The active backend's pipeline_core, after checking that the pure
    kernel gives the same, and whether the compiled entry ran it to the
    end rather than handing it to the pure kernel."""
    with mock.patch.object(pure, "pipeline_core", wraps=pure.pipeline_core) as twin:
        got = kernels.pipeline_core(start, vert, lists, k, b_cap)
    assert got == pure.pipeline_core(start, vert, lists, k, b_cap)
    return got, kernels.BACKEND == "compiled" and not twin.called


def _core_lists(n, size, rng):
    """_resampler_lists' lists of at least `size` colors, and a mix of
    the three kinds, chosen vertex by vertex."""
    kinds = _resampler_lists(n, size, rng)
    mixed = [kinds[rng.choice(sorted(kinds))].colors(v) for v in range(n)]
    return {**kinds, "mixed": ListAssignment._from_sorted(mixed)}


def _outcome(core):
    """The stage of a Core's failed check, or whether it built H2."""
    return core.error[0] if core.error else "h2" if core.h2 else "no C"


def test_pipeline_core_parity_on_random_line_graphs():
    # line graphs of G(n, p) with n <= 30, whose k is 3; k = 2 and small
    # lists fail the checks, and large b_cap leaves C empty
    rng = random.Random(31)
    outcomes = set()
    for _ in range(120):
        g, _ = line_graph(graphs.random_graph(rng.randint(3, 30), rng.choice([0.1, 0.2, 0.3]), rng))
        k, b_cap = rng.choice([2, 3, 3, 3, 4]), rng.choice([1, 2, 2, 3, 10**9])
        size = (k - 1) * min(b_cap, g.n) + 2 + rng.choice([-1, 0, 0, 5])
        for kind, lists in _core_lists(g.n, max(size, 1), rng).items():
            core, in_c = _same_core(*g.csr, lists, k, b_cap)
            outcomes.add((kind, _outcome(core)))
            # no input here is a greedy dead end, so the compiled entry
            # runs every one without an explicit list
            explicit = any(isinstance(lists.colors(v), tuple) for v in range(g.n))
            assert in_c == (kernels.BACKEND == "compiled" and not explicit)
    for kind in ("range", "reduced", "explicit", "mixed"):
        assert {(kind, o) for o in ("structure", "color_h1", "h2", "no C")} <= outcomes


def test_pipeline_core_parity_on_the_benchmark_line_graphs():
    # the pipeline requests' core: k = 3, b_cap 2, r colors in range
    # lists, which the compiled entry runs, and in explicit lists drawn
    # from 2r colors for a few graphs, which it hands to the pure kernel
    rng = random.Random(6)
    for i, g in enumerate(_benchmark_line_graphs()):
        _, _, r = prob.pipeline_list_size(g, True)
        cases = [ListAssignment.uniform_range(g.n, r)]
        if i < 5:
            cases.append(ListAssignment([rng.sample(range(2 * r), r) for _ in range(g.n)]))
        for j, lists in enumerate(cases):
            core, in_c = _same_core(*g.csr, lists, 3, 2)
            assert core.error is None and core.h2 is not None
            assert in_c == (kernels.BACKEND == "compiled" and j == 0)


def _core_cases():
    """(graph, lists, k, b_cap, error) reaching each check of
    pipeline_core but |X_u|'s, which the structure check leaves
    unreachable (test_reduce_lists_checks calls it), and H1's greedy dead
    ends, all on range lists, which the compiled entry reads."""
    k5 = list(combinations(range(5), 2))
    wide = ListAssignment([range(i, 13) for i in range(4)])
    return [
        # vertex 1 of the path 0 - 1 - 2 has two A-neighbors, k = 2 allows one
        (Graph(3, [(0, 1), (1, 2)]), ListAssignment.uniform_range(3, 8), 2, 2,
         ("structure", "vertex 1 has 2 A-neighbors, expected 1..1")),
        # C-vertices 7 and 8 have three B-neighbors, k = 2 and b = 2 allow two
        (Graph(9, [(0, 1), (0, 4), (0, 5), (1, 4), (1, 6), (2, 3), (2, 6), (2, 7), (2, 8),
                   (3, 7), (3, 8), (4, 8), (5, 7), (5, 8), (6, 7)]),
         ListAssignment.uniform_range(9, 8), 2, 2,
         ("structure", "C-vertex 7 has 3 B-neighbors, expected 2..2")),
        # A-vertices 2 and 8 have one color, k = 3 and b = 2 need six
        (Graph(9, [(0, 1), (0, 4), (2, 7), (3, 5), (3, 6), (4, 7), (4, 8), (6, 8)]),
         ListAssignment([range(1) if v in (2, 8) else range(8) for v in range(9)]), 3, 2,
         ("color_h1", "list of 2 has 1 colors, need 6")),
        # B-vertex 4 and its B-neighbors 5 and 6 have the witnesses 0, 1
        # and 2 of their A-neighbors 0, 1 and 2; k = 2 and b = 2 allow two
        (Graph(8, [(0, 4), (1, 5), (2, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 7)]),
         ListAssignment([range(a, a + 4) for a in range(4)] + [range(6)] * 4), 2, 2,
         ("reduce_lists", "|Y_4| = 3 exceeds (k-1)(b-1)+1")),
        # the one color of B-vertex 2 is the witness of its A-neighbor 0
        (Graph(4, [(0, 2), (0, 3), (2, 3)]),
         ListAssignment([range(4), range(4), range(1), range(4)]), 3, 1,
         ("reduce_lists", "vertex 2 left with empty list")),
        # a B-vertex on each pair of A = {0..4} asks for a proper coloring
        # of K5 from four colors: greedy is stuck at 4, the solver too
        (Graph(15, [(a, 5 + i) for i, pair in enumerate(k5) for a in pair]),
         ListAssignment.uniform_range(15, 4), 3, 1,
         ("color_h1", "A-core hypergraph is uncolorable")),
        # A-vertex 4 shares a B-vertex with each of 0..3, whose first
        # colors 0..3 are its whole list: greedy is stuck, the solver is
        # not.  A-vertex i has the range i..12 without i + 1..9
        (Graph(9, [(i, 5 + i) for i in range(4)] + [(4, 5 + i) for i in range(4)]),
         ListAssignment._from_sorted(
             [wide.without(i, set(range(i + 1, 10))) for i in range(4)] + [range(4)] * 5
         ), 3, 1, None),
    ]


def test_pipeline_core_checks_on_both_backends():
    # the compiled entry runs every check itself and hands H1's dead ends
    # to the pure kernel, which falls back to the exact solver
    for g, lists, k, b_cap, error in _core_cases():
        core, in_c = _same_core(*g.csr, lists, k, b_cap)
        assert core.error == error
        dead_end = error is None or "uncolorable" in error[1]
        assert in_c != dead_end or kernels.BACKEND != "compiled"
    assert core.f1 == {0: 10, 1: 1, 2: 2, 3: 3, 4: 0} and core.h2 is None
    # X_2 u Y_2 = {0, 1} does not empty B-vertex 2's list {0, 2}, the
    # range 0..2 without 1: a removed color is no color of the list
    g = Graph(4, [(0, 2), (1, 2), (0, 3), (2, 3)])
    reduced = ListAssignment([range(3)] * 4).without(2, {1})
    lists = ListAssignment._from_sorted([range(4), range(4), reduced, range(4)])
    core, in_c = _same_core(*g.csr, lists, 3, 1)
    assert core.error is None and core.removed == [(frozenset({0, 1}), frozenset({0}))]
    assert in_c or kernels.BACKEND != "compiled"


def test_pipeline_core_declines_to_the_pure_kernel():
    # range lists run in C; one explicit list, colors of 2^63 or more,
    # in an explicit list or a range, and a k above INT_MAX are the pure
    # kernel's
    g = Graph(4, [(0, 2), (0, 3), (2, 3)])
    core, in_c = _same_core(*g.csr, ListAssignment([range(4)] * 4), 3, 1)
    assert in_c == (kernels.BACKEND == "compiled")
    for last, k in (((0, 1, 2, 3), 3), (tuple(range(2**63 - 2, 2**63 + 2)), 3),
                    (range(2**70, 2**70 + 4), 3), (range(4), 2**40)):
        lists = ListAssignment([range(4)] * 3 + [last])
        core, in_c = _same_core(*g.csr, lists, k, 1)
        assert not in_c
    assert core.error == ("color_h1", f"list of 0 has 4 colors, need {2**40 + 1}")


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_pipeline_core_refuses_what_it_cannot_read(backend):
    core = kernels.pipeline_core if backend == "active" else pure.pipeline_core
    lists = ListAssignment.uniform_range(2, 8)
    for start, vert in (([], []), ([1, 1], [0]), ([0, 2, 1], [1, 0])):
        with pytest.raises(ValueError, match="CSR starts must rise"):
            core(array("i", start), array("i", vert), lists, 3, 2)
    for rows, row in (([[1], [3]], 1), ([[-1], [0]], 0), ([[], [2**31 - 1]], 1)):
        with pytest.raises(ValueError, match=f"^CSR row {row} names a vertex outside"):
            core(*_csr(rows), lists, 3, 2)
        # the lists are checked before the rows
        with pytest.raises(ValueError, match="^lists must cover every vertex$"):
            core(*_csr(rows), ListAssignment.uniform_range(3, 8), 3, 2)


_PIPELINE_CORE_OUT_OF_MEMORY = """
import resource
from array import array
from cfcolor import kernels
from cfcolor.coloring import ListAssignment
assert kernels.BACKEND == "compiled"
n = 1 << 22
start, vert = array("i", [0]) * (n + 1), array("i")
lists = ListAssignment.uniform_range(n, 4)
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + 60 * n, size + 60 * n))
try:
    kernels.pipeline_core(start, vert, lists, 3, 2)
except MemoryError as exc:
    print(exc)
"""


@requires_compiled
def test_pipeline_core_out_of_memory_is_a_memory_error():
    # 2^22 isolated vertices: the blocks allocated in Python take about 40
    # bytes a vertex, and C's scratch 40 more, so an address space 60
    # bytes a vertex above the input's holds the first but not the second
    done = run_python(_PIPELINE_CORE_OUT_OF_MEMORY, timeout=120)
    assert done.stdout == "pipeline_core on 4194304 vertices ran out of memory\n"


_NEAR_UNIFORM_OUT_OF_MEMORY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from cfcolor import kernels
from cfcolor.coloring import ListAssignment
from cfcolor.graphs import Hypergraph
assert kernels.BACKEND == "compiled"
edge = tuple(range(129))
h = Hypergraph._from_sorted(129, [edge] * 80000)
try:
    kernels.near_uniform(h, ListAssignment.uniform_range(129, 200), 1, 10)
except MemoryError as exc:
    print(exc)
"""


@requires_compiled
def test_near_uniform_out_of_memory_is_a_memory_error():
    # 80,000 copies of an edge of 129 vertices pass as 41 MB of vertex
    # ints, but their count tables of 512 slots each take 492 MB, which
    # with the incidence is past the 512 MiB address space: the
    # allocation fails before any draw
    done = run_python(_NEAR_UNIFORM_OUT_OF_MEMORY, timeout=120)
    assert done.stdout == "near_uniform on 129 vertices ran out of memory\n"


_RANGE_LISTS_IN_BOUNDED_MEMORY = """
import contextlib, io, resource
from random import Random
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from cfcolor import cli, fileio, graphs
g, _ = graphs.line_graph(graphs.random_graph(60, 0.3, Random(1)))
assert g.n == 518
open(%r, "w").write(fileio.format_graph(g))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["pipeline", "--graph", %r, "--lists", "RANGE:1000000", "--seed", "1",
                  "--scaled", "--out", %r, "--trace", %r]),
        cli.main(["verify", "--graph", %r, "--coloring", %r, "--lists", "RANGE:1000000"]),
    ]
print(codes)
"""


def test_pipeline_range_lists_in_bounded_memory(tmp_path):
    # the reduced B-vertex lists keep a range and the few colors struck
    # from it, not a million colors each, so CI's 518-vertex line graph is
    # colored from RANGE:1000000 within 512 MiB, without delegating
    graph, out, trace = (str(tmp_path / name) for name in ("lg.txt", "col.txt", "trace.txt"))
    script = _RANGE_LISTS_IN_BOUNDED_MEMORY % (graph, graph, out, trace, graph, out)
    done = run_python(script, timeout=120)
    assert done.stdout == "[0, 0]\n"
    lines = (tmp_path / "trace.txt").read_text().splitlines()
    assert "delegated no" in lines
