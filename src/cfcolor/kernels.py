"""The kernel entries of ``_kernel.c``, each with its pure-Python twin in
``_kernel_py`` or its fallback in ``fileio``:

- ``solve_cf``, the conflict-free search: it prepares the input and calls
  ``search`` with flat arrays; twin ``_kernel_py.search``;
- ``max_star(start, vert)``, the largest induced star of a graph, from
  its CSR adjacency arrays (``Graph.csr``); twin ``_kernel_py.max_star``;
- ``gamma(n, start, vert)``, Gamma of a hypergraph on n vertices from its
  CSR edges (``Hypergraph.csr``), the value of
  ``graphs.hypergraph_stats``; twin ``_kernel_py.gamma``.  A vertex
  count outside [0, INT_MAX] runs the twin;
- ``near_uniform(h, lists, seed, max_rounds)``, the sample-and-resample
  loop of ``prob.near_uniform_color``, which checks its input; twin
  ``_kernel_py.near_uniform``.  The C entry continues the Mersenne
  Twister from ``random.Random(seed).getstate()``, so every draw is the
  twin's ``rng.randrange(size)``.  It declines lists with an empty entry
  or a color of 2^63 or more (TOP_COLOR) and more than INT_MAX vertices,
  edges or incidences; the twin then runs.  Rounds above MAX_BUDGET are
  clamped to it;
- ``pipeline_core(start, vert, lists, k, b_cap)``, the stages of
  ``prob.cfcn_pipeline`` that do not depend on the seed, on a graph's
  CSR adjacency (``Graph.csr``): the core A, the greedy classes, b, the
  checks, the H1 coloring, X_u and Y_u and H2, as a
  ``_kernel_py.Core``; twin ``_kernel_py.pipeline_core``.  It reads
  lists as ``near_uniform`` does and declines what that declines, a k
  outside [2, INT_MAX], a negative b_cap, arrays that C ints cannot
  index and H1's greedy dead ends, which need the exact solver; the
  twin then runs;
- ``read_graph(text)``, a graph file exactly as ``fileio.format_graph``
  writes it, read into those CSR arrays with every row sorted, and
  ``read_hypergraph(text)``, a `p hgraph` file in canonical form read
  into (n, start, vert), the CSR arrays of its sorted edges
  (``Hypergraph.csr``).  Both are None on the pure-Python backend, and
  return None for every text they decline; ``fileio``'s record loops
  read those.

Both backends implement the identical conflict-free search (same
branching order, same pruning), so any result is independent of which one
got picked.  Each decides the connected parts of the edges one after the
other and stops at the first part that fails.  A partial search tries
"uncolored" at each vertex before its list colors unless called with
``uncolored_first=False``; a sparse coloring is usually the easy one to
find.  Only searches that find something depend on that order: one over
a single part that finds nothing visits the same nodes either way.

On first import ``_kernel.c`` is compiled with ``cc`` into the package's
``__pycache__`` and loaded with ctypes; later imports reuse the cached
library.  When the compiler is missing, or building or loading
fails, the pure-Python kernels are used.  ``BACKEND`` says which backend is
active.  ``exact_one``, the search behind PIMDS, PIDS and the 1-in-3
oracle, is one ``solve_cf`` call with the single color 0, so it tries
"not a member" first.

``solve_cf`` returns (status, assignment, nodes) with status 0 =
solution found, 1 = exhausted (no solution) or 2 = node budget exceeded.
``max_star`` returns t; both backends raise ValueError, through
``_kernel_py.check_csr``, for starts that do not rise from 0 to
len(vert), and for a row that names a vertex outside [0, n) or its own
vertex.  ``gamma`` returns an int; both backends raise ValueError for
bad starts (``check_csr``), then for a row that names a vertex outside
[0, n).
``near_uniform`` returns (color by vertex, rounds) and raises
ResampleFailure at the round cap; both backends raise ValueError for an
edge that names a vertex outside [0, n), as ``gamma`` does.
``pipeline_core`` returns a Core whose ``error`` is the first failed
check; both backends raise ValueError for bad starts, lists that do not
cover every vertex and a row that names a vertex outside [0, n), in
that order.
``read_graph`` returns (start, vert), or None when it declines the text:
any other text, a self-loop or a duplicate edge.  ``read_hypergraph`` declines any other text, including
a vertex repeated in an edge.  Each reader checks the header here and
sizes the block that C fills from the header's counts only when the
text can back them: for a graph N at most the text's length and M at
most a sixth of it, for a hypergraph M at most a quarter of it and one
vertex per two bytes.  Any entry whose allocation fails raises
MemoryError; this module is the only one that reads a C status.
"""

from __future__ import annotations

import ctypes
import os
import random
import zlib
from array import array

from cfcolor import _kernel_py
from cfcolor.coloring import ReducedRange
from cfcolor.errors import ResampleFailure

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "_kernel.c")
COMPILE_FLAGS = ("-O2", "-shared", "-fPIC")
# node counts and resampling rounds are C long longs; clamping a budget or
# a round cap here changes no result, because no run gets near this many
MAX_BUDGET = 2**62

_int = ctypes.c_int
INT_MAX = 2 ** (8 * ctypes.sizeof(_int) - 1) - 1
# arrays are passed as the addresses of array.array buffers: building those
# costs a quarter of building ctypes arrays, which matters for tiny searches
_ptr = ctypes.c_void_p


def _build(cache_dir, compiler):
    """Path of the library compiled from SOURCE into cache_dir.

    The file name carries a checksum of the source and the compile
    command, so an edit to either builds a new file.  A miss compiles to a
    temporary name of its own and renames it into place, so processes that
    build at the same time never load a half-written file; then it removes
    the libraries that earlier sources or commands left in cache_dir.
    """
    with open(SOURCE, "rb") as f:
        source = f.read()
    command = (compiler, *COMPILE_FLAGS)
    key = zlib.crc32(" ".join(command).encode() + b"\0" + source)
    path = os.path.join(cache_dir, f"_kernel-{key:08x}.so")
    if os.path.exists(path):
        return path
    # imported on a miss only, so that processes loading a cached library
    # do not pay its memory
    import subprocess

    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        done = subprocess.run(
            [*command, "-o", tmp, SOURCE],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if done.returncode != 0:
            raise OSError(f"{compiler} exited with status {done.returncode}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    # another builder's temporary name does not end in .so; a process
    # that fails to load a library removed here falls back in load
    for name in os.listdir(cache_dir):
        other = os.path.join(cache_dir, name)
        if name.startswith("_kernel-") and name.endswith(".so") and other != path:
            try:
                os.remove(other)
            except OSError:  # gone already, or not ours to remove
                pass
    return path


def load(cache_dir, compiler="cc"):
    """(backend, search, max_star, gamma, near_uniform, pipeline_core,
    read_graph, read_hypergraph): the C kernels built into cache_dir, or
    the pure-Python kernels, with no file readers, when they cannot be
    built or loaded."""
    try:
        lib = ctypes.CDLL(_build(cache_dir, compiler))
    except OSError:  # no compiler, failed compile, unwritable cache, bad library
        return (
            "pure-python", _kernel_py.search, _kernel_py.max_star, _kernel_py.gamma,
            _kernel_py.near_uniform, _kernel_py.pipeline_core, None, None,
        )
    return (
        "compiled", _bind(lib), _bind_max_star(lib), _bind_gamma(lib),
        _bind_near_uniform(lib), _bind_pipeline_core(lib), _bind_read_graph(lib),
        _bind_read_hypergraph(lib),
    )


def _address(buffer):
    return buffer.buffer_info()[0]


def _csr(rows):
    """(start, flat): row i is flat[start[i]:start[i + 1]]."""
    start, flat = [0], []
    for row in rows:
        flat += row
        start.append(len(flat))
    return start, flat


def _bind(lib):
    """``_kernel_py.search`` on the C function of lib."""
    c_solve = lib.solve_cf
    c_solve.argtypes = [_int, _int] + [_ptr] * 5 + [_int] * 4 + [ctypes.c_longlong, _ptr, _ptr]
    c_solve.restype = _int

    def search(n, m, edge_start, edge_vert, list_lo, list_hi, list_color, num_colors,
               require_total, symmetric, uncolored_first, budget):
        # the buffers stay referenced here until the C call returns
        inputs = [array("i", a) for a in (edge_start, edge_vert, list_lo, list_hi, list_color)]
        out = array("i", [0]) * n
        nodes = array("q", [0])
        status = c_solve(
            n, m, *map(_address, inputs), num_colors,
            bool(require_total), symmetric, bool(uncolored_first),
            min(max(budget, 0), MAX_BUDGET), _address(out), _address(nodes),
        )
        if status == 3:
            raise MemoryError(f"solve_cf on {n} vertices ran out of memory")
        return status, out.tolist() if status == 0 else None, nodes[0]

    return search


def _bind_max_star(lib):
    """``_kernel_py.max_star`` on the C function of lib."""
    c_max_star = lib.max_star
    c_max_star.argtypes = [_int, _ptr, _ptr, _ptr]
    c_max_star.restype = _int

    def max_star(start, vert):
        if start.typecode != "i" or vert.typecode != "i":
            raise TypeError("max_star takes CSR arrays of C ints")
        _kernel_py.check_csr(start, vert)
        n = len(start) - 1
        out = array("i", [0])
        status = c_max_star(n, _address(start), _address(vert), _address(out))
        if status == 3:
            raise MemoryError(f"max_star on {n} vertices ran out of memory")
        if status == 4:
            raise ValueError(_kernel_py.BAD_ROW.format(out[0]))
        return out[0]

    return max_star


def _bind_gamma(lib):
    """``_kernel_py.gamma`` on the C function of lib; the pure kernel runs
    instead for a vertex count outside [0, INT_MAX]."""
    c_gamma = lib.hypergraph_gamma
    c_gamma.argtypes = [_int, _int, _ptr, _ptr, _ptr]
    c_gamma.restype = _int

    def gamma(n, start, vert):
        if start.typecode != "i" or vert.typecode != "i":
            raise TypeError("gamma takes CSR arrays of C ints")
        _kernel_py.check_csr(start, vert)
        if not 0 <= n <= INT_MAX:
            return _kernel_py.gamma(n, start, vert)
        out = array("i", [0])
        status = c_gamma(n, len(start) - 1, _address(start), _address(vert), _address(out))
        if status == 3:
            raise MemoryError(f"gamma on {n} vertices ran out of memory")
        if status == 4:
            raise ValueError(_kernel_py.BAD_VERTEX.format(out[0]))
        return out[0]

    return gamma


# colors at or above this are no C long long: near_uniform declines them
TOP_COLOR = 2**63


def _resampler_arrays(h, lists):
    """The arrays the C near_uniform reads, or None when it cannot
    represent the input: more than INT_MAX vertices, edges or
    incidences, or lists that _list_arrays declines.  They are h.csr,
    then _list_arrays(lists)."""
    if max(h.n, h.m) > INT_MAX:
        return None
    try:
        edge_start, edge_vert = h.csr
    except OverflowError:  # more incidences than C ints
        return None
    arrays = _list_arrays(lists)
    return None if arrays is None else (edge_start, edge_vert, *arrays)


def _list_arrays(lists):
    """(which, lo, size, off, extra), the lists as C reads them, or None
    for an empty list or a color of TOP_COLOR or more.

    Vertex v has list which[v] of size[d] colors, one per distinct entry
    object.  A range or ReducedRange list d is lo[d] >= 0 and its removed
    colors extra[off[d]:off[d + 1]]; an explicit one is lo[d] = -1 and
    its colors there."""
    entries = list(map(lists.colors, range(lists.n)))
    ids = list(map(id, entries))
    index = {key: d for d, key in enumerate(dict.fromkeys(ids))}
    which = array("i", map(index.__getitem__, ids))
    lo, size, off, extra = array("q"), array("q"), array("q", [0]), array("q")
    for e in dict(zip(ids, entries)).values():
        if not e:
            return None
        if isinstance(e, range):
            e = ReducedRange(e, ())
        if isinstance(e, ReducedRange):
            start, top, colors = e.span.start, e.span[-1], e.removed
        else:
            start, top, colors = -1, e[-1], e
        if top >= TOP_COLOR:
            return None
        lo.append(start)
        size.append(len(e))
        extra.extend(colors)
        off.append(len(extra))
    return which, lo, size, off, extra


def _bind_near_uniform(lib):
    """``_kernel_py.near_uniform`` on the C function of lib.  The pure
    kernel runs instead on input that _resampler_arrays declines;
    max_rounds is clamped to MAX_BUDGET, which no run gets near."""
    c_near = lib.near_uniform
    c_near.argtypes = [_int, _int] + [_ptr] * 8 + [ctypes.c_longlong, _ptr, _ptr]
    c_near.restype = _int

    def near_uniform(h, lists, seed, max_rounds):
        arrays = _resampler_arrays(h, lists)
        if arrays is None:
            return _kernel_py.near_uniform(h, lists, seed, max_rounds)
        state = array("I", random.Random(seed).getstate()[1])
        color = array("q", [0]) * h.n
        result = array("q", [0, 0])
        # the buffers stay referenced here until the C call returns
        status = c_near(
            h.n, h.m, *map(_address, arrays), _address(state),
            min(max_rounds, MAX_BUDGET), _address(color), _address(result),
        )
        if status == 3:
            raise MemoryError(f"near_uniform on {h.n} vertices ran out of memory")
        if status == 4:
            raise ValueError(_kernel_py.BAD_VERTEX.format(result[1]))
        if status == 2:
            raise ResampleFailure(*result)
        if status == 5:  # pragma: no cover
            raise AssertionError("resampling terminated with a bad edge")
        return color.tolist(), result[0]

    return near_uniform


def _bind_pipeline_core(lib):
    """``_kernel_py.pipeline_core`` on the C function of lib, which
    fills blocks allocated here.  The pure kernel runs instead for k
    outside [2, INT_MAX], a negative b_cap, a graph whose arrays C ints
    cannot index (2(n + 2m) > INT_MAX), lists that _list_arrays declines
    and H1's greedy dead ends, which the C entry declines."""
    c_core = lib.pipeline_core
    c_core.argtypes = [_int, _ptr, _ptr, _int, _int] + [_ptr] * 9
    c_core.restype = _int

    def pipeline_core(start, vert, lists, k, b_cap):
        if start.typecode != "i" or vert.typecode != "i":
            raise TypeError("pipeline_core takes CSR arrays of C ints")
        _kernel_py.check_csr(start, vert)
        n, items = len(start) - 1, len(vert)
        if lists.n != n:
            raise ValueError("lists must cover every vertex")
        fits = 2 <= k <= INT_MAX and b_cap >= 0 and 2 * (n + items) + 4 <= INT_MAX
        arrays = _list_arrays(lists) if fits else None
        if arrays is None:
            return _kernel_py.pipeline_core(start, vert, lists, k, b_cap)
        part = array("i", [0]) * (4 * n + 4)
        h2 = array("i", [0]) * (n + 2 + items)
        colors = array("q", [0]) * (2 * n + 2 * items)
        info = array("q", [0]) * 5
        # b = min(s, b_cap), and there are at most n classes; the buffers
        # stay referenced here until the C call returns
        status = c_core(
            n, _address(start), _address(vert), k, min(b_cap, n), *map(_address, arrays),
            _address(part), _address(h2), _address(colors), _address(info),
        )
        if status == 3:
            raise MemoryError(f"pipeline_core on {n} vertices ran out of memory")
        if status == 4:
            raise ValueError(_kernel_py.BAD_VERTEX.format(info[3]))
        if status == 1:
            return _kernel_py.pipeline_core(start, vert, lists, k, b_cap)
        return _core_result(n, k, part, h2, colors, info)

    return pipeline_core


def _core_result(n, k, part, h2, colors, info):
    """The Core of the blocks that the C pipeline_core filled."""
    s, b, check, v, count = info
    members = part[:n].tolist()
    bounds = part[n:n + s + 2].tolist()
    a_count = bounds[1]
    f1 = None
    if not 0 < check <= _kernel_py.LIST_SIZE:
        f1 = dict(zip(members[:a_count], colors[:a_count].tolist()))
    if check:
        error = _kernel_py.check_error(check, v, count, k, b).args
        return _kernel_py.Core(members, bounds, b, f1, None, None, error)
    nb, nc = bounds[b + 1] - a_count, n - bounds[b + 1]
    if not nc:
        return _kernel_py.Core(members, bounds, b, f1, None, None, None)
    # X_u and Y_u of the i-th B-vertex start at rows 2i and 2i + 1
    rows = part[2 * n + 3:2 * n + 4 + 2 * nb].tolist()
    rm = colors[n:n + rows[-1]].tolist()
    removed = [
        (frozenset(rm[rows[i]:rows[i + 1]]), frozenset(rm[rows[i + 1]:rows[i + 2]]))
        for i in range(0, 2 * nb, 2)
    ]
    edges = (h2[:nc + 1], h2[n + 2:n + 2 + h2[nc]])
    return _kernel_py.Core(members, bounds, b, f1, removed, edges, None)


def _header(text, kind):
    """(head, n, m) of a text headed `p <kind> <n> <m>` with canonical
    counts, head being that line with its newline; None for any other
    text.  The text rebuilt from the counts declines what int() reads
    but the writers do not write: signs, zeros, '_', other digits."""
    # empty when there is no newline
    head = text[:text.find("\n") + 1]
    try:
        _, _, n, m = head.split(" ")
        n, m = int(n), int(m)
    except ValueError:
        return None
    return (head, n, m) if head == f"p {kind} {n} {m}\n" else None


def _bind_read_graph(lib):
    """``read_graph`` on the C function of lib, which reads the UTF-8
    bytes of the text after the header into a block allocated here."""
    c_read = lib.read_graph
    c_read.argtypes = [ctypes.c_char_p, ctypes.c_size_t, ctypes.c_size_t, _int, _int, _ptr]
    c_read.restype = _int

    def read_graph(text):
        header = _header(text, "graph")
        if header is None:
            return None
        head, n, m = header
        if not 1 <= n <= min(len(text), INT_MAX) or not 1 <= m <= min(len(text) // 6, INT_MAX // 2):
            return None
        # a lone surrogate passes as bytes that no accepted text holds
        data = text.encode("utf-8", "surrogatepass")
        block = array("i", [0]) * (n + 2 + 4 * m)
        if c_read(data, len(data), len(head), n, m, _address(block)):
            return None
        return block[:n + 1], block[n + 2:n + 2 + 2 * m]

    return read_graph


def _bind_read_hypergraph(lib):
    """``read_hypergraph`` on the C function of lib, as read_graph: the
    block allocated here has room for M + 1 starts and one vertex per two
    bytes after the header, the least a vertex takes (` 1`)."""
    c_read = lib.read_hypergraph
    c_read.argtypes = [ctypes.c_char_p, ctypes.c_size_t, ctypes.c_size_t, _int, _int,
                       ctypes.c_size_t, _ptr]
    c_read.restype = _int

    def read_hypergraph(text):
        header = _header(text, "hgraph")
        if header is None:
            return None
        head, n, m = header
        # an edge line takes at least 4 characters, `h 1\n`
        if not 1 <= n <= INT_MAX or not 1 <= m <= min(len(text) // 4, INT_MAX):
            return None
        data = text.encode("utf-8", "surrogatepass")
        cap = (len(data) - len(head)) // 2
        block = array("i", [0]) * (m + 1 + cap)
        if c_read(data, len(data), len(head), n, m, cap, _address(block)):
            return None
        return n, block[:m + 1], block[m + 1:m + 1 + block[m]]

    return read_hypergraph


(
    BACKEND, search, max_star, gamma, near_uniform, pipeline_core, read_graph,
    read_hypergraph,
) = load(os.path.join(HERE, "__pycache__"))


def solve_cf(n, edges, lists, require_total, budget, uncolored_first=True):
    """(status, assignment, nodes) of the conflict-free search over the
    edges with per-vertex lists of dense colors; assignment[v] is v's
    color or -1 for uncolored.

    A list count other than n, a vertex outside [0, n) or a negative
    color raises ValueError before an empty edge, which never has a
    unique color, answers "no".  When
    every list equals the first the search is color-symmetric and gets
    the shared list once.  ``search`` is looked up at call time, so a
    test can swap backends.
    """
    if len(lists) != n:  # also for n < 0
        raise ValueError(f"{len(lists)} lists for {n} vertices")
    edge_start, edge_vert = _csr(edges)
    symmetric = bool(lists) and lists.count(lists[0]) == n
    if symmetric:
        list_color = list(lists[0])
        list_lo, list_hi = [0] * n, [len(list_color)] * n
    else:
        list_start, list_color = _csr(lists)
        list_lo, list_hi = list_start[:-1], list_start[1:]
    if edge_vert and (min(edge_vert) < 0 or max(edge_vert) >= n):
        raise ValueError(f"edge vertex out of range [0, {n})")
    if list_color and min(list_color) < 0:
        raise ValueError("negative color")
    if not all(edges):
        return 1, None, 0
    num_colors = max(list_color, default=-1) + 1
    return search(
        n, len(edges), edge_start, edge_vert, list_lo, list_hi, list_color,
        num_colors, require_total, symmetric, uncolored_first, budget,
    )


def exact_one(n, sets, budget):
    """A vertex subset hitting every set exactly once, as
    (status, members, nodes).

    A set has a unique color under a partial coloring with the single
    color 0 iff exactly one of its vertices is colored, so this is the
    conflict-free search with the list [0] everywhere; the members are the
    vertices colored 0, and each vertex is tried as "not a member" before
    "member".  A vertex in no set is never a member.  ``solve_cf`` is
    looked up by name at call time, so a wrapper installed on it sees the
    search.
    """
    status, assignment, nodes = solve_cf(n, sets, [[0]] * n, False, budget)
    members = None if status else [v for v, c in enumerate(assignment) if c == 0]
    return status, members, nodes
