"""The kernel entries of ``_kernel.c``; the first two also have a
pure-Python backend in ``_kernel_py``:

- ``solve_cf``, the conflict-free search: it prepares the input and calls
  ``search`` with flat arrays;
- ``max_star(start, vert)``, the largest induced star of a graph, from
  its CSR adjacency arrays (``Graph.csr``);
- ``read_graph(text)``, a graph file exactly as ``fileio.format_graph``
  writes it, read into those CSR arrays with every row sorted.  It is
  None on the pure-Python backend, where ``fileio`` reads every graph
  file record by record.

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
vertex.  ``read_graph`` returns (start, vert), or None when it declines
the text: any other text, a self-loop or a duplicate edge.  It checks
the header here and sizes the block that C fills from the header's
counts only when the text can back them: N at most the text's length,
M at most a sixth of it.  Any entry whose allocation fails raises
MemoryError; this module is the only one that reads a C status.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from array import array

from cfcolor import _kernel_py

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "_kernel.c")
COMPILE_FLAGS = ("-O2", "-shared", "-fPIC")
# node counts are C long longs; clamping the budget here changes no result,
# because no search gets near this many nodes
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
    build at the same time never load a half-written file.
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
    return path


def load(cache_dir, compiler="cc"):
    """(backend, search, max_star, read_graph): the C kernels built into
    cache_dir, or the pure-Python kernels, with no graph reader, when they
    cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build(cache_dir, compiler))
    except OSError:  # no compiler, failed compile, unwritable cache, bad library
        return "pure-python", _kernel_py.search, _kernel_py.max_star, None
    return "compiled", _bind(lib), _bind_max_star(lib), _bind_read_graph(lib)


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


def _bind_read_graph(lib):
    """``read_graph`` on the C function of lib, which reads the UTF-8
    bytes of the text after the header into a block allocated here."""
    c_read = lib.read_graph
    c_read.argtypes = [ctypes.c_char_p, ctypes.c_size_t, ctypes.c_size_t, _int, _int, _ptr]
    c_read.restype = _int

    def read_graph(text):
        # the header line with its newline, empty when there is none; the
        # text rebuilt from its counts declines what int() reads but
        # format_graph does not write: signs, zeros, '_', other digits
        head = text[:text.find("\n") + 1]
        try:
            _, _, n, m = head.split(" ")
            n, m = int(n), int(m)
        except ValueError:
            return None
        if (head != f"p graph {n} {m}\n" or not 1 <= n <= min(len(text), INT_MAX)
                or not 1 <= m <= min(len(text) // 6, INT_MAX // 2)):
            return None
        # a lone surrogate passes as bytes that no accepted text holds
        data = text.encode("utf-8", "surrogatepass")
        block = array("i", [0]) * (n + 2 + 4 * m)
        if c_read(data, len(data), len(head), n, m, _address(block)):
            return None
        return block[:n + 1], block[n + 2:n + 2 + 2 * m]

    return read_graph


BACKEND, search, max_star, read_graph = load(os.path.join(HERE, "__pycache__"))


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
