"""The two kernel entries, each with a C backend in ``_kernel.c`` and a
pure-Python one in ``_kernel_py``:

- ``solve_cf``, the conflict-free search: it prepares the input and calls
  ``search`` with flat arrays;
- ``max_star``, the largest induced star of a graph, from its adjacency
  rows.

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

Status codes of the search: 0 = solution found, 1 = exhausted (no
solution), 2 = node budget exceeded, 3 = out of memory (C kernel only).
``max_star`` returns (status, t) with status 0 = done or 3 = out of
memory (C kernel only); both backends raise ValueError for a row that
names a vertex outside [0, n) or its own vertex.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from array import array
from itertools import accumulate, chain

from cfcolor import _kernel_py

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "_kernel.c")
COMPILE_FLAGS = ("-O2", "-shared", "-fPIC")
# node counts are C long longs; clamping the budget here changes no result,
# because no search gets near this many nodes
MAX_BUDGET = 2**62

_int = ctypes.c_int
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
    """(backend, search, max_star): the C kernels built into cache_dir, or
    the pure-Python kernels when they cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build(cache_dir, compiler))
    except OSError:  # no compiler, failed compile, unwritable cache, bad library
        return "pure-python", _kernel_py.search, _kernel_py.max_star
    return "compiled", _bind(lib), _bind_max_star(lib)


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
        return status, out.tolist() if status == 0 else None, nodes[0]

    return search


def _bind_max_star(lib):
    """``_kernel_py.max_star`` on the C function of lib."""
    c_max_star = lib.max_star
    c_max_star.argtypes = [_int, _ptr, _ptr, _ptr]
    c_max_star.restype = _int

    def max_star(adj):
        start = array("i", accumulate(map(len, adj), initial=0))
        flat = array("i", chain.from_iterable(adj))
        out = array("i", [0])
        status = c_max_star(len(adj), _address(start), _address(flat), _address(out))
        if status == 4:  # row out[0] is not a simple graph's
            raise ValueError(_kernel_py.BAD_ROW.format(out[0]))
        return status, out[0]

    return max_star


BACKEND, search, max_star = load(os.path.join(HERE, "__pycache__"))


def solve_cf(n, edges, lists, require_total, budget, uncolored_first=True):
    """(status, assignment, nodes) of the conflict-free search over the
    edges with per-vertex lists of dense colors; assignment[v] is v's
    color or -1 for uncolored.

    A vertex outside [0, n) or a negative color raises ValueError before
    an empty edge, which never has a unique color, answers "no".  When
    every list equals the first the search is color-symmetric and gets
    the shared list once.  ``search`` is looked up at call time, so a
    test can swap backends.
    """
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
