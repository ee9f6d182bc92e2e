"""Kernel selection: the C kernel of ``_kernel.c`` when it builds, else
the pure-Python kernel of ``_kernel_py``.

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
fails, the pure-Python kernel is used.  ``BACKEND`` says which backend is
active.  ``exact_one``, the search behind PIMDS, PIDS and the 1-in-3
oracle, is one call of that search with the single color 0, so it tries
"not a member" first.

Status codes: 0 = solution found, 1 = exhausted (no solution), 2 = node
budget exceeded, 3 = out of memory (C kernel only).
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
    """(backend, solve_cf): the C kernel built into cache_dir, or the
    pure-Python kernel when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build(cache_dir, compiler))
    except OSError:  # no compiler, failed compile, unwritable cache, bad library
        return "pure-python", _kernel_py.solve_cf
    return "compiled", _bind(lib)


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
    """A Python function with the contract of ``_kernel_py.solve_cf``
    around the C function of lib."""
    c_solve = lib.solve_cf
    c_solve.argtypes = [_int, _int] + [_ptr] * 5 + [_int] * 4 + [ctypes.c_longlong, _ptr, _ptr]
    c_solve.restype = _int

    def solve_cf(n, edges, lists, require_total, symmetric, budget, uncolored_first=True):
        """Same contract and search order as ``_kernel_py.solve_cf``."""
        edge_start, edge_vert = _csr(edges)
        if symmetric and n:
            # identical lists: pass the shared one once
            colors = list(lists[0])
            lo, hi = [0] * n, [len(colors)] * n
        else:
            start, colors = _csr(lists)
            lo, hi = start[:-1], start[1:]
        _kernel_py.check_input(n, edge_vert, colors)
        num_colors = max(colors, default=-1) + 1
        # the buffers stay referenced here until the C call returns
        inputs = [array("i", a) for a in (edge_start, edge_vert, lo, hi, colors)]
        out = array("i", [0]) * n
        nodes = array("q", [0])
        status = c_solve(
            n, len(edges), *map(_address, inputs), num_colors,
            bool(require_total), bool(symmetric), bool(uncolored_first),
            min(max(budget, 0), MAX_BUDGET), _address(out), _address(nodes),
        )
        return status, out.tolist() if status == 0 else None, nodes[0]

    return solve_cf


BACKEND, solve_cf = load(os.path.join(HERE, "__pycache__"))


def exact_one(n, sets, budget):
    """A vertex subset hitting every set exactly once, as
    (status, members, nodes).

    A set has a unique color under a partial coloring with the single
    color 0 iff exactly one of its vertices is colored, so this is the
    conflict-free search with the list [0] everywhere; the members are the
    vertices colored 0, and each vertex is tried as "not a member" before
    "member".  The kernel searches the connected parts of the sets one
    after the other and stops at the first part that fails.  A vertex in
    no set is never a member.  ``solve_cf`` is looked up by name at call
    time, so a wrapper installed on it sees the search.
    """
    # the range check comes before the answer for an empty set
    _kernel_py.check_input(n, [v for s in sets for v in s], ())
    if any(not s for s in sets):
        return 1, None, 0
    status, assignment, nodes = solve_cf(n, sets, [[0]] * n, False, True, budget)
    members = None if status else [v for v, c in enumerate(assignment) if c == 0]
    return status, members, nodes
