"""Kernel selection: the C kernel of ``_kernel.c`` when it builds, else
the pure-Python kernel of ``_kernel_py``.

Both backends implement the identical conflict-free search (same
branching order, same pruning), so any result is independent of which one
got picked.  A partial search tries "uncolored" at each vertex before its
list colors unless called with ``uncolored_first=False``; a sparse
coloring is usually the easy one to find.  Only searches that find
something depend on that order: one that finds nothing visits the same
nodes either way.

On first import ``_kernel.c`` is compiled with ``cc`` into the package's
``__pycache__`` and loaded with ctypes; later imports reuse the cached
library.  When the compiler is missing, or building or loading
fails, the pure-Python kernel is used.  ``BACKEND`` says which backend is
active.  ``exact_one``, the search behind PIMDS, PIDS and the 1-in-3
oracle, is that search with the single color 0, so it tries "not a
member" first.

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
    "member".  Each connected part of the sets is searched on its own,
    under what is left of the budget: in one search, a dead end
    in one part would backtrack through every choice made in the others.
    A vertex in no set is never a member.  ``solve_cf`` is looked up by
    name at call time, so a wrapper installed on it sees every part.
    """
    # checked here too: _parts indexes its lists with the vertices
    _kernel_py.check_input(n, [v for s in sets for v in s], ())
    if any(not s for s in sets):
        return 1, None, 0
    members, nodes = [], 0
    for vertices, part_sets in _parts(n, sets):
        k = len(vertices)
        status, assignment, used = solve_cf(
            k, part_sets, [[0]] * k, False, True, budget - nodes
        )
        nodes += used
        if status != 0:
            return status, None, nodes
        members += [vertices[i] for i, c in enumerate(assignment) if c == 0]
    return 0, sorted(members), nodes


def _parts(n, sets):
    """The connected parts of the sets, by smallest vertex, each as
    (its vertices in increasing order, its sets over positions in that
    list).  Vertices in no set belong to no part."""
    incident = [[] for _ in range(n)]
    for si, s in enumerate(sets):
        for v in s:
            incident[v].append(si)
    reached = [False] * n
    taken = [False] * len(sets)
    for v in range(n):
        if reached[v] or not incident[v]:
            continue
        reached[v] = True
        vertices, part_sets = [v], []
        for u in vertices:  # grows while it is walked
            for si in incident[u]:
                if not taken[si]:
                    taken[si] = True
                    part_sets.append(sets[si])
                    for w in sets[si]:
                        if not reached[w]:
                            reached[w] = True
                            vertices.append(w)
        vertices.sort()
        position = {w: i for i, w in enumerate(vertices)}
        yield vertices, [[position[w] for w in s] for s in part_sets]
