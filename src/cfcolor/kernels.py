"""Kernel selection: the C kernels of ``_kernel.c`` when they build, else
the pure-Python kernels of ``_kernel_py``.

Both backends implement the identical search (same branching order, same
pruning), so any result is independent of which one got picked.  On first
import ``_kernel.c`` is compiled with ``cc`` into the package's
``__pycache__`` and loaded with ctypes; later imports reuse the cached
library.  When the compiler is missing, or building or loading fails, the
pure-Python kernels are used.  ``BACKEND`` says which backend is active.

Status codes: 0 = solution found, 1 = exhausted (no solution), 2 = node
budget exceeded, 3 = out of memory (C kernels only).
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
    """(backend, solve_cf, exact_one): the C kernels built into cache_dir,
    or the pure-Python kernels when they cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build(cache_dir, compiler))
    except OSError:  # no compiler, failed compile, unwritable cache, bad library
        return "pure-python", _kernel_py.solve_cf, _kernel_py.exact_one
    return ("compiled", *_bind(lib))


def _address(buffer):
    return buffer.buffer_info()[0]


def _csr(rows):
    """(start, flat): row i is flat[start[i]:start[i + 1]]."""
    start, flat = [0], []
    for row in rows:
        flat += row
        start.append(len(flat))
    return start, flat


def _check_range(values, limit, what):
    # the C kernels index their arrays with these values unchecked
    if values and (min(values) < 0 or max(values) >= limit):
        raise ValueError(f"{what} out of range [0, {limit})")


def _bind(lib):
    """Python functions with the contract of ``_kernel_py`` around the
    C functions of lib."""
    c_solve = lib.solve_cf
    c_solve.argtypes = [_int, _int] + [_ptr] * 5 + [_int, _int, _int, ctypes.c_longlong, _ptr, _ptr]
    c_solve.restype = _int
    c_exact = lib.exact_one
    c_exact.argtypes = [_int, _int, _ptr, _ptr, ctypes.c_longlong, _ptr, _ptr]
    c_exact.restype = _int

    def solve_cf(n, edges, lists, require_total, symmetric, budget):
        """Same contract and search order as ``_kernel_py.solve_cf``."""
        edge_start, edge_vert = _csr(edges)
        _check_range(edge_vert, n, "edge vertex")
        if symmetric and n:
            # identical lists: pass the shared one once
            colors = list(lists[0])
            lo, hi = [0] * n, [len(colors)] * n
        else:
            start, colors = _csr(lists)
            lo, hi = start[:-1], start[1:]
        num_colors = max(colors, default=-1) + 1
        if colors and min(colors) < 0:
            raise ValueError("negative color")
        # the buffers stay referenced here until the C call returns
        inputs = [array("i", a) for a in (edge_start, edge_vert, lo, hi, colors)]
        out = array("i", [0]) * n
        nodes = array("q", [0])
        status = c_solve(
            n, len(edges), *map(_address, inputs), num_colors,
            bool(require_total), bool(symmetric),
            min(max(budget, 0), MAX_BUDGET), _address(out), _address(nodes),
        )
        return status, out.tolist() if status == 0 else None, nodes[0]

    def exact_one(n, sets, budget):
        """Same contract and search order as ``_kernel_py.exact_one``."""
        set_start, set_vert = _csr(sets)
        _check_range(set_vert, n, "set member")
        inputs = [array("i", set_start), array("i", set_vert)]
        out = array("i", [0]) * n
        nodes = array("q", [0])
        status = c_exact(
            n, len(sets), *map(_address, inputs),
            min(max(budget, 0), MAX_BUDGET), _address(out), _address(nodes),
        )
        members = [v for v in range(n) if out[v]] if status == 0 else None
        return status, members, nodes[0]

    return solve_cf, exact_one


BACKEND, solve_cf, exact_one = load(os.path.join(HERE, "__pycache__"))
