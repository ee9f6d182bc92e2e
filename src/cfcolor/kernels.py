"""Kernel selection: compiled extension when available, else pure Python.

Both backends implement the identical search (same branching order, same
pruning), so any result is independent of which one got picked.
"""

from __future__ import annotations

from cfcolor import _kernel_py

try:
    from cfcolor import _speedups as _impl

    COMPILED = True
except ImportError:  # pragma: no cover - depends on the build
    _impl = _kernel_py
    COMPILED = False

solve_cf = _impl.solve_cf
exact_one = _impl.exact_one

BACKEND = "compiled" if COMPILED else "pure-python"
