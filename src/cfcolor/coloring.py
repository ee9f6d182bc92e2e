"""Color lists and partial colorings.

Colors are opaque non-negative integers; equality is their only semantic
operation.  Lists are either explicit sorted sets or implicit contiguous
ranges [lo, hi), held as `range` objects, or such a range without a few
colors, held as a `ReducedRange` -- the latter two avoid materializing the
huge lists the randomized pipeline works with.

A `ListAssignment` holds each distinct list once, as a palette, and each
vertex's palette index: which vertices share a list is decided there.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right


class ReducedRange:
    """The colors of the range `span` (step 1) without `removed`, an
    ascending tuple of colors inside it: what ListAssignment.without
    returns for a range list, in memory of the removed colors only.

    It indexes, slices, measures, tests membership and iterates like the
    tuple of its colors.  Removed colors at either end of the span shrink
    it instead, so that equal color sets have equal spans and removed
    colors, and compare and hash alike.  Index i is lo + i + j, lo the
    span's start and j the number of removed colors x_t with
    x_t - t <= lo + i (these do not fall as t grows), as the C kernel
    indexes it.
    """

    __slots__ = ("span", "removed", "_shifted")

    def __init__(self, span, removed):
        lo, hi, i, j = span.start, span.stop, 0, len(removed)
        while i < j and removed[i] == lo:
            i, lo = i + 1, lo + 1
        while i < j and removed[j - 1] == hi - 1:
            j, hi = j - 1, hi - 1
        self.span = range(lo, hi)
        self.removed = tuple(removed[i:j])
        self._shifted = tuple(x - t for t, x in enumerate(self.removed))

    def __len__(self):
        return len(self.span) - len(self.removed)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        size = len(self)
        if not -size <= i < size:
            raise IndexError("ReducedRange index out of range")
        c = self.span.start + i % size
        return c + bisect_right(self._shifted, c)

    def __contains__(self, c):
        if c not in self.span:
            return False
        i = bisect_left(self.removed, c)
        return i == len(self.removed) or self.removed[i] != c

    def __iter__(self):
        lo = self.span.start
        for x in self.removed:
            yield from range(lo, x)
            lo = x + 1
        yield from range(lo, self.span.stop)

    def __eq__(self, other):
        return (
            isinstance(other, ReducedRange)
            and self.span == other.span
            and self.removed == other.removed
        )

    def __hash__(self):
        return hash((self.span, self.removed))

    def __repr__(self):
        return f"ReducedRange({self.span!r}, {self.removed!r})"


def _checked(e):
    """The list e: a range of step 1 as it is, else a sorted tuple."""
    if isinstance(e, range):
        # range(0, 1) == range(0, 1, 5): only step 1 is a list
        if e.step != 1:
            raise ValueError("implicit range lists must have step 1")
        # len() of a longer range raises OverflowError
        if e.stop - e.start > sys.maxsize:
            raise ValueError(f"implicit range lists hold at most {sys.maxsize} colors")
    else:
        e = tuple(sorted(set(e)))
    if not e:
        raise ValueError("every list must be non-empty")
    if e[0] < 0:
        raise ValueError("colors must be non-negative")
    return e


class ListAssignment:
    """Per-vertex color list: `palettes`, the distinct lists in first-use
    order, equal lists once, and `which[v]`, the index of v's list there.

    A list is a sorted tuple of colors or a `range` with step 1 for the
    implicit list {lo, .., hi-1}; `without` and `_from_sorted` also give
    ReducedRanges.  All three index, slice, measure and test membership
    alike, so the accessors need no case split.
    """

    __slots__ = ("n", "palettes", "which")

    def __init__(self, entries):
        self._index(map(_checked, entries))

    def _index(self, entries):
        """Set palettes and which from the vertices' lists; returns self."""
        index = {}
        self.which = array("i", [index.setdefault(e, len(index)) for e in entries])
        self.palettes, self.n = tuple(index), len(self.which)
        return self

    @classmethod
    def _from_sorted(cls, entries):
        """The assignment with lists `entries`, which the caller has
        already checked to be non-empty: sorted, duplicate-free tuples of
        non-negative colors, or ReducedRanges."""
        return cls.__new__(cls)._index(entries)

    @classmethod
    def _shared(cls, n, colors):
        """n vertices with the one checked list `colors`."""
        lists = cls.__new__(cls)
        lists.which = array("i", [0]) * n
        lists.n = len(lists.which)
        lists.palettes = (colors,) if lists.n else ()
        return lists

    @classmethod
    def uniform(cls, n, colors):
        return cls._shared(n, _checked(tuple(colors)) if n > 0 else None)

    @classmethod
    def uniform_range(cls, n, size, lo=0):
        return cls._shared(n, _checked(range(lo, lo + size)))

    def size(self, v):
        return len(self.palettes[self.which[v]])

    def colors(self, v):
        """Colors of L_v, ascending."""
        return self.palettes[self.which[v]]

    def contains(self, v, color):
        return color in self.palettes[self.which[v]]

    def sample(self, v, rng):
        """Uniform color from L_v."""
        e = self.palettes[self.which[v]]
        return e[rng.randrange(len(e))]

    def without(self, v, removed):
        """L_v minus `removed`: a ReducedRange for a range list, whose
        cost is the removed colors it holds, not the colors kept, and a
        sorted tuple for any other list."""
        e = self.palettes[self.which[v]]
        if not isinstance(e, range):
            return tuple(c for c in e if c not in removed)
        return ReducedRange(e, sorted({c for c in removed if c in e}))

    def is_k_assignment(self, k):
        return all(len(e) == k for e in self.palettes)

    def restrict(self, vertices):
        """Lists of the given vertices, in the given order."""
        return ListAssignment(map(self.colors, vertices))

    def __eq__(self, other):
        same = isinstance(other, ListAssignment) and self.palettes == other.palettes
        return same and self.which == other.which

    def __hash__(self):
        return hash((self.palettes, self.which.tobytes()))

    def __repr__(self):
        return f"ListAssignment(n={self.n})"


class PartialColoring:
    """Immutable map from a subset of vertices to colors."""

    __slots__ = ("_map",)

    def __init__(self, mapping=()):
        m = dict(mapping)
        for v, c in m.items():
            if c < 0:
                raise ValueError("colors must be non-negative")
        self._map = m

    @property
    def domain(self):
        return self._map.keys()

    def get(self, v):
        return self._map.get(v)

    def __contains__(self, v):
        return v in self._map

    def __getitem__(self, v):
        return self._map[v]

    def __len__(self):
        return len(self._map)

    def items(self):
        return self._map.items()

    def union(self, other):
        """Combined coloring; domains must be disjoint."""
        overlap = self._map.keys() & other._map.keys()
        if overlap:
            raise ValueError(f"colorings overlap on vertices {sorted(overlap)}")
        merged = dict(self._map)
        merged.update(other._map)
        return PartialColoring(merged)

    def __eq__(self, other):
        return isinstance(other, PartialColoring) and self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        body = ", ".join(f"{v}:{c}" for v, c in sorted(self._map.items()))
        return f"PartialColoring({{{body}}})"
