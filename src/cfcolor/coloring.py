"""Color lists and partial colorings.

Colors are opaque non-negative integers; equality is their only semantic
operation.  Lists are either explicit sorted sets or implicit contiguous
ranges [lo, hi), held as `range` objects -- the latter avoids
materializing the huge lists the randomized pipeline works with.
"""

from __future__ import annotations

import sys


class ListAssignment:
    """Per-vertex color list.

    Each entry is either a sorted tuple of colors or a `range` with step
    1 for the implicit list {lo, .., hi-1}.  Both index, slice, measure and
    test membership alike, so the accessors need no case split.
    """

    __slots__ = ("n", "_entries")

    def __init__(self, entries):
        normalized = []
        for e in entries:
            if isinstance(e, range):
                # range(0, 1) == range(0, 1, 5): only step 1 is a list
                if e.step != 1:
                    raise ValueError("implicit range lists must have step 1")
                # len() of a longer range raises OverflowError
                if e.stop - e.start > sys.maxsize:
                    raise ValueError(
                        f"implicit range lists hold at most {sys.maxsize} colors"
                    )
                colors = e
            else:
                colors = tuple(sorted(set(e)))
            if not colors:
                raise ValueError("every list must be non-empty")
            if colors[0] < 0:
                raise ValueError("colors must be non-negative")
            normalized.append(colors)
        self.n = len(normalized)
        self._entries = tuple(normalized)

    @classmethod
    def _from_sorted(cls, entries):
        """The assignment with lists `entries`, which the caller has
        already checked to be non-empty, sorted, duplicate-free tuples of
        non-negative colors."""
        lists = cls.__new__(cls)
        lists._entries = tuple(entries)
        lists.n = len(lists._entries)
        return lists

    @classmethod
    def uniform(cls, n, colors):
        colors = tuple(sorted(set(colors)))
        return cls([colors] * n)

    @classmethod
    def uniform_range(cls, n, size, lo=0):
        return cls([range(lo, lo + size)] * n)

    def size(self, v):
        return len(self._entries[v])

    def colors(self, v):
        """Colors of L_v, ascending."""
        return self._entries[v]

    def contains(self, v, color):
        return color in self._entries[v]

    def sample(self, v, rng):
        """Uniform color from L_v."""
        e = self._entries[v]
        return e[rng.randrange(len(e))]

    def without(self, v, removed):
        """L_v minus `removed`, as an explicit sorted tuple.  A range list
        is cut at the removed colors it contains, so the time goes to
        copying the colors kept, not to testing each of them."""
        e = self._entries[v]
        if not isinstance(e, range):
            return tuple(c for c in e if c not in removed)
        kept, lo = [], e.start
        for c in sorted(c for c in removed if c in e):
            kept += range(lo, c)
            lo = c + 1
        kept += range(lo, e.stop)
        return tuple(kept)

    def is_k_assignment(self, k):
        return all(self.size(v) == k for v in range(self.n))

    def restrict(self, vertices):
        """Entries for the given vertices, in the given order."""
        return ListAssignment([self._entries[v] for v in vertices])

    def __eq__(self, other):
        return (
            isinstance(other, ListAssignment) and self._entries == other._entries
        )

    def __hash__(self):
        return hash(self._entries)

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
