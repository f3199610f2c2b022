"""Class sweeps: extremal augmentation counts over all triangulated cycles.

A maximal outerplanar graph of order n is a triangulation of the n-cycle,
coded by its chord set (MopCode); enumerate_mops lists all Catalan(n - 2)
of them in chord-set order.  epsilon_class_exact and xi_class_exact climb
the level ladder of ``augment`` over that whole class at once, since every
member has the same size 2n - 3: the least count over the class, and the
largest when at most one extra copy per edge is allowed.  Only the
``sweep`` subcommand loads this module.
MopCode checks chord crossings with the test in ``graph_core``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, List, Optional, Tuple

from .augment import _ladder
from .graph_core import DomainError, EdgeKey, Multigraph, ScaleLimit, _crossing_chords

# Default order ceiling for the class sweeps when the caller gives none.
DEFAULT_SWEEP_CEILING = 12


class MopCode(namedtuple("MopCode", "order chords")):
    """A maximal outerplanar graph as its chord set over the standard cycle.

    Vertices 0..order-1 form the outer cycle in numeric order; chords, kept
    sorted, must be pairwise non-crossing and exactly order-3 of them.
    """

    __slots__ = ()

    def __new__(cls, order: int, chords: Iterable[EdgeKey]) -> "MopCode":
        chords = tuple(sorted(chords))
        n = order
        if n < 3:
            raise DomainError(f"order must be >= 3, got {n}")
        if len(set(chords)) != len(chords):
            raise DomainError("duplicate chord")
        if len(chords) != n - 3:
            raise DomainError(
                f"a triangulation of an {n}-cycle has {n - 3} chords, "
                f"got {len(chords)}"
            )
        for e in chords:
            if e.v >= n:
                raise DomainError(f"chord endpoint {e.v} out of range")
            if (e.v - e.u) % n in (1, n - 1):
                raise DomainError(f"({e.u}, {e.v}) is a cycle edge, not a chord")
        crossing = _crossing_chords(chords)
        if crossing is not None:
            (a, b), (c, d) = crossing
            raise DomainError(f"chords ({a},{b}) and ({c},{d}) cross")
        return tuple.__new__(cls, (order, chords))

    def graph(self) -> Multigraph:
        pairs = [(i, (i + 1) % self.order) for i in range(self.order)]
        pairs.extend(c.as_pair() for c in self.chords)
        return Multigraph.from_edges(self.order, pairs)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "chords": [[e.u, e.v] for e in self.chords],
        }


def enumerate_mops(n: int) -> List[MopCode]:
    """Every triangulation of the labelled n-cycle, sorted by chord set."""
    if n < 3:
        raise DomainError(f"order must be >= 3, got {n}")

    def fill(i: int, j: int) -> List[List[Tuple[int, int]]]:
        # All chord sets triangulating the polygon arc i..j (j - i >= 2).
        if j - i == 1:
            return [[]]
        out = []
        for k in range(i + 1, j):
            left = fill(i, k)
            right = fill(k, j)
            extra = []
            if k - i > 1:
                extra.append((i, k))
            if j - k > 1:
                extra.append((k, j))
            for ls in left:
                for rs in right:
                    out.append(ls + rs + extra)
        return out

    # fill yields n - 3 distinct non-crossing chords (u, v), u < v: skip the checks.
    new = tuple.__new__
    codes = [new(MopCode, (n, tuple(new(EdgeKey, c) for c in sorted(chordset))))
             for chordset in fill(0, n - 1)]
    codes.sort(key=lambda c: c.chords)
    return codes


def epsilon_class_exact(n: int, ceiling: Optional[int] = None) -> Tuple[int, MopCode]:
    """Least augmentation count over all order-n triangulated cycles.

    Returns the count and the first witness in chord-set order: the level
    ladder's first hit (the class shares the size 2n - 3, so its levels).
    """
    if ceiling is not None and n > ceiling:
        raise ScaleLimit(f"order {n} exceeds the sweep ceiling {ceiling}")
    t, code, _, _ = next(_ladder(2 * n - 3, enumerate_mops(n), MopCode.graph, None))
    return t, code


def xi_class_exact(n: int, ceiling: Optional[int] = None) -> Tuple[int, MopCode]:
    """Largest augmentation count over order-n triangulated cycles, one copy cap.

    Every graph in the class admits a capped augmentation (doubling all
    chords works: the polygon faces then cover everything), so every graph
    leaves the level ladder at its own count; the last level reached is
    the maximum, witnessed by its first graph in chord-set order.
    """
    if ceiling is not None and n > ceiling:
        raise ScaleLimit(f"order {n} exceeds the sweep ceiling {ceiling}")
    hits = _ladder(2 * n - 3, enumerate_mops(n), MopCode.graph, 1)
    t, code, _, _ = next(hits)
    for level, key, _, _ in hits:
        if level > t:
            t, code = level, key
    return t, code
