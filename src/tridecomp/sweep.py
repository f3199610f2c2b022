"""Class sweeps: extremal augmentation counts over all triangulated cycles.

A maximal outerplanar graph of order n is a triangulation of the n-cycle,
coded by its chord set (MopCode); enumerate_mops lists all Catalan(n - 2)
of them in chord-set order.  epsilon_class_exact and xi_class_exact run the
per-graph level climb of ``augment`` on one member at a time, in that
order, so each member's cover solver instance is freed as the sweep moves
on and at most two are alive at once: the least count over the class, and
the largest when at most one extra copy per edge is allowed.  Only the ``sweep`` subcommand loads this module.
MopCode checks chord crossings with the test in ``graph_core``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .augment import _least_level
from .graph_core import DomainError, EdgeKey, Multigraph, ScaleLimit, _check_int, _crossing_chords

# Default order ceiling for the class sweeps when the caller gives none.
DEFAULT_SWEEP_CEILING = 12


class MopCode(namedtuple("MopCode", "order chords")):
    """A maximal outerplanar graph as its chord set over the standard cycle.

    Vertices 0..order-1 form the outer cycle in numeric order; chords, kept
    sorted, must be pairwise non-crossing and exactly order-3 of them.
    """

    __slots__ = ()

    def __new__(cls, order: int, chords: Iterable[EdgeKey]) -> "MopCode":
        _check_int(order)
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


def enumerate_mops(n: int) -> list[MopCode]:
    """Every triangulation of the labelled n-cycle, sorted by chord set."""
    _check_int(n)
    if n < 3:
        raise DomainError(f"order must be >= 3, got {n}")

    def fill(i: int, j: int) -> list[list[tuple[int, int]]]:
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


def _check_sweep_order(n: int, ceiling: int | None) -> None:
    """Refuse a non-integer order or ceiling with DomainError, an order above it with ScaleLimit."""
    _check_int(n)
    if ceiling is not None:
        _check_int(ceiling, "sweep ceiling")
        if n > ceiling:
            raise ScaleLimit(f"order {n} exceeds the sweep ceiling {ceiling}")


def epsilon_class_exact(n: int, ceiling: int | None = None) -> tuple[int, MopCode]:
    """Least augmentation count over all order-n triangulated cycles.

    Returns the count and the first witness in chord-set order.  Each graph
    climbs only below the best level so far, and the sweep stops at the
    first graph that hits the class residue n mod 3 (the residue of the
    shared size 2n - 3), below which no level exists.
    """
    _check_sweep_order(n, ceiling)
    best = None
    for code in enumerate_mops(n):
        hit = _least_level(code.graph(), None, None if best is None else best[0])
        if hit is not None:
            best = hit[0], code
            if best[0] == n % 3:
                break
    return best


def xi_class_exact(n: int, ceiling: int | None = None) -> tuple[int, MopCode]:
    """Largest augmentation count over order-n triangulated cycles, one copy cap.

    Every graph in the class admits a capped augmentation (doubling all
    chords works: the polygon faces then cover everything), so every graph
    climbs to its own count; the greatest is witnessed by its first graph
    in chord-set order.  A graph whose climb finds no level is skipped.
    """
    _check_sweep_order(n, ceiling)
    best = None
    for code in enumerate_mops(n):
        hit = _least_level(code.graph(), 1)
        if hit is not None and (best is None or hit[0] > best[0]):
            best = hit[0], code
    return best
