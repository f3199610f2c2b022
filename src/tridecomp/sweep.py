"""Class sweeps: extremal augmentation counts over all triangulated cycles.

A maximal outerplanar graph of order n is a triangulation of the n-cycle,
coded by its chord set (MopCode); enumerate_mops, the one bound on a
sweep's order, lists all Catalan(n - 2) of them in chord-set order.
epsilon_class_exact and xi_class_exact run ``augment``'s level climb on
one member at a time, in that order, so at most two cover solver
instances are alive at once.  Only the ``sweep`` subcommand loads this
module.  MopCode checks chord crossings with the test in ``graph_core``.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable

from . import graph_core
from .augment import _least_level
from .graph_core import (DomainError, EdgeKey, InvariantViolation, Multigraph, ScaleLimit,
                         _check_int, _crossing_chords, _shown)

# Order ceiling of the class sweeps where TRIDECOMP_SWEEP_CEILING is unset.
DEFAULT_SWEEP_CEILING = 12


class MopCode(namedtuple("MopCode", "order chords")):
    """A maximal outerplanar graph as its chord set over the standard cycle.

    Vertices 0..order-1 form the outer cycle in numeric order; chords, kept
    sorted, must be pairwise non-crossing and exactly order-3 of them.
    """

    __slots__ = ()

    def __new__(cls, order: int, chords: Iterable[EdgeKey]) -> "MopCode":
        _check_int(order, least=3)
        chords = tuple(sorted(chords))
        n = order
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
        pairs.extend(self.chords)
        return Multigraph.from_edges(self.order, pairs)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "chords": [[e.u, e.v] for e in self.chords],
        }


def enumerate_mops(n: int) -> list[MopCode]:
    """Every triangulation of the labelled n-cycle, sorted by chord set.

    ScaleLimit, before anything is listed, above TRIDECOMP_SWEEP_CEILING,
    read at each call (default DEFAULT_SWEEP_CEILING), or past STEP_LIMIT
    codes, counted by the Catalan recurrence up to the limit.
    """
    _check_int(n)
    env = os.environ.get("TRIDECOMP_SWEEP_CEILING", DEFAULT_SWEEP_CEILING)
    try:
        ceiling = int(env)
    except ValueError:
        raise DomainError(f"TRIDECOMP_SWEEP_CEILING must be an integer, got {_shown(env)}")
    if n > ceiling:
        raise ScaleLimit(f"order {n} exceeds the sweep ceiling {ceiling}")
    _check_int(n, least=3)
    count = 1
    for k in range(1, n - 1):  # count = Catalan(k)
        count = count * (4 * k - 2) // (k + 1)
        if count > graph_core.STEP_LIMIT:
            raise graph_core._step_limit("triangulation listing")

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


def _rechecked(n: int, best: tuple[int, MopCode]) -> tuple[int, MopCode]:
    """best with its witness rebuilt through the MopCode checks that the listing skips."""
    try:
        return best[0], MopCode(n, best[1].chords)
    except DomainError as exc:
        raise InvariantViolation(f"sweep witness: {exc}") from exc


def epsilon_class_exact(n: int) -> tuple[int, MopCode]:
    """Least augmentation count over all order-n triangulated cycles.

    Returns the count and the first witness in chord-set order.  Each graph
    climbs only below the best level so far, and the sweep stops at the
    first graph that hits the class residue n mod 3 (the residue of the
    shared size 2n - 3), below which no level exists.
    """
    best = None
    for code in enumerate_mops(n):
        hit = _least_level(code.graph(), None, None if best is None else best[0])
        if hit is not None:
            best = hit[0], code
            if best[0] == n % 3:
                break
    return _rechecked(n, best)


def xi_class_exact(n: int) -> tuple[int, MopCode]:
    """Largest augmentation count over order-n triangulated cycles, one copy cap.

    Every graph in the class admits a capped augmentation (doubling all
    chords works: the polygon faces then cover everything), so every graph
    climbs to its own count; the greatest is witnessed by its first graph
    in chord-set order.  A graph whose climb finds no level is a bug.
    """
    best = None
    for code in enumerate_mops(n):
        hit = _least_level(code.graph(), 1)
        if hit is None:
            raise InvariantViolation(f"no capped level for chords {code.to_json_dict()['chords']}")
        if best is None or hit[0] > best[0]:
            best = hit[0], code
    return _rechecked(n, best)
