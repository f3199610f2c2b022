"""Class extremes: extremal augmentation counts over all triangulated cycles.

A maximal outerplanar graph of order n is a triangulation of the n-cycle,
coded by its chord set (MopCode); enumerate_mops lists all Catalan(n - 2)
of them in chord-set order, charged 2n - 3 steps each against STEP_LIMIT,
the one bound on the epsilon sweep's order.
epsilon_class_exact runs ``augment``'s level climb on one member at a
time, in that order, so at most two cover solver instances are alive at
once, and rechecks the winning cover as an answer.  xi_class_exact runs
no search: it checks the paper's proof of its value on the envelope that
``construct fan n`` prints, through that command's answer checks and
``graph_core``'s packing bound.  Only the ``sweep`` subcommand loads this
module.  MopCode checks chord crossings with the test in ``graph_core``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from . import graph_core
from .augment import _least_level, _records
from .graph_core import (DomainError, EdgeKey, InvariantViolation, Multigraph, _check_int,
                         _crossing_chords, _packing_bound)


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

    Each code is charged its 2n - 3 edges against STEP_LIMIT, so past the
    limit ScaleLimit is raised before anything is listed; the Catalan
    recurrence counts the codes only up to the limit.  At the default
    limit orders 3..12 list (352,716 steps at 12); 13 would take 1,352,078.
    """
    _check_int(n, least=3)
    count = 1
    for k in range(1, n - 1):  # count = Catalan(k)
        count = count * (4 * k - 2) // (k + 1)
        if (2 * n - 3) * count > graph_core.STEP_LIMIT:
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


def epsilon_class_exact(n: int) -> tuple[int, MopCode]:
    """Least augmentation count over all order-n triangulated cycles.

    Returns the count and the first witness in chord-set order.  Each graph
    climbs only below the best level so far, and the sweep stops at the
    first graph that hits the class residue n mod 3 (the residue of the
    shared size 2n - 3), below which no level exists.  The best graph's
    cover is kept as its records, so no solver instance outlives its graph,
    and they are rechecked before returning.
    """
    best = None
    for code in enumerate_mops(n):
        g = code.graph()
        hit = _least_level(g, None, None if best is None else best[0])
        if hit is not None:
            t, inst, _hi, chosen = hit
            best = t, code, g, *_records(inst, chosen)
            if t == n % 3:
                break
    t, code, g, aug, cert = best
    graph_core._recheck(g, aug, cert, t)
    try:  # the witness, rebuilt through the MopCode checks that the listing skips
        return t, MopCode(n, code.chords)
    except DomainError as exc:
        raise InvariantViolation(f"sweep witness: {exc}") from exc


def xi_class_exact(n: int) -> tuple[int, MopCode]:
    """Largest augmentation count over order-n triangulated cycles, one copy cap.

    The count is n - 3, and the fan at vertex 0, the first triangulation in
    chord-set order, is the witness; nothing is searched or listed.  Upper
    bound: a member with its n - 3 chords doubled decomposes into its n - 2
    faces.  Lower bound: no face of the fan holds two of its path edges
    (i, i + 1), 1 <= i <= n - 2, so its decompositions take n - 2
    triangles and add 3(n - 2) - (2n - 3) = n - 3 copies.  Both halves are
    checked on families.fan(n), which ``construct fan n`` prints, through
    its answer checks and count and _packing_bound; a failure is a bug.
    """
    from . import families  # only the xi sweep builds a family

    fan = families.fan(n)
    families.validate_construction(fan)
    if fan.claimed_epsilon != n - 3:
        raise InvariantViolation(f"the fan claims {fan.claimed_epsilon} copies, not {n - 3}")
    bound = _packing_bound(fan.graph, [EdgeKey(i, i + 1) for i in range(1, n - 1)])
    if bound != n - 3:
        raise InvariantViolation(f"the fan's path edges bound its count by {bound}, not {n - 3}")
    return n - 3, MopCode(n, fan.augmentation)
