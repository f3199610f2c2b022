"""Minimum augmentation search: how many parallel copies must be added.

epsilon_exact answers the single-graph question: the fewest parallel copies
of already-present edges whose addition makes the multigraph triangle
decomposable.  An augmented graph decomposes exactly when some multiset of
k triangles covers every edge at least its multiplicity times (and at most
that plus the per-edge cap), so one level ladder asks the cover solver for
the least such k, starting at the divisibility residue; parity then holds
without being checked.  The class sweeps climb the same ladder over all
maximal outerplanar graphs of a given order: the least count over the
class, and the largest when at most one extra copy per edge is allowed.
lower_bound is a reported parity bound; the search does not use it.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .decomposer import CoverInstance, Decomposition, _edge_off_triangles
from .graph_core import (
    Augmentation,
    CapInfeasible,
    DomainError,
    EdgeKey,
    EdgeNotOnTriangle,
    Multigraph,
    ScaleLimit,
    degree_sequence,
)

# Largest multigraph size (counting multiplicities) epsilon_exact will attempt.
SIZE_LIMIT = 60

# Parity-state searches give up past this many visited states.
_PARITY_STATE_LIMIT = 1 << 22

# Default order ceiling for the class sweeps when the caller gives none.
DEFAULT_SWEEP_CEILING = 12


class BoundReport(
    namedtuple("BoundReport", "parity_bound divisibility_residue combined_lower_bound")
):
    """Lower-bound data for the augmentation count of one graph.

    parity_bound: fewest added copies that can make every degree even,
    ignoring divisibility (min over both cardinality parities).
    divisibility_residue: (-size) mod 3, what the count must be congruent to.
    combined_lower_bound: least t matching both constraints at once.
    """

    __slots__ = ()


def _parity_distances(g: Multigraph) -> Tuple[Optional[int], Optional[int]]:
    """(even, odd): fewest edge copies fixing all degree parities, by count parity.

    BFS over (vertex parity vector, count mod 2) states, one added edge copy
    per step.  Adding a copy of {u,v} toggles the parity bits of u and v, so
    the reachable question is a shortest-path question on a hypercube slice.
    """
    edges = g.edges()
    target = 0
    for v, d in enumerate(degree_sequence(g)):
        if d % 2 != 0:
            target |= 1 << v
    masks = sorted({(1 << e.u) | (1 << e.v) for e in edges})
    dist: Dict[Tuple[int, int], int] = {(0, 0): 0}
    queue = deque([(0, 0)])
    even: Optional[int] = None
    odd: Optional[int] = None
    if target == 0:
        even = 0
    while queue:
        state = queue.popleft()
        d = dist[state]
        pmask, cpar = state
        if pmask == target:
            if cpar == 0 and even is None:
                even = d
            elif cpar == 1 and odd is None:
                odd = d
            if even is not None and odd is not None:
                break
        for em in masks:
            nxt = (pmask ^ em, cpar ^ 1)
            if nxt not in dist:
                if len(dist) >= _PARITY_STATE_LIMIT:
                    raise ScaleLimit(
                        f"parity search exceeded {_PARITY_STATE_LIMIT} states"
                    )
                dist[nxt] = d + 1
                queue.append(nxt)
    return even, odd


def lower_bound(g: Multigraph) -> BoundReport:
    """Exact parity / divisibility lower bound on the augmentation count.

    Reported only: the search starts at the divisibility residue instead.
    """
    even, odd = _parity_distances(g)
    residue = (-g.size()) % 3
    candidates = [p for p in (even, odd) if p is not None]
    if not candidates:
        # Every graph with at least one edge can reach any parity vector
        # supported on its edges; unreachable targets cannot arise from
        # degree parities of the same graph.
        from .graph_core import InfeasibleParity

        raise InfeasibleParity("no augmentation can make all degrees even")
    parity_bound = min(candidates)
    t = residue
    while True:
        p = even if t % 2 == 0 else odd
        if p is not None and t >= p:
            break
        t += 3
    return BoundReport(
        parity_bound=parity_bound,
        divisibility_residue=residue,
        combined_lower_bound=t,
    )


def _level(base: List[int], t: int, cap: Optional[int]) -> Tuple[List[int], int]:
    """(hi, k) of level t: base plus t copies, at most cap per edge, in k triangles."""
    add = t if cap is None else min(cap, t)
    return [b + add for b in base], (sum(base) + t) // 3


def _ladder(size: int, keys: Sequence, graph_of: Callable, cap: Optional[int]) -> Iterator:
    """(t, key, instance, chosen) for each graph at its least level t, in level order.

    Every graph_of(key) has the given size.  Levels start at the residue
    (-size) % 3, where k - 1 triangles cannot cover size edges, and rise by
    3, so k rises one step at a time as solve() requires.  A graph leaves at
    its hit or past its ceiling: cap * |E| capped, else 2 * size, by which
    every graph hits (per edge copy, doubling the other two edges of a
    triangle through it decomposes).  Graphs keep their order within a
    level; each CoverInstance is built when the ladder first reaches it.
    """
    pending = [(key, None) for key in keys]
    t = (-size) % 3
    while pending:
        left = []
        for key, state in pending:
            if state is None:
                g = graph_of(key)
                inst = CoverInstance(g)
                base = inst.base_multiplicities(g)
                state = inst, base, 2 * size if cap is None else cap * len(base)
            inst, base, ceiling = state
            if t > ceiling:
                continue
            hi, k = _level(base, t, cap)
            chosen = inst.solve(base, hi, k)
            if chosen is None:
                left.append((key, state))
            else:
                yield t, key, inst, chosen
        pending = left
        t += 3


def epsilon_exact(
    g: Multigraph, max_copies_per_edge: Optional[int] = None
) -> Tuple[int, Augmentation, Decomposition]:
    """Minimum copies to add for decomposability, with witness and certificate.

    Among minimum-size augmentations the lexicographically least edge
    multiset is returned, with the solver's deterministic certificate for
    the augmented graph.  max_copies_per_edge caps the extra copies per
    edge (None = uncapped); CapInfeasible is raised when no capped
    augmentation works.
    """
    if g.size() > SIZE_LIMIT:
        raise ScaleLimit(f"size {g.size()} exceeds the exact-search limit {SIZE_LIMIT}")
    off = _edge_off_triangles(g)
    if off is not None:
        raise EdgeNotOnTriangle(off)
    cap = max_copies_per_edge
    if cap is not None and cap < 0:
        raise DomainError(f"max_copies_per_edge must be >= 0, got {cap}")
    hit = next(_ladder(g.size(), [g], lambda key: key, cap), None)
    if hit is None:  # only a cap can empty the ladder
        raise CapInfeasible(f"no augmentation with at most {cap} extra copies per edge works")
    t, _, inst, chosen = hit
    base = inst.base_multiplicities(g)
    hi, k = _level(base, t, cap)
    # The lexicographically least multiset puts the most copies on edge 0,
    # then on edge 1, and so on.  Ask for one more copy on edge i than the
    # last solution used; the first refusal pins the edge.
    lo = list(base)
    cover = inst.edge_counts(chosen)
    unpinned = t  # added copies not yet pinned to an edge
    for i, b in enumerate(base):
        while cover[i] < hi[i] and cover[i] - b < unpinned:
            lo[i] = cover[i] + 1
            more = inst.solve(lo, hi, k)
            if more is None:
                break
            cover = inst.edge_counts(more)
        lo[i] = hi[i] = cover[i]
        unpinned -= cover[i] - b
    chosen = inst.solve(lo, hi, k)  # lo == hi: the certificate search
    additions: List[EdgeKey] = []
    for e, c, b in zip(inst.edge_keys, cover, base):
        additions.extend([e] * (c - b))
    return t, Augmentation(tuple(additions)), inst.certificate(chosen)


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
        cs = [c.as_pair() for c in chords]
        for i, (a, b) in enumerate(cs):
            for c, d in cs[i + 1 :]:
                if a < c < b < d or c < a < d < b:
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
    from .graph_core import edge

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

    codes = []
    for chordset in fill(0, n - 1):
        chords = tuple(edge(u, v) for u, v in chordset)
        codes.append(MopCode(n, chords))
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
