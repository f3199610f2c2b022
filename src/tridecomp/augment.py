"""Minimum augmentation search: how many parallel copies must be added.

epsilon_exact answers the single-graph question: the fewest parallel copies
of already-present edges whose addition makes the multigraph triangle
decomposable.  An augmented graph decomposes exactly when some multiset of
k triangles covers every edge at least its multiplicity times (and at most
that plus the per-edge cap), so the search asks the cover solver for the
least such k instead of enumerating candidate augmentations; parity and
divisibility then hold without being checked.  The class-level sweeps
answer the extremal questions over all maximal outerplanar graphs of a
given order: the least such count over the class, and the largest when at
most one extra copy per edge is allowed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .decomposer import CoverInstance, Decomposition, _edge_off_triangles
from .graph_core import (
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


@dataclass(frozen=True)
class Augmentation:
    """A multiset of edges to duplicate, kept sorted."""

    additions: Tuple[EdgeKey, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "additions", tuple(sorted(self.additions)))

    def __len__(self) -> int:
        return len(self.additions)

    def to_json_list(self) -> list:
        return [[e.u, e.v] for e in self.additions]

    @classmethod
    def from_json_list(cls, data: list) -> "Augmentation":
        from .graph_core import edge

        if not isinstance(data, (list, tuple)):
            raise DomainError(f"augmentation must be a list, got {data!r}")
        adds = []
        for entry in data:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and all(type(x) is int for x in entry)
            ):
                raise DomainError(f"augmentation entries must be [u, v], got {entry!r}")
            adds.append(edge(*entry))
        return cls(tuple(adds))


@dataclass(frozen=True)
class BoundReport:
    """Lower-bound data for the augmentation count of one graph.

    parity_bound: fewest added copies that can make every degree even,
    ignoring divisibility (min over both cardinality parities).
    divisibility_residue: (-size) mod 3, what the count must be congruent to.
    combined_lower_bound: least t matching both constraints at once.
    """

    parity_bound: int
    divisibility_residue: int
    combined_lower_bound: int


def apply_augmentation(g: Multigraph, aug: Augmentation) -> Multigraph:
    """g with one extra parallel copy added per listed edge (repeats stack)."""
    mult: Dict[EdgeKey, int] = {e: m for e, m in g.items()}
    for e in aug.additions:
        if e not in mult:
            from .graph_core import AugmentNonAdjacent

            raise AugmentNonAdjacent(f"cannot add copies of absent edge ({e.u}, {e.v})")
        mult[e] += 1
    return Multigraph(g.order, mult)


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
    """Exact parity / divisibility lower bound on the augmentation count."""
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
    inst = CoverInstance(g)
    base = inst.base_multiplicities(g)
    t = lower_bound(g).combined_lower_bound
    ceiling = 2 * g.size() if cap is None else cap * len(base)
    # t copies added means k = (size + t) / 3 triangles; t rises by 3, so k
    # rises one step at a time from a proven bound, as solve() requires.
    while t <= ceiling:
        k = (g.size() + t) // 3
        hi = [b + (t if cap is None else min(cap, t)) for b in base]
        chosen = inst.solve(base, hi, k)
        if chosen is not None:
            break
        t += 3
    else:
        if cap is not None:
            raise CapInfeasible(
                f"no augmentation with at most {cap} extra copies per edge works"
            )
        # Unreachable: doubling, per edge copy, the other two edges of one
        # triangle through it gives a decomposable augmentation of size at
        # most 2*size, and the ladder reaches that size.
        raise RuntimeError("exact search exhausted its ceiling without an answer")
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


@dataclass(frozen=True)
class MopCode:
    """A maximal outerplanar graph as its chord set over the standard cycle.

    Vertices 0..order-1 form the outer cycle in numeric order; chords must
    be pairwise non-crossing and exactly order-3 of them.
    """

    order: int
    chords: Tuple[EdgeKey, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chords", tuple(sorted(self.chords)))
        n = self.order
        if n < 3:
            raise DomainError(f"order must be >= 3, got {n}")
        if len(set(self.chords)) != len(self.chords):
            raise DomainError("duplicate chord")
        if len(self.chords) != n - 3:
            raise DomainError(
                f"a triangulation of an {n}-cycle has {n - 3} chords, "
                f"got {len(self.chords)}"
            )
        for e in self.chords:
            if e.v >= n:
                raise DomainError(f"chord endpoint {e.v} out of range")
            if (e.v - e.u) % n in (1, n - 1):
                raise DomainError(f"({e.u}, {e.v}) is a cycle edge, not a chord")
        cs = [c.as_pair() for c in self.chords]
        for i, (a, b) in enumerate(cs):
            for c, d in cs[i + 1 :]:
                if a < c < b < d or c < a < d < b:
                    raise DomainError(f"chords ({a},{b}) and ({c},{d}) cross")

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


def _prepare_class(n: int) -> List[Tuple[MopCode, CoverInstance]]:
    """Per-triangulation solver state for a level-synchronized sweep."""
    return [(code, CoverInstance(code.graph())) for code in enumerate_mops(n)]


def epsilon_class_exact(
    n: int, ceiling: Optional[int] = None
) -> Tuple[int, MopCode]:
    """Least augmentation count over all order-n triangulated cycles.

    Returns the count and the first witness in chord-set order.  The search
    runs level-synchronized: all graphs are tried at each candidate total
    before any graph is tried at a larger one, which is equivalent to
    minimizing epsilon_exact over the class (all graphs in the class share
    the divisibility residue, so they share the candidate ladder).
    """
    if ceiling is not None and n > ceiling:
        raise ScaleLimit(f"order {n} exceeds the sweep ceiling {ceiling}")
    prepared = _prepare_class(n)
    size = 2 * n - 3
    lo = [1] * size
    t = (-size) % 3
    while True:
        hi = [1 + t] * size
        for code, inst in prepared:
            if inst.solve(lo, hi, (size + t) // 3) is not None:
                return t, code
        t += 3


def xi_class_exact(n: int, ceiling: Optional[int] = None) -> Tuple[int, MopCode]:
    """Largest augmentation count over order-n triangulated cycles, one copy cap.

    Every graph in the class admits a capped augmentation (doubling all
    chords works: the polygon faces then cover everything), so the sweep
    removes graphs level by level as they succeed; the last level occupied
    is the maximum, witnessed by the first finisher in chord-set order.
    """
    if ceiling is not None and n > ceiling:
        raise ScaleLimit(f"order {n} exceeds the sweep ceiling {ceiling}")
    active = _prepare_class(n)
    size = 2 * n - 3
    lo = [1] * size
    t = (-size) % 3
    while True:
        hi = [1 + min(1, t)] * size
        finished = []
        survivors = []
        for code, inst in active:
            if inst.solve(lo, hi, (size + t) // 3) is not None:
                finished.append(code)
            else:
                survivors.append((code, inst))
        if not survivors:
            if not finished:
                raise RuntimeError("capped sweep emptied without a final level")
            return t, finished[0]
        active = survivors
        t += 3
