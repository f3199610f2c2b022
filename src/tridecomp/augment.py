"""Minimum augmentation search: how many parallel copies must be added.

epsilon_exact answers the single-graph question: the fewest parallel copies
of already-present edges whose addition makes the multigraph triangle
decomposable.  An augmented graph decomposes exactly when some multiset of
k triangles covers every edge at least its multiplicity times (and at most
that plus the per-edge cap), so one level ladder asks the cover solver for
the least such k, starting at the divisibility residue; parity then holds
without being checked.  The module holds only this per-graph search, since
every ``epsilon`` command compiles it: the class sweeps over triangulated
cycles, which climb the same ladder, live in ``sweep``, and the reported
parity bound ``lower_bound`` lives in ``analysis``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .decomposer import CoverInstance, Decomposition, _edge_off_triangles
from .graph_core import (
    Augmentation,
    CapInfeasible,
    DomainError,
    EdgeKey,
    EdgeNotOnTriangle,
    Multigraph,
    ScaleLimit,
)

# Largest multigraph size (counting multiplicities) epsilon_exact will attempt.
SIZE_LIMIT = 60


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
