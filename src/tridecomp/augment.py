"""Minimum augmentation search: how many parallel copies must be added.

epsilon_exact answers the single-graph question: the fewest parallel copies
of already-present edges whose addition makes the multigraph triangle
decomposable.  An augmented graph decomposes exactly when some multiset of
k triangles covers every edge at least its multiplicity times (and at most
that plus the per-edge cap), so one per-graph climb, _least_level, asks one
cover solver instance for the least such k, starting at the divisibility
residue; parity then holds without being checked.  The module holds only
this per-graph search, since every ``epsilon`` command compiles it: the
class sweeps over triangulated cycles, which run the same climb on one
graph at a time, live in ``sweep``.  The climb, the witness pinning and
the certificate search of one graph share one cover solver instance, so
STEP_LIMIT bounds them together: past it they give up with ScaleLimit.
"""

from __future__ import annotations

from .decomposer import CoverInstance
from .graph_core import (
    Augmentation,
    CapInfeasible,
    Decomposition,
    EdgeKey,
    EdgeNotOnTriangle,
    Multigraph,
    _check_int,
    _edge_off_triangles,
)


def _least_level(g: Multigraph, cap: int | None,
                 below: int | None = None) -> tuple | None:
    """(t, instance, base, hi, chosen) at the least level t of g, or None.

    Level t adds t copies, at most cap per edge, so k = (size + t) / 3
    triangles cover edge i between base[i] and hi[i] times.  Levels start
    at the residue (-size) % 3, where k - 1 triangles cannot cover size
    edges, and rise by 3, so k rises one step at a time as solve() requires.
    The climb stops below `below` when one is given, else past the ceiling
    cap * |E| capped and 2 * size uncapped, by which every graph hits (per
    edge copy, doubling the other two edges of a triangle through it
    decomposes); None means no level up to there hits.
    """
    inst = CoverInstance(g)
    base = inst.base
    size = sum(base)
    ceiling = 2 * size if cap is None else cap * len(base)
    if below is not None:
        ceiling = min(ceiling, below - 1)
    for t in range((-size) % 3, ceiling + 1, 3):
        hi = [b + (t if cap is None else min(cap, t)) for b in base]
        chosen = inst.solve(base, hi, (size + t) // 3)
        if chosen is not None:
            return t, inst, base, hi, chosen
    return None


def epsilon_exact(
    g: Multigraph, max_copies_per_edge: int | None = None
) -> tuple[int, Augmentation, Decomposition]:
    """Minimum copies to add for decomposability, with witness and certificate.

    Among minimum-size augmentations the lexicographically least edge
    multiset is returned, with the solver's deterministic certificate for
    the augmented graph.  max_copies_per_edge caps the extra copies per
    edge (None = uncapped); CapInfeasible is raised when no capped
    augmentation works, and ScaleLimit when the searches together choose
    more than STEP_LIMIT triangles or their set-ups read more than
    STEP_LIMIT edges and triangles.
    """
    off = _edge_off_triangles(g)
    if off is not None:
        raise EdgeNotOnTriangle(off)
    cap = max_copies_per_edge
    if cap is not None:
        _check_int(cap, "max_copies_per_edge", least=0)
    hit = _least_level(g, cap)
    if hit is None:  # only a cap can stop the climb without a hit
        raise CapInfeasible(f"no augmentation with at most {cap} extra copies per edge works")
    t, inst, base, hi, chosen = hit
    k = len(chosen)
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
    additions: list[EdgeKey] = []
    for e, c, b in zip(inst.edge_keys, cover, base):
        additions.extend([e] * (c - b))
    return t, Augmentation(tuple(additions)), inst.certificate(chosen)
