"""Minimum augmentation search: how many parallel copies must be added.

epsilon_exact answers the single-graph question: the fewest parallel copies
of already-present edges whose addition makes the multigraph triangle
decomposable.  An augmented graph decomposes exactly when some multiset of
k triangles covers every edge at least its multiplicity times (and at most
that plus the per-edge cap), so one climb asks one cover solver instance
for the least such k, starting at the divisibility residue; parity then
holds without being checked.  Only ``epsilon`` loads this module: the class
sweep over triangulated cycles needs no climb, since it asks each member
one question at the class minimum, and lives in ``families``.  The climb, the
witness pinning and the certificate search of one graph share one cover
solver instance, so STEP_LIMIT bounds them together: past it they give up
with ScaleLimit.
"""

from __future__ import annotations

from .decomposer import CoverInstance
from .graph_core import (
    Augmentation,
    CapInfeasible,
    Decomposition,
    EdgeNotOnTriangle,
    Multigraph,
    _check_int,
    _edge_off_triangles,
)


def epsilon_exact(
    g: Multigraph, max_copies_per_edge: int | None = None
) -> tuple[int, Augmentation, Decomposition]:
    """Minimum copies to add for decomposability, with witness and certificate.

    Among minimum-size augmentations the lexicographically least edge
    multiset is returned, with the solver's deterministic certificate for
    the augmented graph.  max_copies_per_edge caps the extra copies per
    edge (None = uncapped); CapInfeasible is raised when no capped
    augmentation works, and ScaleLimit when the searches together choose
    more than STEP_LIMIT triangles or their set-ups are charged more than
    STEP_LIMIT steps: the edges each reads, and its triangles once its
    root tests pass.

    The witness is pinned edge by edge, each question asking for one more
    copy on an edge than the last cover used.  A question that the parity
    tests at the root of the search would refuse is never asked: one with
    more vertices of odd lo total than the 2 * (3k - sum(lo)) that the
    coverings beyond lo can fix, or one that takes an edge to its bound
    while an end of it, all of whose edges are then pinned, is odd.  Such
    a question is refused before any triangle is chosen, so skipping it
    keeps the witness, the certificate and the steps.  The certificate is
    the solver's exact cover of the augmented graph: at t = 0 the climb's
    hit, with lo == hi == base, and otherwise one more search.
    """
    off = _edge_off_triangles(g)
    if off is not None:
        raise EdgeNotOnTriangle(off)
    cap = max_copies_per_edge
    if cap is not None:
        _check_int(cap, "max_copies_per_edge", least=0)
    # Level t adds t copies, at most cap per edge, so k = (size + t) / 3
    # triangles cover edge i between base[i] and hi[i] times.  Levels rise
    # by 3 from the residue (-size) % 3, below which k - 1 triangles cannot
    # cover size edges, so k rises one step at a time as solve() requires.
    # Uncapped, every graph hits by 2 * size: doubling the other two edges
    # of a triangle through each edge copy decomposes.
    inst = CoverInstance(g)
    base = inst.base
    size = sum(base)
    ceiling = 2 * size if cap is None else cap * len(base)
    for t in range((-size) % 3, ceiling + 1, 3):
        hi = [b + (t if cap is None else min(cap, t)) for b in base]
        chosen = inst.solve(base, hi, (size + t) // 3)
        if chosen is not None:
            break
    else:
        raise CapInfeasible(f"no augmentation with at most {cap} extra copies per edge works")
    k = len(chosen)
    # The lexicographically least multiset puts the most copies on edge 0,
    # then on edge 1, and so on.  Ask for one more copy on edge i than the
    # last solution used; the first refusal pins the edge.  The parity of
    # each vertex's lo total, the count of odd ones and sum(lo) follow lo.
    # Every vertex whose edges all come before edge i is even, since the
    # last cover pinned them all, so the only odd vertex with every edge
    # pinned can be an end whose last edge is i.
    ends = inst.ends
    lo = list(base)
    cover = inst.edge_counts(chosen)
    odd_at = [0] * inst.order
    last = [0] * inst.order  # the index of the vertex's last edge
    for i, ((u, v), b) in enumerate(zip(ends, lo)):
        odd_at[u] ^= b & 1
        odd_at[v] ^= b & 1
        last[u] = last[v] = i
    odd, total = sum(odd_at), sum(lo)

    def move(i: int, a: int) -> None:
        nonlocal odd, total
        if (a - lo[i]) & 1:
            for w in ends[i]:
                odd += 1 - 2 * odd_at[w]
                odd_at[w] ^= 1
        total += a - lo[i]
        lo[i] = a

    for i in range(len(lo)):
        while cover[i] < hi[i]:
            move(i, cover[i] + 1)
            if odd > 2 * (3 * k - total) or lo[i] == hi[i] and any(
                    odd_at[w] and last[w] == i for w in ends[i]):
                break
            more = inst.solve(lo, hi, k)
            if more is None:
                break
            cover = inst.edge_counts(more)
        move(i, cover[i])
        hi[i] = cover[i]
    if t:
        chosen = inst.solve(lo, hi, k)
    return (t, *inst.records(chosen))
