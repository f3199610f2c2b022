"""Exact triangle-decomposition search over edge multiplicities.

The one search primitive is a bounded triangle multicover: pick k triangles
(repeats allowed) so that every edge i is covered between lo[i] and hi[i]
times.  A decomposition is the case lo = hi = multiplicity; the minimum
augmentation search in ``augment`` widens hi.  The branch rule picks the
edge still short of lo with the fewest triangles fitting under hi (ties
broken by lexicographic edge order) and tries those triangles in
lexicographic order, so the returned certificate is a pure function of the
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph_core import DomainError, EdgeKey, Multigraph, Triangle, degree_sequence, triangle


@dataclass(frozen=True)
class Decomposition:
    """A multiset of triangles, kept sorted; repeats are meaningful."""

    triangles: Tuple[Triangle, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triangles", tuple(sorted(self.triangles)))

    def __len__(self) -> int:
        return len(self.triangles)

    def to_json_dict(self) -> dict:
        return {"triangles": [list(t.as_triple()) for t in self.triangles]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        if not isinstance(data, dict) or "triangles" not in data:
            raise DomainError("certificate JSON must have a 'triangles' field")
        return cls(_triangles_from_json(data["triangles"]))


def _triangles_from_json(entries: list) -> Tuple[Triangle, ...]:
    """[[a, b, c], ...] as Triangles in the listed order; DomainError if malformed."""
    if not isinstance(entries, (list, tuple)):
        raise DomainError(f"a triangle list must be a list, got {entries!r}")
    tris = []
    for entry in entries:
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == 3
            and all(type(x) is int for x in entry)
        ):
            raise DomainError(f"triangle entries must be [a, b, c], got {entry!r}")
        tris.append(triangle(*entry))
    return tuple(tris)


@dataclass(frozen=True)
class RejectReason:
    """A cheap necessary-condition failure.

    kind is one of "size_not_divisible", "odd_vertex", "edge_not_on_triangle";
    the vertex / edge fields carry the witness where applicable.
    """

    kind: str
    vertex: Optional[int] = None
    edge: Optional[EdgeKey] = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.edge is not None:
            out["edge"] = [self.edge.u, self.edge.v]
        return out


def enumerate_triangles(g: Multigraph) -> List[Triangle]:
    """All triangles of the underlying simple graph, lexicographic, each once."""
    adj = [set(ns) for ns in g.adjacency()]
    out: List[Triangle] = []
    for a in range(g.order):
        for b in sorted(adj[a]):
            if b <= a:
                continue
            for c in sorted(adj[a] & adj[b]):
                if c > b:
                    out.append(Triangle(a, b, c))
    return out


def check_decomposition(g: Multigraph, d: Decomposition) -> bool:
    """True iff d covers every edge exactly multiplicity times and nothing else."""
    return coverage_error(g, d) is None


def coverage_error(g: Multigraph, d: Decomposition) -> Optional[Tuple[str, EdgeKey]]:
    """First coverage defect as (kind, edge), or None if the certificate is valid.

    kind is "undercovered", "overcovered", or "notanedge"; the defect with the
    lexicographically least edge is reported.
    """
    counts: Dict[EdgeKey, int] = {}
    for t in d.triangles:
        for e in t.edges():
            counts[e] = counts.get(e, 0) + 1
    defects: List[Tuple[EdgeKey, str]] = []
    for e, c in counts.items():
        m = g.multiplicity(e)
        if e.v >= g.order or m == 0:
            defects.append((e, "notanedge"))
        elif c > m:
            defects.append((e, "overcovered"))
        elif c < m:
            defects.append((e, "undercovered"))
    for e in g.edges():
        if e not in counts:
            defects.append((e, "undercovered"))
    if not defects:
        return None
    e, kind = min(defects)
    return (kind, e)


def fast_reject(g: Multigraph) -> Optional[RejectReason]:
    """Cheap necessary conditions, checked in a fixed order.

    Size divisible by 3, then all degrees even, then every edge on a triangle.
    None means no cheap obstruction was found (not that a decomposition exists).
    """
    if g.size() % 3 != 0:
        return RejectReason("size_not_divisible")
    for v, d in enumerate(degree_sequence(g)):
        if d % 2 != 0:
            return RejectReason("odd_vertex", vertex=v)
    e = _edge_off_triangles(g)
    if e is not None:
        return RejectReason("edge_not_on_triangle", edge=e)
    return None


def _edge_off_triangles(g: Multigraph) -> Optional[EdgeKey]:
    """The least edge of g lying on no triangle, or None."""
    adj = [set(ns) for ns in g.adjacency()]
    for e in g.edges():
        if not (adj[e.u] & adj[e.v]):
            return e
    return None


class CoverInstance:
    """Reusable triangle-cover structure for one underlying simple graph.

    Augmenting a graph never changes which triples form triangles, so a
    single instance serves every query on the same graph: only the bounds
    and the triangle count vary between solve() calls.
    """

    __slots__ = ("edge_keys", "edge_index", "tri_verts", "tri_edges", "tris_of_edge")

    def __init__(self, g: Multigraph):
        self.edge_keys: List[EdgeKey] = g.edges()
        self.edge_index: Dict[EdgeKey, int] = {e: i for i, e in enumerate(self.edge_keys)}
        tris = enumerate_triangles(g)
        self.tri_verts: List[Triangle] = tris
        self.tri_edges: List[Tuple[int, int, int]] = [
            tuple(self.edge_index[e] for e in t.edges()) for t in tris  # type: ignore[misc]
        ]
        self.tris_of_edge: List[List[int]] = [[] for _ in self.edge_keys]
        for ti, (e1, e2, e3) in enumerate(self.tri_edges):
            self.tris_of_edge[e1].append(ti)
            self.tris_of_edge[e2].append(ti)
            self.tris_of_edge[e3].append(ti)

    def base_multiplicities(self, g: Multigraph) -> List[int]:
        return [g.multiplicity(e) for e in self.edge_keys]

    def edge_counts(self, chosen: List[int]) -> List[int]:
        """How many of the chosen triangles cover each edge."""
        counts = [0] * len(self.edge_keys)
        for ti in chosen:
            for ei in self.tri_edges[ti]:
                counts[ei] += 1
        return counts

    def solve(self, lo: List[int], hi: List[int], k: int) -> Optional[List[int]]:
        """k triangle indices (repeats allowed) covering edge i between lo[i] and hi[i] times.

        None when no such multiset exists.  With lo == hi this is an exact
        cover.  With lo < hi the caller must reach the least k one step at
        a time: k - 1 must already be refused or impossible.  Then no
        solution holds a triangle whose removal keeps every edge at or
        above lo, so the search only adds triangles through an edge still
        short of lo, and a node with no short edge succeeds only at k.

        The search branches on the short edge with the fewest triangles
        fitting under hi (the first such edge; one fitting triangle ends
        the scan) and tries them in order.  It refuses at the root a vertex
        whose edges are all pinned (lo == hi) with an odd total, since a
        triangle covers two edges at each of its corners.  A node is pruned
        when a short edge cannot reach lo, when the triangles left cannot
        cover the total shortfall, or when more vertices are short by an
        odd amount than the coverings beyond lo can serve.  A triangle
        whose branch failed is banned from its later siblings' subtrees,
        since a solution there holding it would also solve the failed
        branch.  Prunes and bans cut only subtrees without a solution, so
        with lo == hi the certificate is the one the plain exact-cover
        search finds first.
        """
        # k triangles cover 3k edge copies, so no edge can exceed lo by
        # more than the slack 3k - sum(lo).
        slack = 3 * k - sum(lo)
        short = list(lo)  # lo[i] minus the coverage so far
        room = [min(b, a + slack) for a, b in zip(lo, hi)]  # hi[i] minus the coverage
        if slack < 0 or 3 * k > sum(room):
            return None
        ends = [e.as_pair() for e in self.edge_keys]
        order = max((v for _, v in ends), default=-1) + 1
        degree = [0] * order
        free = set()
        for (u, v), a, b in zip(ends, lo, room):
            degree[u] += a
            degree[v] += a
            if a != b:
                free.update((u, v))
        if any(d % 2 and v not in free for v, d in enumerate(degree)):
            return None
        tri_edges = self.tri_edges
        tris_of_edge = self.tris_of_edge
        m = len(short)
        banned = [False] * len(tri_edges)
        chosen: List[int] = []

        def node(left: int, shortfall: int) -> bool:
            spare = 3 * left - shortfall  # coverings beyond lo still to place
            if spare < 0:
                return False
            if spare > 0:
                # A vertex still short by an odd amount needs a covering
                # beyond lo on one of its edges, and each such covering
                # serves two vertices.
                need_at = [0] * order
                for (u, v), s in zip(ends, short):
                    if s > 0:
                        need_at[u] += s
                        need_at[v] += s
                if sum(d & 1 for d in need_at) > 2 * spare:
                    return False
            best: Optional[List[int]] = None
            for ei in range(m):
                need = short[ei]
                if need <= 0:
                    continue
                fits: List[int] = []
                capacity = 0
                for ti in tris_of_edge[ei]:
                    e1, e2, e3 = tri_edges[ti]
                    r = room[e1]
                    if room[e2] < r:
                        r = room[e2]
                    if room[e3] < r:
                        r = room[e3]
                    if r > 0:
                        fits.append(ti)
                        capacity += r
                if capacity < need:
                    return False  # this edge cannot reach lo even with full reuse
                if best is None or len(fits) < len(best):
                    best = fits
                    if len(fits) == 1:
                        break  # a forced move: no later edge can beat it
            if best is None:
                return left == 0  # no slack triangles, as the docstring explains
            failed: List[int] = []
            for ti in best:
                if banned[ti]:
                    continue
                e1, e2, e3 = tri_edges[ti]
                gain = (short[e1] > 0) + (short[e2] > 0) + (short[e3] > 0)
                short[e1] -= 1
                short[e2] -= 1
                short[e3] -= 1
                room[e1] -= 1
                room[e2] -= 1
                room[e3] -= 1
                chosen.append(ti)
                if node(left - 1, shortfall - gain):
                    return True
                chosen.pop()
                short[e1] += 1
                short[e2] += 1
                short[e3] += 1
                room[e1] += 1
                room[e2] += 1
                room[e3] += 1
                banned[ti] = True
                failed.append(ti)
            for ti in failed:
                banned[ti] = False
            return False

        if node(k, sum(lo)):
            return chosen
        return None

    def certificate(self, chosen: List[int]) -> Decomposition:
        return Decomposition(tuple(self.tri_verts[t] for t in chosen))


def find_decomposition(g: Multigraph) -> Optional[Decomposition]:
    """A triangle decomposition of g, or None; deterministic certificate."""
    if fast_reject(g) is not None:
        return None
    inst = CoverInstance(g)
    m = inst.base_multiplicities(g)
    chosen = inst.solve(m, m, g.size() // 3)
    if chosen is None:
        return None
    return inst.certificate(chosen)
