"""Structural predicates and combinatorial-embedding face tracing.

A rotation system lists, for every vertex, the cyclic order of its incident
edge ends as (neighbor, copy index) pairs.  Tracing: after arriving at v
along some edge end, leave along the next end in v's rotation; the orbits
of that rule are the faces, and V - E + F gives the Euler characteristic
and hence the genus of the implied orientable surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .decomposer import fast_reject
from .graph_core import DomainError, Multigraph, degree_sequence, edge


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic edge-end orders: rotations[v] is a tuple of (neighbor, copy)."""

    order: int
    rotations: Tuple[Tuple[Tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise DomainError(f"order must be >= 0, got {self.order}")
        if len(self.rotations) != self.order:
            raise DomainError(
                f"expected {self.order} rotation lists, got {len(self.rotations)}"
            )
        for v, rot in enumerate(self.rotations):
            for entry in rot:
                if not (isinstance(entry, tuple) and len(entry) == 2):
                    raise DomainError(
                        f"rotation entries must be (neighbor, copy), got {entry!r}"
                    )
                u, c = entry
                # type() rather than isinstance(): JSON booleans are not integers.
                if not (type(u) is int and 0 <= u < self.order):
                    raise DomainError(f"neighbor {u!r} at vertex {v} out of range")
                if u == v:
                    raise DomainError(f"loop at vertex {v}")
                if not (type(c) is int and c >= 0):
                    raise DomainError(f"copy index {c!r} at vertex {v} invalid")

    def to_json_dict(self) -> dict:
        return {
            "rotations": [
                [[u, c] for u, c in rot] for rot in self.rotations
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RotationSystem":
        if not isinstance(data, dict) or "rotations" not in data:
            raise DomainError("rotation JSON must have a 'rotations' field")
        raw = data["rotations"]
        if not isinstance(raw, list):
            raise DomainError("'rotations' must be a list of per-vertex lists")
        rotations = []
        for rot in raw:
            if not isinstance(rot, list):
                raise DomainError("each rotation must be a list of [neighbor, copy]")
            entries = []
            for entry in rot:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise DomainError(
                        f"rotation entries must be [neighbor, copy], got {entry!r}"
                    )
                entries.append((entry[0], entry[1]))
            rotations.append(tuple(entries))
        return cls(len(rotations), tuple(rotations))


@dataclass(frozen=True)
class FaceTrace:
    """Faces of an embedded multigraph plus the derived surface data."""

    faces: Tuple[Tuple[int, ...], ...]
    V: int
    E: int
    F: int
    euler_characteristic: int
    genus: int

    def to_json_dict(self) -> dict:
        return {
            "V": self.V,
            "E": self.E,
            "F": self.F,
            "euler_characteristic": self.euler_characteristic,
            "genus": self.genus,
            "faces": [list(face) for face in self.faces],
        }


def trace_faces(r: RotationSystem) -> FaceTrace:
    """Walk every face of the embedding; DomainError on an invalid system."""
    n = r.order
    # Each (v, u, c) edge end must appear exactly once, with its mate present.
    position: Dict[Tuple[int, int, int], int] = {}
    for v, rot in enumerate(r.rotations):
        for i, (u, c) in enumerate(rot):
            key = (v, u, c)
            if key in position:
                raise DomainError(
                    f"edge end to {u} (copy {c}) repeats at vertex {v}"
                )
            position[key] = i
    for (v, u, c) in position:
        if (u, v, c) not in position:
            raise DomainError(
                f"vertex {v} lists neighbor {u} (copy {c}) but not vice versa"
            )
    darts = sorted(position)
    # Copies of each edge must be numbered 0..count-1.
    copy_count: Dict[Tuple[int, int], int] = {}
    for (v, u, c) in darts:
        if v < u:
            key = (v, u)
            copy_count[key] = copy_count.get(key, 0) + 1
    for (v, u, c) in darts:
        lo, hi = min(v, u), max(v, u)
        if c >= copy_count[(lo, hi)]:
            raise DomainError(
                f"copy index {c} on edge ({lo}, {hi}) skips a lower copy"
            )
    total_ends = len(darts)
    if total_ends == 0:
        raise DomainError("rotation system has no edges")
    edge_count = total_ends // 2
    # The genus formula needs a connected graph.
    with_edges = [v for v in range(n) if r.rotations[v]]
    seen = {with_edges[0]}
    stack = [with_edges[0]]
    while stack:
        v = stack.pop()
        for (u, _c) in r.rotations[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise DomainError("rotation system is not connected")

    visited: set = set()
    faces: List[Tuple[int, ...]] = []
    for start in darts:
        if start in visited:
            continue
        walk: List[int] = []
        dart = start
        while True:
            visited.add(dart)
            v, u, c = dart
            walk.append(v)
            rot_u = r.rotations[u]
            j = position[(u, v, c)]
            nu, nc = rot_u[(j + 1) % len(rot_u)]
            dart = (u, nu, nc)
            if dart == start:
                break
        faces.append(tuple(walk))
    F = len(faces)
    chi = n - edge_count + F
    return FaceTrace(
        faces=tuple(faces),
        V=n,
        E=edge_count,
        F=F,
        euler_characteristic=chi,
        genus=(2 - chi) // 2,
    )


def _support_components(g: Multigraph) -> List[List[int]]:
    adj = g.adjacency()
    seen = [False] * g.order
    comps = []
    for s in range(g.order):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def is_eulerian(g: Multigraph) -> bool:
    """True iff a closed walk uses every edge exactly once.

    All degrees even, and all edges in one component (isolated vertices are
    allowed; a graph with no edges counts as Eulerian).
    """
    if any(d % 2 != 0 for d in degree_sequence(g)):
        return False
    nontrivial = [c for c in _support_components(g) if len(c) > 1]
    return len(nontrivial) <= 1


def is_strongly_k3_divisible(g: Multigraph) -> bool:
    """Eulerian, size divisible by 3, and every edge on a triangle."""
    return is_eulerian(g) and fast_reject(g) is None


def is_maximal_outerplanar(g: Multigraph, outer: Sequence[int]) -> bool:
    """True iff g is a triangulation of the cycle given by the outer order.

    outer must be a permutation of the vertices (DomainError otherwise); the
    check is that g is simple, every consecutive outer pair is an edge,
    the size is 2n-3, and the remaining edges are pairwise non-crossing
    chords of that cycle.
    """
    n = g.order
    if sorted(outer) != list(range(n)):
        raise DomainError("outer cycle must be a permutation of the vertices")
    if n < 3:
        raise DomainError(f"order must be >= 3, got {n}")
    if not g.is_simple():
        return False
    pos = {v: i for i, v in enumerate(outer)}
    cycle_edges = set()
    for i in range(n):
        a, b = outer[i], outer[(i + 1) % n]
        if not g.has_edge(edge(a, b)):
            return False
        cycle_edges.add(frozenset((a, b)))
    if g.size() != 2 * n - 3:
        return False
    chords = []
    for e in g.edges():
        if frozenset((e.u, e.v)) in cycle_edges:
            continue
        a, b = sorted((pos[e.u], pos[e.v]))
        chords.append((a, b))
    for idx, (a, b) in enumerate(chords):
        for c, d in chords[idx + 1 :]:
            if a < c < b < d or c < a < d < b:
                return False
    return True


def find_hamiltonian_cycle(g: Multigraph) -> Optional[Tuple[int, ...]]:
    """A Hamiltonian cycle starting at 0, or None; lex-first by neighbor order.

    Depth-first over paths from 0 with an explicit stack: tried[i] is how
    many neighbors of path[i] have been tried as path[i + 1].
    """
    n = g.order
    if n < 3:
        return None
    adj = g.adjacency()
    path = [0]
    tried = [0]
    on_path = [False] * n
    on_path[0] = True
    while path:
        nbrs = adj[path[-1]]
        if len(path) == n:
            if 0 in nbrs:
                return tuple(path)
            i = len(nbrs)
        else:
            i = tried[-1]
            while i < len(nbrs) and on_path[nbrs[i]]:
                i += 1
        if i < len(nbrs):
            tried[-1] = i + 1
            path.append(nbrs[i])
            tried.append(0)
            on_path[nbrs[i]] = True
        else:
            on_path[path.pop()] = False
            tried.pop()
    return None
