"""Structural predicates and embedding face tracing.

The structural predicates are is_eulerian (every degree even, one edge
component) and is_maximal_outerplanar.  Each check has one copy: the
degree, size and triangle conditions of a decomposition in
``decomposer.fast_reject``, which this module does not import, chord
crossings in ``graph_core``, and one connectivity walk, _edges_connected,
here.  Every function here runs in polynomial time; none searches.

A rotation system lists, for every vertex, the cyclic order of its incident
edge ends as (neighbor, copy index) pairs.  Tracing: after arriving at v
along some edge end, leave along the next end in v's rotation; the orbits
of that rule are the faces, and V - E + F gives the Euler characteristic
and hence the genus of the implied orientable surface.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .graph_core import (
    DomainError,
    Multigraph,
    _check_int,
    _crossing_chords,
    _json_rows,
    _shown,
    degree_sequence,
    edge,
)


class RotationSystem(namedtuple("RotationSystem", "order rotations")):
    """Cyclic edge-end orders: rotations[v] is a tuple of (neighbor, copy)."""

    __slots__ = ()

    def __new__(
        cls, order: int, rotations: tuple[tuple[tuple[int, int], ...], ...]
    ) -> "RotationSystem":
        _check_int(order, least=0)
        if len(rotations) != order:
            raise DomainError(
                f"expected {order} rotation lists, got {len(rotations)}"
            )
        for v, rot in enumerate(rotations):
            for entry in rot:
                if not (isinstance(entry, tuple) and len(entry) == 2):
                    raise DomainError(
                        f"rotation entries must be (neighbor, copy), got {_shown(entry)}"
                    )
                u, c = entry
                if not (type(u) is int and 0 <= u < order):
                    raise DomainError(f"neighbor {_shown(u)} at vertex {v} out of range")
                if u == v:
                    raise DomainError(f"loop at vertex {v}")
                if not (type(c) is int and c >= 0):
                    raise DomainError(f"copy index {_shown(c)} at vertex {v} invalid")
        return tuple.__new__(cls, (order, rotations))

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
        rotations = tuple(
            tuple(map(tuple, _json_rows(rot, 2, f"rotation of vertex {v}")))
            for v, rot in enumerate(raw)
        )
        return cls(len(rotations), rotations)


class FaceTrace(namedtuple("FaceTrace", "faces V E F euler_characteristic genus")):
    """Faces of an embedded multigraph plus the derived surface data."""

    __slots__ = ()

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
    position: dict[tuple[int, int, int], int] = {}
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
    # Copies of each edge must be numbered 0..count-1: copy c > 0 needs c - 1.
    for (v, u, c) in darts:
        if c and (v, u, c - 1) not in position:
            raise DomainError(
                f"copy index {c} on edge ({min(v, u)}, {max(v, u)}) skips a lower copy"
            )
    total_ends = len(darts)
    if total_ends == 0:
        raise DomainError("rotation system has no edges")
    edge_count = total_ends // 2
    # The genus formula needs a connected graph.
    nbrs = [[u for u, _c in rot] for rot in r.rotations]
    if not (all(nbrs) and _edges_connected(nbrs)):
        raise DomainError("rotation system is not connected")

    visited: set = set()
    faces: list[tuple[int, ...]] = []
    for start in darts:
        if start in visited:
            continue
        walk: list[int] = []
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


def _edges_connected(adj: Sequence[Sequence[int]]) -> bool:
    """True iff a walk from the first vertex with neighbours reaches all that have any."""
    stack = [v for v, nbrs in enumerate(adj) if nbrs][:1]
    seen = set(stack)
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == sum(1 for nbrs in adj if nbrs)


def is_eulerian(g: Multigraph) -> bool:
    """True iff a closed walk uses every edge exactly once.

    All degrees even, and all edges in one component (isolated vertices are
    allowed; a graph with no edges counts as Eulerian).
    """
    return all(d % 2 == 0 for d in degree_sequence(g)) and _edges_connected(g.adjacency())


def is_maximal_outerplanar(g: Multigraph, outer: Sequence[int]) -> bool:
    """True iff g is a triangulation of the cycle given by the outer order.

    outer must be a permutation of the vertices (DomainError otherwise); the
    check is that g is simple, every consecutive outer pair is an edge,
    the size is 2n-3, and the remaining edges are pairwise non-crossing
    chords of that cycle, by the crossing test in ``graph_core``.
    """
    n = g.order
    if sorted(outer) != list(range(n)):
        raise DomainError("outer cycle must be a permutation of the vertices")
    _check_int(n, least=3)
    if not g.is_simple():
        return False
    for i in range(n):
        if not g.has_edge(edge(outer[i], outer[(i + 1) % n])):
            return False
    if g.size() != 2 * n - 3:
        return False
    pos = {v: i for i, v in enumerate(outer)}
    chords = []
    for u, v in g.edges():
        a, b = sorted((pos[u], pos[v]))
        if 1 < b - a < n - 1:  # not a cycle edge: those are one apart, or 0 and n - 1
            chords.append((a, b))
    return _crossing_chords(chords) is None
