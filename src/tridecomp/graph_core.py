"""Multigraph value types: canonical edges, triangles, degrees, JSON shape.

Vertices are dense integers 0..n-1.  Edges are unordered pairs with a
positive multiplicity; loops are forbidden.  All listings are sorted
lexicographically so that every consumer sees a deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


class TridecompError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TridecompError, ValueError):
    """An argument is outside the domain of the operation."""


class AugmentNonAdjacent(DomainError):
    """Parallel copies may only be added between already adjacent vertices."""


class EdgeNotOnTriangle(DomainError):
    """An edge lies on no triangle, so no augmentation can make it coverable."""

    def __init__(self, edge: "EdgeKey"):
        super().__init__(f"edge {{{edge.u},{edge.v}}} lies on no triangle")
        self.edge = edge


class ConstructionUnavailable(DomainError):
    """No construction of the requested kind exists for these parameters."""


class NotAFixture(DomainError):
    """The requested fixture order is not one of the transcribed drawings."""


class InfeasibleParity(TridecompError):
    """No multiset of existing edges can make every degree even."""


class CapInfeasible(TridecompError):
    """No augmentation within the per-edge copy cap is decomposable."""


class ScaleLimit(TridecompError):
    """The input exceeds the documented exhaustive-search ceiling."""


class InvariantViolation(TridecompError):
    """An internal self-check failed; this signals a bug, not bad input."""


@dataclass(frozen=True, order=True)
class EdgeKey:
    """Canonical unordered vertex pair: u < v, no loops."""

    u: int
    v: int

    def __post_init__(self) -> None:
        if not (isinstance(self.u, int) and isinstance(self.v, int)):
            raise DomainError(f"edge endpoints must be integers, got ({self.u!r}, {self.v!r})")
        if self.u < 0:
            raise DomainError(f"negative vertex {self.u}")
        if self.u >= self.v:
            raise DomainError(f"edge endpoints must satisfy u < v, got ({self.u}, {self.v})")

    def as_pair(self) -> Tuple[int, int]:
        return (self.u, self.v)


def edge(u: int, v: int) -> EdgeKey:
    """EdgeKey from endpoints in either order."""
    if u == v:
        raise DomainError(f"loop at vertex {u} is not allowed")
    return EdgeKey(u, v) if u < v else EdgeKey(v, u)


@dataclass(frozen=True, order=True)
class Triangle:
    """Vertex triple a < b < c."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if not (0 <= self.a < self.b < self.c):
            raise DomainError(f"triangle vertices must satisfy 0 <= a < b < c, got ({self.a}, {self.b}, {self.c})")

    def edges(self) -> Tuple[EdgeKey, EdgeKey, EdgeKey]:
        return (EdgeKey(self.a, self.b), EdgeKey(self.a, self.c), EdgeKey(self.b, self.c))

    def as_triple(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)


def triangle(a: int, b: int, c: int) -> Triangle:
    """Triangle from vertices in any order."""
    x, y, z = sorted((a, b, c))
    if x == y or y == z:
        raise DomainError(f"triangle vertices must be distinct, got ({a}, {b}, {c})")
    return Triangle(x, y, z)


class Multigraph:
    """Immutable-by-convention multigraph: vertex count plus EdgeKey -> multiplicity.

    Absent key means multiplicity 0; stored multiplicities are always >= 1.
    """

    __slots__ = ("order", "_mult")

    def __init__(self, order: int, multiplicities: Optional[Dict[EdgeKey, int]] = None):
        if order < 0:
            raise DomainError(f"order must be nonnegative, got {order}")
        self.order = order
        mult: Dict[EdgeKey, int] = {}
        for e, m in (multiplicities or {}).items():
            if not isinstance(e, EdgeKey):
                raise DomainError(f"edge keys must be EdgeKey, got {e!r}")
            if e.v >= order:
                raise DomainError(f"edge {{{e.u},{e.v}}} exceeds order {order}")
            if m < 1:
                raise DomainError(f"multiplicity of {{{e.u},{e.v}}} must be >= 1, got {m}")
            mult[e] = m
        self._mult = mult

    @classmethod
    def from_edges(cls, order: int, edges: Iterable) -> "Multigraph":
        """Build from (u, v) or (u, v, mult) entries; repeats accumulate."""
        mult: Dict[EdgeKey, int] = {}
        for item in edges:
            if len(item) == 2:
                u, v = item
                m = 1
            else:
                u, v, m = item
            e = edge(u, v)
            mult[e] = mult.get(e, 0) + m
        return cls(order, mult)

    def multiplicity(self, e: EdgeKey) -> int:
        return self._mult.get(e, 0)

    def has_edge(self, e: EdgeKey) -> bool:
        return e in self._mult

    def edges(self) -> List[EdgeKey]:
        """Present edges, sorted."""
        return sorted(self._mult)

    def items(self) -> List[Tuple[EdgeKey, int]]:
        """(edge, multiplicity) pairs, sorted by edge."""
        return sorted(self._mult.items())

    def size(self) -> int:
        """Total number of edge copies."""
        return sum(self._mult.values())

    def simple_size(self) -> int:
        """Number of distinct present edges."""
        return len(self._mult)

    def is_simple(self) -> bool:
        return all(m == 1 for m in self._mult.values())

    def neighbors(self, v: int) -> List[int]:
        """Distinct adjacent vertices, sorted."""
        if not (0 <= v < self.order):
            raise DomainError(f"vertex {v} out of range for order {self.order}")
        out = set()
        for e in self._mult:
            if e.u == v:
                out.add(e.v)
            elif e.v == v:
                out.add(e.u)
        return sorted(out)

    def adjacency(self) -> List[List[int]]:
        """Neighbor lists for all vertices at once (sorted per vertex)."""
        sets: List[set] = [set() for _ in range(self.order)]
        for e in self._mult:
            sets[e.u].add(e.v)
            sets[e.v].add(e.u)
        return [sorted(s) for s in sets]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.order == other.order and self._mult == other._mult

    def __hash__(self):  # pragma: no cover - documents unhashability
        raise TypeError("Multigraph is not hashable")

    def __repr__(self) -> str:
        return f"Multigraph(order={self.order}, size={self.size()})"

    def to_json_dict(self) -> dict:
        """The on-disk shape: {"order": n, "edges": [[u, v, mult], ...]} sorted."""
        return {
            "order": self.order,
            "edges": [[e.u, e.v, m] for e, m in self.items()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Multigraph":
        if not isinstance(data, dict) or "order" not in data or "edges" not in data:
            raise DomainError("graph JSON must have 'order' and 'edges' fields")
        order, edges = data["order"], data["edges"]
        # type() rather than isinstance(): JSON booleans are not integers.
        if type(order) is not int:
            raise DomainError(f"graph order must be an integer, got {order!r}")
        if not isinstance(edges, (list, tuple)):
            raise DomainError(f"graph 'edges' must be a list, got {edges!r}")
        mult: Dict[EdgeKey, int] = {}
        for entry in edges:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise DomainError(f"edge entries must be [u, v, mult], got {entry!r}")
            u, v, m = entry
            if not all(type(x) is int for x in (u, v, m)):
                raise DomainError(f"edge entries must be integers, got {entry!r}")
            e = edge(u, v)
            if e in mult:
                raise DomainError(f"duplicate edge entry {{{e.u},{e.v}}}")
            mult[e] = m
        return cls(order, mult)


def degree_sequence(g: Multigraph) -> List[int]:
    """Degrees of all vertices in one pass."""
    deg = [0] * g.order
    for e, m in g._mult.items():
        deg[e.u] += m
        deg[e.v] += m
    return deg


def complete_graph(n: int) -> Multigraph:
    return Multigraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise DomainError(f"a cycle needs at least 3 vertices, got {n}")
    return Multigraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
