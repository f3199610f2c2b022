"""Multigraph value types, JSON shape, and the one checker of every printed answer.

Vertices are dense integers 0..n-1.  Edges are unordered pairs with a
positive multiplicity; loops are forbidden.  All listings are sorted
lexicographically so that every consumer sees a deterministic order.

``_json_rows`` is the one shape check of rows of integers: every reader of
a graph, an augmentation, a triangle list or an outer cycle passes its JSON
list through it, and so does ``RotationSystem`` with each vertex's list or
tuple of edge ends, whether read from JSON or built in code; each checks
only ranges and meaning itself.
Its messages, and every other reader's, show an input value through
``_shown``, so a bad container is not printed back whole.  ``_check_int``
is the one integer check of an order or a count passed in by a caller, and
with ``least`` given also its one range check.

The two ceilings live here too: ORDER_LIMIT on the vertex count of a
graph, and STEP_LIMIT on the steps of every exhaustive search, whose
refusal ``_step_limit`` builds.  Both raise ScaleLimit (exit 3).

Every answer is an Augmentation and a Decomposition of the augmented graph,
checked here with no search: _answer_checks makes the count, residue and
coverage lines that ``verify`` prints.  _recheck, the one loop that refuses
to print, raises the first False line of a check list as
InvariantViolation: of _answer_checks before ``epsilon`` or ``decompose``
prints, and of verify's whole envelope checker, through
``families.validate_construction``, before ``construct`` or ``sweep``
prints.  _packing_bound is the matching lower bound: the least
count any augmentation can add, read off edges that no triangle pairs.
fast_reject is the screen ``decompose`` runs before it loads ``decomposer``.

Every record is an immutable tuple: a named tuple of its fields, or for a
multiset a ``_SortedItems`` tuple of its sorted items; ``dataclasses``
would cost every command its import and a class build per record.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

# Largest vertex count a Multigraph accepts.  Degree sequences and adjacency
# lists take memory in proportion to the order, so a larger order is refused
# with ScaleLimit before anything is allocated; the family constructors
# refuse it before they list a single edge.  The exact searches stop far
# below it; the largest graphs in use, such as `construct hmp 1000`, have
# order 1000.
ORDER_LIMIT = 100_000

# Most steps an exhaustive search takes before it gives up with ScaleLimit,
# built by _step_limit: a listed triangle; each listed triangulation's
# 2n - 3 edges, in the sweep's listing of triangulated n-cycles; in the cover
# search, the only exhaustive search, a chosen triangle, an edge a set-up
# reads, or a triangle of a set-up whose root tests pass, each counted over
# every solve() call on one CoverInstance.  It is kept at ten times the
# largest known-good search or more (measured in CHANGES.md).  Each search
# reads the limit when it starts.
STEP_LIMIT = 10**6


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


class CapInfeasible(TridecompError):
    """No augmentation within the per-edge copy cap is decomposable."""


class ScaleLimit(TridecompError):
    """The input exceeds the documented exhaustive-search ceiling."""


class InvariantViolation(TridecompError):
    """An internal self-check failed; this signals a bug, not bad input."""


def _shown(value) -> str:
    """repr(value) for an error message, cut to 80 characters plus "..."."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def _json_rows(value, width: int | None, name: str) -> list | tuple:
    """value if it is a list or tuple of rows of width integers, else DomainError.

    Each row too may be a list or a tuple: JSON gives lists, and a caller
    in code, such as ``RotationSystem``, may give tuples.  width None asks
    for a flat list of integers instead.  type() rather than isinstance():
    JSON booleans are not integers.  Plain loops, since they beat
    whole-list passes through map() and set() here.
    """
    if type(value) is not list and type(value) is not tuple:
        raise DomainError(f"{name}: expected a list, got {_shown(value)}")
    if width is None:
        for x in value:
            if type(x) is not int:
                raise DomainError(f"{name}: expected integers, got {_shown(x)}")
        return value
    for row in value:
        if (type(row) is list or type(row) is tuple) and len(row) == width:
            for x in row:
                if type(x) is not int:
                    break
            else:
                continue
        raise DomainError(f"{name}: expected lists of {width} integers, got {_shown(row)}")
    return value


def _step_limit(what: str) -> ScaleLimit:
    """The refusal of a search that took more than STEP_LIMIT steps."""
    return ScaleLimit(f"{what} exceeds the ceiling of {STEP_LIMIT} steps")


def _check_int(x, name: str = "order", least: int | None = None) -> None:
    """Refuse x with DomainError unless it is an integer, and not below least.

    type() rather than isinstance(), as in _json_rows: True is no order.
    Every public entry point that takes a count or an order starts here.
    """
    if type(x) is not int:
        raise DomainError(f"{name} must be an integer, got {_shown(x)}")
    if least is not None and x < least:
        raise DomainError(f"{name} must be >= {least}, got {x}")


def _check_multiplicity(e: "EdgeKey", m) -> None:
    """Refuse m with DomainError unless it is an integer >= 1.

    type() rather than isinstance(), as in _json_rows: True is no count.
    """
    if type(m) is not int or m < 1:
        raise DomainError(
            f"multiplicity of {{{e.u},{e.v}}} must be an integer >= 1, got {_shown(m)}"
        )


def _check_order(order: int) -> None:
    """Refuse an order above ORDER_LIMIT with ScaleLimit."""
    if order > ORDER_LIMIT:
        raise ScaleLimit(f"order {order} exceeds the ceiling of {ORDER_LIMIT} vertices")


class EdgeKey(namedtuple("EdgeKey", "u v")):
    """Canonical unordered vertex pair: u < v, no loops.

    A tuple, so it hashes, compares and sorts as (u, v).
    """

    __slots__ = ()

    def __new__(cls, u: int, v: int) -> "EdgeKey":
        if not (type(u) is int and type(v) is int):
            raise DomainError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
        if u < 0:
            raise DomainError(f"negative vertex {u}")
        if u >= v:
            raise DomainError(f"edge endpoints must satisfy u < v, got ({u}, {v})")
        return tuple.__new__(cls, (u, v))


def edge(u: int, v: int) -> EdgeKey:
    """EdgeKey from endpoints in either order.

    Endpoints that are not both integers go to EdgeKey as they are, so its
    own check refuses them before a comparison could raise TypeError.
    """
    if type(u) is not int or type(v) is not int or u < v:
        return EdgeKey(u, v)
    if u == v:
        raise DomainError(f"loop at vertex {u} is not allowed")
    return EdgeKey(v, u)


def _as_edge(item) -> EdgeKey:
    """An EdgeKey as it is, a vertex pair through edge(), anything else DomainError."""
    if item.__class__ is EdgeKey:
        return item
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return edge(*item)
    raise DomainError(f"expected an edge (u, v), got {_shown(item)}")


class Triangle(namedtuple("Triangle", "a b c")):
    """Vertex triple a < b < c; a tuple, so it sorts as (a, b, c)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> "Triangle":
        if not (type(a) is int and type(b) is int and type(c) is int):
            raise DomainError(f"triangle vertices must be integers, got ({a!r}, {b!r}, {c!r})")
        if not (0 <= a < b < c):
            raise DomainError(f"triangle vertices must satisfy 0 <= a < b < c, got ({a}, {b}, {c})")
        return tuple.__new__(cls, (a, b, c))

    def edges(self) -> tuple[EdgeKey, EdgeKey, EdgeKey]:
        # a < b < c was checked when the triangle was made, so the three
        # pairs are canonical and skip EdgeKey's checks.
        a, b, c = self
        new = tuple.__new__
        return (new(EdgeKey, (a, b)), new(EdgeKey, (a, c)), new(EdgeKey, (b, c)))


def triangle(a: int, b: int, c: int) -> Triangle:
    """Triangle from vertices in any order.

    Vertices that are not all integers go to Triangle as they are, so its
    own check refuses them before sorting could raise TypeError.
    """
    if not type(a) is type(b) is type(c) is int:
        return Triangle(a, b, c)
    x, y, z = sorted((a, b, c))
    if x == y or y == z:
        raise DomainError(f"triangle vertices must be distinct, got ({a}, {b}, {c})")
    return Triangle(x, y, z)


def _as_triangle(item) -> Triangle:
    """A Triangle as it is, a vertex triple through triangle(), anything else DomainError."""
    if item.__class__ is Triangle:
        return item
    if isinstance(item, (list, tuple)) and len(item) == 3:
        return triangle(*item)
    raise DomainError(f"expected a triangle (a, b, c), got {_shown(item)}")


class Multigraph:
    """Immutable-by-convention multigraph: vertex count plus EdgeKey -> multiplicity.

    Absent key means multiplicity 0; stored multiplicities are always >= 1.
    """

    __slots__ = ("order", "_mult")

    def __init__(self, order: int, multiplicities: dict[EdgeKey, int] | None = None):
        _check_int(order, least=0)
        _check_order(order)
        self.order = order
        mult: dict[EdgeKey, int] = {}
        for e, m in (multiplicities or {}).items():
            if not isinstance(e, EdgeKey):
                raise DomainError(f"edge keys must be EdgeKey, got {e!r}")
            if e.v >= order:
                raise DomainError(f"edge {{{e.u},{e.v}}} exceeds order {order}")
            _check_multiplicity(e, m)
            mult[e] = m
        self._mult = mult

    @classmethod
    def from_edges(cls, order: int, edges: Iterable) -> "Multigraph":
        """Build from (u, v) or (u, v, mult) lists or tuples; repeats accumulate."""
        mult: dict[EdgeKey, int] = {}
        for item in edges:
            if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
                raise DomainError(f"expected an edge (u, v) or (u, v, mult), got {_shown(item)}")
            if len(item) == 2:
                u, v = item
                m = 1
            else:
                u, v, m = item
            e = edge(u, v)
            _check_multiplicity(e, m)
            mult[e] = mult.get(e, 0) + m
        return cls(order, mult)

    def multiplicity(self, e: EdgeKey) -> int:
        return self._mult.get(e, 0)

    def has_edge(self, e: EdgeKey) -> bool:
        return e in self._mult

    def edges(self) -> list[EdgeKey]:
        """Present edges, sorted."""
        return sorted(self._mult)

    def items(self) -> list[tuple[EdgeKey, int]]:
        """(edge, multiplicity) pairs, sorted by edge."""
        return sorted(self._mult.items())

    def size(self) -> int:
        """Total number of edge copies."""
        return sum(self._mult.values())

    def is_simple(self) -> bool:
        return all(m == 1 for m in self._mult.values())

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists for all vertices at once (sorted per vertex)."""
        sets: list[set] = [set() for _ in range(self.order)]
        for e in self._mult:
            sets[e.u].add(e.v)
            sets[e.v].add(e.u)
        return [sorted(s) for s in sets]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.order == other.order and self._mult == other._mult

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
        order = data["order"]
        _check_int(order, "graph order")
        rows = _json_rows(data["edges"], 3, "graph 'edges'")
        mult = {edge(u, v): m for u, v, m in rows}
        if len(mult) < len(rows):
            seen = set()
            for u, v, _m in rows:
                e = edge(u, v)
                if e in seen:
                    raise DomainError(f"duplicate edge entry {{{e.u},{e.v}}}")
                seen.add(e)
        return cls(order, mult)


class _SortedItems(tuple):
    """A frozen record that is the sorted tuple of its items, repeats included.

    It equals only a record of its own type with the same items, hashes as
    the tuple of its one field and prints as Name(field=...); _field names
    that field, a read-only property giving the items as a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, items: Iterable):
        return tuple.__new__(cls, sorted(items))

    # False, not NotImplemented, for another class: Python would fall back
    # to tuple.__eq__ on a plain tuple's side and equate (e,) with a record.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((tuple(self),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._field}={tuple(self)!r})"


class Augmentation(_SortedItems):
    """A multiset of edges to duplicate, kept sorted; each item an EdgeKey or a vertex pair."""

    __slots__ = ()
    _field = "additions"
    additions = property(tuple)

    def __new__(cls, items: Iterable):
        return _SortedItems.__new__(cls, map(_as_edge, items))

    def to_json_list(self) -> list:
        return [[e.u, e.v] for e in self]

    @classmethod
    def from_json_list(cls, data: list) -> "Augmentation":
        return cls(_json_rows(data, 2, "'augmentation'"))


def apply_augmentation(g: Multigraph, aug: Iterable) -> Multigraph:
    """g with one extra parallel copy added per listed edge (repeats stack).

    Each item is an EdgeKey or a vertex pair in either order, as in Augmentation.
    """
    mult: dict[EdgeKey, int] = {e: m for e, m in g.items()}
    for item in aug:
        e = _as_edge(item)
        if e not in mult:
            raise AugmentNonAdjacent(f"cannot add copies of absent edge ({e.u}, {e.v})")
        mult[e] += 1
    return Multigraph(g.order, mult)


class Decomposition(_SortedItems):
    """A multiset of triangles, kept sorted; repeats are meaningful.

    Each item is a Triangle or a vertex triple in any order.
    """

    __slots__ = ()
    _field = "triangles"
    triangles = property(tuple)

    def __new__(cls, items: Iterable):
        return _SortedItems.__new__(cls, map(_as_triangle, items))

    def to_json_dict(self) -> dict:
        return {"triangles": [list(t) for t in self]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        if not isinstance(data, dict) or "triangles" not in data:
            raise DomainError("certificate JSON must have a 'triangles' field")
        return cls(_json_rows(data["triangles"], 3, "certificate 'triangles'"))


class RejectReason(namedtuple("RejectReason", "kind vertex edge", defaults=(None, None))):
    """A cheap necessary-condition failure: (kind, vertex=None, edge=None).

    kind is one of "size_not_divisible", "odd_vertex", "edge_not_on_triangle";
    the vertex / edge fields carry the witness where applicable.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.edge is not None:
            out["edge"] = [self.edge.u, self.edge.v]
        return out


def coverage_error(g: Multigraph, d: Decomposition) -> tuple[str, EdgeKey] | None:
    """First coverage defect as (kind, edge), or None if the certificate is valid.

    kind is "undercovered", "overcovered", or "notanedge"; the defect with the
    lexicographically least edge is reported.  One pass counts the plain
    vertex pairs of the triangles, and the edges of g are scanned for one
    that no triangle meets.
    """
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in d:
        for pair in ((a, b), (a, c), (b, c)):
            counts[pair] = counts.get(pair, 0) + 1
    mult = g._mult  # EdgeKey hashes and compares as its (u, v) tuple
    defects = [(e, "undercovered") for e in mult if e not in counts]
    for pair, c in counts.items():
        m = mult.get(pair, 0)
        if c != m:
            kind = "notanedge" if m == 0 else "overcovered" if c > m else "undercovered"
            defects.append((pair, kind))
    if not defects:
        return None
    (u, v), kind = min(defects)
    return (kind, EdgeKey(u, v))


def _check(ok: bool, good: str, bad: str) -> tuple[bool, str]:
    return (ok, good if ok else bad)


def _answer_checks(g: Multigraph, aug: Augmentation, cert: Decomposition,
                   count: int) -> list[tuple[bool, str]]:
    """The count, residue and coverage lines of an answer, as ``verify`` prints them.

    coverage_error and apply_augmentation are looked up when called, so a rebound one runs.
    """
    checks = [
        _check(len(aug) == count, f"augmentation lists {count} added copies",
               f"augmentation lists {len(aug)} added copies, the count is {count}"),
        _check(count % 3 == (-g.size()) % 3, "count matches the divisibility residue",
               f"count {count} cannot make size {g.size()} divisible by 3"),
    ]
    try:
        augmented = apply_augmentation(g, aug)
    except DomainError as exc:
        return checks + [(False, f"augmentation lists an absent edge: {exc}")]
    defect = coverage_error(augmented, cert)
    if defect is None:
        return checks + [(True, "certificate covers every edge exactly")]
    kind, e = defect
    return checks + [(False, f"edge {{{e.u}, {e.v}}} {kind}")]


def _recheck(checks: Iterable[tuple[bool | None, str]]) -> None:
    """Refuse to print what fails a check list: InvariantViolation with its first False line."""
    for ok, message in checks:
        if ok is False:
            raise InvariantViolation(message)


def _packing_bound(g: Multigraph, edges: Iterable[EdgeKey]) -> int | None:
    """The least count any augmentation of g can add, read off edges no triangle pairs.

    A decomposition of g plus k - size copies takes a triangle for each
    copy of each listed edge, and no triangle serves two when no triangle
    of g holds two listed edges: so k >= sum of their multiplicities, and
    the count 3k - size is at least 3 * that sum - size, and at least the
    residue (-size) % 3.  None when an edge is absent from g or a triangle,
    found through the common neighbours of each edge, holds two of them.
    """
    edges = set(edges)
    adj = [set(ns) for ns in g.adjacency()]
    total = 0
    for e in edges:
        m = g.multiplicity(e)
        if m == 0 or any(edge(e.u, w) in edges or edge(e.v, w) in edges
                         for w in adj[e.u] & adj[e.v]):
            return None
        total += m
    size = g.size()
    return max(3 * total - size, (-size) % 3)


def fast_reject(g: Multigraph) -> RejectReason | None:
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
    return None if e is None else RejectReason("edge_not_on_triangle", edge=e)


def _edge_off_triangles(g: Multigraph) -> EdgeKey | None:
    """The least edge of g lying on no triangle, or None."""
    adj = [set(ns) for ns in g.adjacency()]
    for e in g.edges():
        if adj[e.u].isdisjoint(adj[e.v]):  # stops at the first common neighbour
            return e
    return None


def degree_sequence(g: Multigraph) -> list[int]:
    """Degrees of all vertices in one pass."""
    deg = [0] * g.order
    for e, m in g._mult.items():
        deg[e.u] += m
        deg[e.v] += m
    return deg

