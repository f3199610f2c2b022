"""The construction envelope, its one verifier, and the predicates it calls.

ConstructionResult bundles a family member: the base graph, the parallel
copies to add, a triangle certificate for the augmented graph, the claimed
augmentation count and the structure field of its family.
ConstructionResult.to_json_dict writes the JSON that ``construct`` prints
and from_json_dict reads it back.  verify_construction rechecks a result
from scratch as an ordered list of (ok, message) lines: first the count,
residue and coverage lines of ``graph_core._answer_checks``, then the
structure checks of its family, then a fail line if its parameters or its
count break its family's rule.  Each rule but sf's fixes the count at the
least its graph can take, so no family's count is stated or proved
elsewhere.  It is the package's one envelope checker: ``verify`` prints
its lines, and ``families.validate_construction`` raises its first
failure before ``construct`` or either sweep prints.

The structural predicates are is_eulerian (every degree even, one edge
component) and is_maximal_outerplanar, the package's one chord-set check.
Each check has one copy: the degree, size and triangle conditions of a
decomposition in ``graph_core.fast_reject``, and here the chord crossing
test, _crossing_chords, and one connectivity walk, _edges_connected.  All
run in polynomial time.

A rotation system lists, for every vertex, the cyclic order of its incident
edge ends as (neighbor, copy index) pairs.  Tracing: after arriving at v
along some edge end, leave along the next end in v's rotation; the orbits
of that rule are the faces, and V - E + F gives the Euler characteristic
and hence the genus of the implied orientable surface.

The constructors live in ``families`` and the search in ``decomposer``;
``verify`` and ``faces`` load neither, only this module over
``graph_core``.  verify_construction calls the core checks and coverage
through the ``graph_core`` module object and the predicates by their
global names, so a rebound module attribute (a test double, a tracing
wrapper) is the one that runs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from . import graph_core
from .graph_core import (
    Augmentation,
    Decomposition,
    DomainError,
    Multigraph,
    _check,
    _check_int,
    _json_rows,
    _shown,
    degree_sequence,
    edge,
    triangle,
)

# One verifier line: True "ok", False "fail", None informational.
Check = tuple[bool | None, str]

class RotationSystem(namedtuple("RotationSystem", "order rotations")):
    """Cyclic edge-end orders: rotations[v] is a tuple of (neighbor, copy).

    Each vertex's row passes ``_json_rows``, whether it comes from JSON or
    from code, so a bad row gets one message either way; only the ranges,
    loops and copy indices are checked here.  List rows and entries are
    kept as tuples, so each system is one hashable value.
    """

    __slots__ = ()

    def __new__(
        cls, order: int, rotations: tuple[tuple[tuple[int, int], ...], ...]
    ) -> "RotationSystem":
        _check_int(order, least=0)
        if not isinstance(rotations, (list, tuple)):
            raise DomainError(
                f"rotations must be a list of per-vertex lists, got {_shown(rotations)}"
            )
        if len(rotations) != order:
            raise DomainError(
                f"expected {order} rotation lists, got {len(rotations)}"
            )
        rows = []
        for v, rot in enumerate(rotations):
            for u, c in _json_rows(rot, 2, f"rotation of vertex {v}"):
                if not 0 <= u < order:
                    raise DomainError(f"neighbor {_shown(u)} at vertex {v} out of range")
                if u == v:
                    raise DomainError(f"loop at vertex {v}")
                if c < 0:
                    raise DomainError(f"copy index {_shown(c)} at vertex {v} invalid")
            rows.append(tuple((u, c) for u, c in rot))
        return tuple.__new__(cls, (order, tuple(rows)))

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
        return cls(len(raw) if type(raw) is list else 0, raw)


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


def _crossing_chords(chords: Iterable[tuple[int, int]]) -> tuple | None:
    """Two crossing chords of a convex polygon, or None; the package's one such test.

    Chords are distinct position pairs (a, b), a < b, sorted by a and then
    by b descending, so a chord comes after every chord that contains it.
    A stack holds the chords still open at a; their ends never increase
    towards the top.  Chords ending at or before a are popped, and (a, b)
    crosses an open chord exactly when b passes the end of the one on top.
    O(c log c) for c chords.
    """
    open_chords: list[tuple[int, int]] = []
    for a, b in sorted(chords, key=lambda chord: (chord[0], -chord[1])):
        while open_chords and open_chords[-1][1] <= a:
            open_chords.pop()
        if open_chords and b > open_chords[-1][1]:
            return open_chords[-1], (a, b)
        open_chords.append((a, b))
    return None


def is_maximal_outerplanar(g: Multigraph, outer: Sequence[int]) -> bool:
    """True iff g is a triangulation of the cycle given by the outer order.

    outer must be a permutation of the vertices, each an int as in
    ``_json_rows`` (DomainError otherwise); the check is that g is simple,
    every consecutive outer pair is an edge, the size is 2n-3, and the
    remaining edges are pairwise non-crossing chords of that cycle, by
    _crossing_chords.
    """
    n = g.order
    if not (isinstance(outer, Sequence) and all(type(v) is int for v in outer)
            and sorted(outer) == list(range(n))):
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


class ConstructionResult(
    namedtuple(
        "ConstructionResult",
        "family parameters graph augmentation certificate claimed_epsilon"
        " outer_cycle faces rotation",
        defaults=(None, None, None),
    )
):
    """A constructed graph together with its decomposability witness data.

    Fields: family (str), parameters (name -> int), graph (Multigraph),
    augmentation (Augmentation), certificate (Decomposition), claimed_epsilon
    (int), and the optional structure fields outer_cycle (vertex tuple),
    faces (Triangle tuple) and rotation (RotationSystem).
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The envelope that construct prints; absent structure fields are left out."""
        out = {
            "family": self.family,
            "parameters": dict(self.parameters),
            "epsilon": self.claimed_epsilon,
            "graph": self.graph.to_json_dict(),
            "augmentation": self.augmentation.to_json_list(),
            "certificate": self.certificate.to_json_dict(),
        }
        if self.outer_cycle is not None:
            out["outer_cycle"] = list(self.outer_cycle)
        if self.faces is not None:
            out["faces"] = [list(t) for t in self.faces]
        if self.rotation is not None:
            out["rotation"] = self.rotation.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstructionResult":
        """Read an envelope back; DomainError on a missing or malformed field."""
        if not isinstance(data, dict):
            raise DomainError("envelope JSON must be an object")
        for key in ("family", "epsilon", "graph", "augmentation", "certificate"):
            if key not in data:
                raise DomainError(f"envelope is missing the '{key}' field")
        graph = Multigraph.from_json_dict(data["graph"])
        augmentation = Augmentation.from_json_list(data["augmentation"])
        certificate = Decomposition.from_json_dict(data["certificate"])
        family, eps, params = data["family"], data["epsilon"], data.get("parameters", {})
        outer, faces, rotation = (data.get(k) for k in ("outer_cycle", "faces", "rotation"))
        if not isinstance(family, str):
            raise DomainError(f"'family' must be a string, got {_shown(family)}")
        if type(eps) is not int:
            raise DomainError(f"'epsilon' must be an integer, got {_shown(eps)}")
        if not isinstance(params, dict):
            raise DomainError(f"'parameters' must map names to integers, got {_shown(params)}")
        _json_rows(list(params.values()), None, "'parameters' values")
        if rotation is not None:
            rotation = RotationSystem.from_json_dict(rotation)
        return cls(
            family, params, graph, augmentation, certificate, eps,
            outer_cycle=None if outer is None else tuple(_json_rows(outer, None, "'outer_cycle'")),
            faces=None if faces is None else tuple(
                [triangle(a, b, c) for a, b, c in _json_rows(faces, 3, "'faces'")]),
            rotation=rotation,
        )


def _hmp_cycle(n: int) -> list[int] | None:
    """The Hamiltonian cycle that ``hmp_construct(n)`` builds, or None if it builds none.

    The cycle runs 0, 1, ..., n - 3 with the apexes n - 2 and n - 1 spliced
    in: after 0 and at the end for even n, around 3 for odd n.
    """
    if n < 6 or n == 7:
        return None
    if n % 2 == 0:
        return [0, n - 2, *range(1, n - 2), n - 1]
    return [0, 1, 2, n - 2, 3, n - 1, *range(4, n - 2)]


def verify_construction(result: ConstructionResult) -> list[Check]:
    """Recheck a construction from scratch: the core checks, then its family's.

    One table holds each family's rule, its parameters beside its count:
    n is the order, and kop's k >= 1 rings of m >= 3 vertices hold all
    m * k of them.  The count is the least the graph can take: the residue
    itself for mop, kop, hmp and sc2tree, as the residue line shows; for a
    fan, the packing bound of its path edges (i, i + 1), 1 <= i <= n - 2,
    which no triangle pairs; for sc3, 3 on exactly its simple graph, whose
    size is 0 mod 3 and whose vertex 0 has odd degree 3.  An intermediate
    member claims n mod 3 + 3r, and sf, whose drawn additions are not
    least, has no count rule.  Only the family's own rule runs.  If it
    fails, one line fails after the structure checks; kop's ring line,
    which reads m and k, runs only when they describe the order.

    A structure field that the checks cannot use, such as an outer cycle
    that is not a permutation of the vertices, raises DomainError.  A
    family that no constructor makes gets one failing line, since none of
    its structure can be checked.
    """
    g, family, count = result.graph, result.family, result.claimed_epsilon
    p, n = result.parameters, g.order
    m, k, r = p.get("m"), p.get("k"), p.get("r")
    rings = type(m) is int and type(k) is int and m >= 3 and k >= 1 and m * k == n
    described = {
        "kop": lambda: rings and count == count % 3,
        "intermediate": lambda: p.get("n") == n and type(r) is int and n % 3 + 3 * r == count,
        "fan": lambda: p.get("n") == n and count == graph_core._packing_bound(
            g, [edge(i, i + 1) for i in range(1, n - 1)]),
        # sc3's graph: K4 on 0..3, the chain 3..n-1, and hubs 1 and 2 on the chain from 4.
        "sc3": lambda: p.get("n") == n and count == 3 and g.is_simple() and set(g.edges()) == (
            {edge(a, b) for b in range(4) for a in range(b)}
            | {edge(a, a + 1) for a in range(3, n - 1)}
            | {edge(h, v) for h in (1, 2) for v in range(4, n)}),
        "sf": lambda: p.get("n") == n,
    }.get(family, lambda: p.get("n") == n and count == count % 3)()
    checks = graph_core._answer_checks(g, result.augmentation, result.certificate, count)
    if family in ("mop", "fan", "intermediate", "sc2tree"):
        if result.outer_cycle is None:
            checks.append((False, "triangulated-cycle envelope has no outer cycle"))
        else:
            checks.append(_check(is_maximal_outerplanar(g, result.outer_cycle),
                                 "maximal outerplanar on the given outer cycle",
                                 "not maximal outerplanar on the given outer cycle"))
    elif family == "hmp":
        if result.faces is None:
            checks.append((False, "triangulation envelope has no face list"))
        else:
            doubled = Multigraph(g.order, {e: 2 for e in g.edges()})
            chi = g.order - g.size() + len(result.faces)
            checks += [
                _check(graph_core.coverage_error(doubled, Decomposition(result.faces)) is None,
                       "every edge lies on exactly two faces",
                       "face list does not cover every edge exactly twice"),
                _check(chi == 2, "V - E + F = 2", f"V - E + F = {chi}, expected 2"),
            ]
        cycle = _hmp_cycle(g.order)
        if cycle is None:
            checks.append((False, f"no hmp member has order {g.order}"))
        else:
            gap = next((pair for pair in zip(cycle, cycle[1:] + cycle[:1])
                        if not g.has_edge(edge(*pair))), None)
            checks.append(_check(gap is None, "hamiltonian cycle found",
                                 f"hamiltonian cycle edge {gap} missing"))
        checks.append(_check(is_eulerian(g), "all degrees even and the graph is connected",
                             "graph is not eulerian"))
    elif family == "sf":
        if result.rotation is None:
            checks.append((False, "fixture envelope has no rotation system"))
        else:
            trace = trace_faces(result.rotation)
            rotation_edges = {edge(v, u) for v, rot in enumerate(result.rotation.rotations)
                              for u, _c in rot}
            checks += [
                (None, f"genus: {trace.genus}"),
                _check(trace.genus == 1, "rotation system embeds the graph on the torus",
                       f"rotation system has genus {trace.genus}, expected 1"),
                _check(any(set(face) == set(range(g.order)) for face in trace.faces),
                       "one face visits every vertex", "no face visits every vertex"),
                _check(rotation_edges == set(g.edges()),
                       "rotation system covers exactly the graph edges",
                       "rotation system edges differ from the graph edges"),
            ]
    elif family == "kop":
        if rings:
            ring = ((j * m + i, j * m + (i + 1) % m) for j in range(k) for i in range(m))
            gap = next((pair for pair in ring if not g.has_edge(edge(*pair))), None)
            outer = tuple(range((k - 1) * m, k * m))
            checks.append(_check(gap is None and result.outer_cycle == outer,
                                 f"all {k} layer rings present",
                                 f"ring edge {gap} missing" if gap else
                                 f"outer cycle is not the outermost ring {outer[0]}..{outer[-1]}"))
    elif family != "sc3":
        return checks + [(False, f"no family is named {_shown(family)}")]
    if not described:
        checks.append((False, f"parameters {_shown(p)} do not describe this {family} envelope"))
    return checks
