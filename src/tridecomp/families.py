"""Graph families with stored minimum augmentations and certificates.

Each constructor returns a ConstructionResult bundling the base graph, the
parallel copies to add, a triangle certificate for the augmented graph, and
the claimed augmentation count.  The triangulated-cycle builder works for
every order by splitting off polygon ears in rounds and recursing on the
inner polygon, with small orders stored as explicit tables; the even planar
triangulations take one colour class of their face 2-colouring as the
certificate.

This module also owns the envelope: ConstructionResult.to_json_dict writes
the JSON that ``construct`` prints and from_json_dict reads it back.
verify_construction rechecks a result from scratch as an ordered list of
(ok, message) lines, the three core checks (augmentation count, divisibility
residue, certificate coverage) first, then the structure checks of its
family; validate_construction runs the core checks only and raises on the
first failure.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from .analysis import (
    RotationSystem,
    find_hamiltonian_cycle,
    is_eulerian,
    is_maximal_outerplanar,
    trace_faces,
)
from .decomposer import (
    Decomposition,
    _triangles_from_json,
    coverage_error,
    find_decomposition,
)
from .graph_core import (
    Augmentation,
    ConstructionUnavailable,
    DomainError,
    EdgeKey,
    InvariantViolation,
    Multigraph,
    NotAFixture,
    Triangle,
    _check_order,
    apply_augmentation,
    edge,
    triangle,
)

# One verifier line: True "ok", False "fail", None informational.
Check = Tuple[Optional[bool], str]

_CYCLE_FAMILIES = ("mop", "fan", "intermediate", "sc2tree", "sc2seed")


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
            out["faces"] = [list(t.as_triple()) for t in self.faces]
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
            raise DomainError(f"'family' must be a string, got {family!r}")
        # type() rather than isinstance(): JSON booleans are not integers.
        if type(eps) is not int:
            raise DomainError(f"'epsilon' must be an integer, got {eps!r}")
        if not (isinstance(params, dict) and all(type(x) is int for x in params.values())):
            raise DomainError(f"'parameters' must map names to integers, got {params!r}")
        if outer is not None and not (
            isinstance(outer, list) and all(type(x) is int for x in outer)
        ):
            raise DomainError(f"'outer_cycle' must be a list of vertices, got {outer!r}")
        return cls(
            family, params, graph, augmentation, certificate, eps,
            outer_cycle=None if outer is None else tuple(outer),
            faces=None if faces is None else _triangles_from_json(faces),
            rotation=None if rotation is None else RotationSystem.from_json_dict(rotation),
        )


def _check(ok: bool, good: str, bad: str) -> Check:
    return (ok, good if ok else bad)


def _core_checks(result: ConstructionResult) -> List[Check]:
    """Augmentation count, divisibility residue and certificate coverage."""
    g, eps, aug = result.graph, result.claimed_epsilon, result.augmentation
    checks = [
        _check(len(aug) == eps, f"augmentation lists {eps} added copies",
               f"augmentation lists {len(aug)} added copies, envelope claims {eps}"),
        _check(eps % 3 == (-g.size()) % 3, "count matches the divisibility residue",
               f"count {eps} cannot make size {g.size()} divisible by 3"),
    ]
    try:
        augmented = apply_augmentation(g, aug)
    except DomainError as exc:
        return checks + [(False, f"augmentation lists an absent edge: {exc}")]
    defect = coverage_error(augmented, result.certificate)
    if defect is None:
        return checks + [(True, "certificate covers every edge exactly")]
    kind, e = defect
    return checks + [(False, f"edge {{{e.u}, {e.v}}} {kind}")]


def verify_construction(result: ConstructionResult) -> List[Check]:
    """Recheck a construction from scratch: the core checks, then its family's.

    A structure field that the checks cannot use, such as an outer cycle
    that is not a permutation of the vertices, raises DomainError.
    """
    g, family, checks = result.graph, result.family, _core_checks(result)
    if family in _CYCLE_FAMILIES:
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
                _check(coverage_error(doubled, Decomposition(result.faces)) is None,
                       "every edge lies on exactly two faces",
                       "face list does not cover every edge exactly twice"),
                _check(chi == 2, "V - E + F = 2", f"V - E + F = {chi}, expected 2"),
            ]
        checks += [
            _check(find_hamiltonian_cycle(g) is not None, "hamiltonian cycle found",
                   "no hamiltonian cycle found"),
            _check(is_eulerian(g), "all degrees even and the graph is connected",
                   "graph is not eulerian"),
        ]
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
        m, k = result.parameters.get("m"), result.parameters.get("k")
        if not (isinstance(m, int) and isinstance(k, int) and m >= 3 and k >= 1):
            checks.append((False, "layered envelope has no usable m, k parameters"))
        else:
            ring = ((j * m + i, j * m + (i + 1) % m) for j in range(k) for i in range(m))
            gap = next((p for p in ring if not g.has_edge(edge(*p))), None)
            checks.append(_check(gap is None, f"all {k} layer rings present",
                                 f"ring edge {gap} missing"))
    return checks


def validate_construction(result: ConstructionResult) -> None:
    """Run the core checks; raise InvariantViolation with the first failure."""
    for ok, message in _core_checks(result):
        if not ok:
            raise InvariantViolation(message)


# Triangulations of small polygons: chord list, certificate triangles, and
# the chords that take a second copy, all as positions on the polygon.
# The doubled-chord count always equals the polygon length mod 3.
_MOP_BASES: Dict[int, Tuple[list, list, list]] = {
    3: ([], [(0, 1, 2)], []),
    4: ([(0, 2)], [(0, 1, 2), (0, 2, 3)], [(0, 2)]),
    5: ([(0, 2), (2, 4)], [(0, 1, 2), (2, 3, 4), (0, 2, 4)], [(0, 2), (2, 4)]),
    6: ([(0, 2), (2, 4), (4, 0)], [(0, 1, 2), (2, 3, 4), (4, 5, 0)], []),
    7: (
        [(0, 2), (2, 4), (4, 6), (0, 4)],
        [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 4, 6)],
        [(4, 6)],
    ),
    8: (
        [(0, 2), (2, 4), (4, 6), (0, 6), (0, 4)],
        [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7), (0, 2, 4)],
        [(0, 2), (2, 4)],
    ),
    9: (
        [(0, 2), (2, 4), (4, 6), (6, 8), (4, 8), (0, 4)],
        [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (0, 8, 4)],
        [],
    ),
    10: (
        [(0, 2), (2, 4), (4, 6), (6, 8), (0, 8), (0, 4), (4, 8)],
        [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 0), (0, 4, 8)],
        [(0, 8)],
    ),
    11: (
        [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (0, 4), (4, 10), (6, 10)],
        [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 10), (0, 10, 4), (4, 6, 10)],
        [(4, 10), (4, 6)],
    ),
    12: (
        [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 0), (0, 4), (4, 8), (0, 8)],
        [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 10), (10, 11, 0), (0, 4, 8)],
        [],
    ),
    13: (
        [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 12), (0, 4), (4, 12), (6, 12), (6, 10)],
        [
            (0, 1, 2),
            (2, 3, 4),
            (4, 5, 6),
            (6, 7, 8),
            (8, 9, 10),
            (10, 11, 12),
            (0, 4, 12),
            (6, 10, 12),
        ],
        [(10, 12)],
    ),
    14: (
        [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 12), (0, 12), (0, 4), (4, 8), (0, 8), (0, 10)],
        [
            (0, 1, 2),
            (2, 3, 4),
            (4, 5, 6),
            (6, 7, 8),
            (8, 9, 10),
            (10, 11, 12),
            (0, 12, 13),
            (0, 4, 8),
            (0, 8, 10),
        ],
        [(8, 10), (0, 8)],
    ),
    17: (
        [
            (0, 2),
            (2, 4),
            (4, 6),
            (6, 8),
            (8, 10),
            (10, 12),
            (12, 14),
            (14, 16),
            (0, 4),
            (4, 16),
            (6, 16),
            (6, 10),
            (10, 16),
            (12, 16),
        ],
        [
            (0, 1, 2),
            (2, 3, 4),
            (4, 5, 6),
            (6, 7, 8),
            (8, 9, 10),
            (10, 11, 12),
            (12, 13, 14),
            (14, 15, 16),
            (0, 4, 16),
            (6, 10, 16),
            (10, 12, 16),
        ],
        [(10, 12), (10, 16)],
    ),
}


def _mop_fill(cyc: List[int]) -> Tuple[List[EdgeKey], List[Triangle], List[EdgeKey]]:
    """Triangulate the polygon on cyc: (chords, certificate, doubled chords).

    The certificate covers each polygon edge once, each chord once, and each
    doubled chord twice; the doubled-chord count is len(cyc) mod 3.
    """
    m = len(cyc)
    if m in _MOP_BASES:
        chords_pos, tris_pos, doubles_pos = _MOP_BASES[m]
        return (
            [edge(cyc[a], cyc[b]) for a, b in chords_pos],
            [triangle(cyc[a], cyc[b], cyc[c]) for a, b, c in tris_pos],
            [edge(cyc[a], cyc[b]) for a, b in doubles_pos],
        )
    # Ear rounds: consecutive ears around the polygon, then up to two
    # corrective ears sized so the inner polygon keeps length 0 mod 3
    # relative to m, then a recursion on every fourth position.
    shape = (m // 3 - m % 3) % 4
    chords: List[EdgeKey] = []
    tris: List[Triangle] = []
    for i in range(m // 2):
        a, b, c = 2 * i, 2 * i + 1, (2 * i + 2) % m
        chords.append(edge(cyc[a], cyc[c]))
        tris.append(triangle(cyc[a], cyc[b], cyc[c]))
    if shape in (1, 3):
        # m odd: one ear over positions (m-5 .. m-1 .. 0).
        x = m - 5
        chords.append(edge(cyc[m - 1], cyc[x]))
        chords.append(edge(cyc[x], cyc[0]))
        tris.append(triangle(cyc[0], cyc[m - 1], cyc[x]))
    if shape in (2, 3):
        y1 = m - 4 if shape == 2 else m - 7
        y2 = y1 - 4
        chords.append(edge(cyc[0], cyc[y1]))
        chords.append(edge(cyc[y1], cyc[y2]))
        chords.append(edge(cyc[y2], cyc[0]))
        tris.append(triangle(cyc[0], cyc[y1], cyc[y2]))
    top = m - 4 - 3 * shape
    inner_pos = list(range(0, top + 1, 4))
    for p_, q_ in zip(inner_pos, inner_pos[1:]):
        chords.append(edge(cyc[p_], cyc[q_]))
    chords.append(edge(cyc[top], cyc[0]))
    inner_chords, inner_tris, inner_doubles = _mop_fill([cyc[p] for p in inner_pos])
    return chords + inner_chords, tris + inner_tris, inner_doubles


def mop_construct(n: int) -> ConstructionResult:
    """A triangulated n-cycle whose augmentation count is n mod 3."""
    if n < 3:
        raise DomainError(f"order must be >= 3, got {n}")
    _check_order(n)
    chords, tris, doubles = _mop_fill(list(range(n)))
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs.extend(e.as_pair() for e in chords)
    return ConstructionResult(
        family="mop",
        parameters={"n": n},
        graph=Multigraph.from_edges(n, pairs),
        augmentation=Augmentation(tuple(doubles)),
        certificate=Decomposition(tuple(tris)),
        claimed_epsilon=len(doubles),
        outer_cycle=tuple(range(n)),
    )


def fan(n: int) -> ConstructionResult:
    """The fan triangulation: every chord from vertex 0, all chords doubled.

    Doubling all n-3 chords is unavoidable for this graph, which makes the
    fan the extremal triangulated cycle under the one-copy-per-edge cap.
    """
    if n < 3:
        raise DomainError(f"order must be >= 3, got {n}")
    _check_order(n)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs.extend((0, i) for i in range(2, n - 1))
    return ConstructionResult(
        family="fan",
        parameters={"n": n},
        graph=Multigraph.from_edges(n, pairs),
        augmentation=Augmentation(tuple(edge(0, i) for i in range(2, n - 1))),
        certificate=Decomposition(
            tuple(triangle(0, i, i + 1) for i in range(1, n - 1))
        ),
        claimed_epsilon=n - 3,
        outer_cycle=tuple(range(n)),
    )


def intermediate(n: int, r: int) -> ConstructionResult:
    """A triangulated n-cycle needing exactly (n mod 3) + 3r added copies.

    A fan block of 3r chords at vertex 0 is grafted onto the economical
    triangulation of the remaining polygon; r ranges from 0 (plain
    economical triangulation) to the largest r with (n mod 3) + 3r <= n-3
    (the fan).
    """
    if n < 3:
        raise DomainError(f"order must be >= 3, got {n}")
    if r < 0:
        raise DomainError(f"fan rounds must be >= 0, got {r}")
    if n - 3 * r < 3:
        raise DomainError(
            f"order {n} admits at most {(n - 3) // 3} fan rounds, got {r}"
        )
    _check_order(n)
    if r == 0:
        base = mop_construct(n)
        return base._replace(family="intermediate", parameters={"n": n, "r": 0})
    inner_cycle = [0] + list(range(3 * r + 1, n))
    inner_chords, inner_tris, inner_doubles = _mop_fill(inner_cycle)
    fan_chords = [edge(0, i) for i in range(2, 3 * r + 2)]
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs.extend(e.as_pair() for e in fan_chords)
    pairs.extend(e.as_pair() for e in inner_chords)
    additions = list(fan_chords) + inner_doubles
    cert = [triangle(0, i, i + 1) for i in range(1, 3 * r + 1)] + inner_tris
    return ConstructionResult(
        family="intermediate",
        parameters={"n": n, "r": r},
        graph=Multigraph.from_edges(n, pairs),
        augmentation=Augmentation(tuple(additions)),
        certificate=Decomposition(tuple(cert)),
        claimed_epsilon=len(additions),
        outer_cycle=tuple(range(n)),
    )


def kop_construct(m: int, k: int) -> ConstructionResult:
    """k concentric m-cycles: a triangulated core wrapped in triangulated bands.

    Layer j's vertices are j*m .. j*m + m - 1; each band adds a ring, a
    matching to the layer below, and a shifted matching, and its 3m edges
    are covered by m band triangles.  The augmentation count stays m mod 3
    regardless of k, and deleting the outermost layer leaves the k-1 layer
    graph on the same labels.
    """
    if m < 3:
        raise DomainError(f"cycle length must be >= 3, got {m}")
    if k < 1:
        raise DomainError(f"layer count must be >= 1, got {k}")
    _check_order(m * k)
    core = mop_construct(m)
    pairs = [e.as_pair() for e in core.graph.edges()]
    tris = list(core.certificate.triangles)
    for j in range(1, k):
        below = (j - 1) * m
        off = j * m
        for i in range(m):
            ni = (i + 1) % m
            pairs.append((off + i, off + ni))
            pairs.append((off + i, below + i))
            pairs.append((off + i, below + ni))
            tris.append(triangle(off + i, off + ni, below + ni))
    return ConstructionResult(
        family="kop",
        parameters={"m": m, "k": k},
        graph=Multigraph.from_edges(m * k, pairs),
        augmentation=core.augmentation,
        certificate=Decomposition(tuple(tris)),
        claimed_epsilon=core.claimed_epsilon,
        outer_cycle=tuple((k - 1) * m + i for i in range(m)),
    )


def hmp_construct(n: int) -> ConstructionResult:
    """A planar triangulation of order n that is decomposable as it stands.

    Built as a cycle plus two apex vertices (with a small rearrangement for
    odd orders, which is why 4, 5, and 7 are impossible); 3n-6 edges, all
    degrees even, Hamiltonian, and triangle decomposable with no additions.
    The certificate is the colour class of the first listed face.
    """
    if n < 6 or n == 7:
        raise ConstructionUnavailable(
            f"no even-degree triangulation of order {n} exists"
        )
    _check_order(n)
    cyc = n - 2  # cycle length; the apexes are n-2 and n-1
    p = n - 2
    q = n - 1
    pairs = [(i, (i + 1) % cyc) for i in range(cyc)]
    faces: List[Triangle] = []
    if n % 2 == 0:
        for i in range(cyc):
            pairs.append((i, p))
            pairs.append((i, q))
        for i in range(cyc):
            ni = (i + 1) % cyc
            faces.append(triangle(i, ni, p))
            faces.append(triangle(i, ni, q))
    else:
        pairs.append((0, 2))
        pairs.append((0, p))
        for i in range(2, cyc):
            pairs.append((i, p))
        pairs.extend([(1, cyc - 1), (1, 3), (3, cyc - 1)])
        for i in range(3, cyc):
            pairs.append((i, q))
        faces.append(triangle(0, 1, 2))
        faces.append(triangle(0, 2, p))
        for i in range(2, cyc - 1):
            faces.append(triangle(i, i + 1, p))
        faces.append(triangle(cyc - 1, 0, p))
        faces.append(triangle(0, 1, cyc - 1))
        faces.append(triangle(1, 2, 3))
        faces.append(triangle(1, 3, cyc - 1))
        for i in range(3, cyc - 1):
            faces.append(triangle(i, i + 1, q))
        faces.append(triangle(3, cyc - 1, q))
    return ConstructionResult(
        family="hmp",
        parameters={"n": n},
        graph=Multigraph.from_edges(n, pairs),
        augmentation=Augmentation(()),
        certificate=Decomposition(tuple(_face_colour_class(faces))),
        claimed_epsilon=0,
        faces=tuple(faces),
    )


def _face_colour_class(faces: List[Triangle]) -> List[Triangle]:
    """The faces coloured like faces[0] when faces sharing an edge differ.

    The faces of an even plane triangulation 2-colour (Heawood), and each
    colour class covers every edge exactly once.
    """
    on_edge: Dict[EdgeKey, List[int]] = {}
    for i, t in enumerate(faces):
        for e in t.edges():
            on_edge.setdefault(e, []).append(i)
    colour = {0: 0}
    stack = [0]
    while stack:
        i = stack.pop()
        for e in faces[i].edges():
            for j in on_edge[e]:
                if j not in colour:
                    colour[j] = 1 - colour[i]
                    stack.append(j)
    return [t for i, t in enumerate(faces) if colour.get(i) == 0]


def _insert_between(boundary: List[int], u: int, v: int, w: int) -> None:
    size = len(boundary)
    for i in range(size):
        if {boundary[i], boundary[(i + 1) % size]} == {u, v}:
            boundary.insert(i + 1, w)
            return
    raise InvariantViolation(f"{u} and {v} are not adjacent on the boundary")


def sc2_tree_construct(n: int) -> ConstructionResult:
    """A 2-tree of order n (a multiple of 3) decomposable with no additions.

    Grown from a triangle in rounds of three vertices: a new vertex over a
    fresh boundary edge, then one more over each of the two edges that
    created, yielding two certificate triangles per round and leaving every
    edge covered exactly once.
    """
    if n < 3 or n % 3 != 0:
        raise DomainError(f"order must be a positive multiple of 3, got {n}")
    _check_order(n)
    pairs: List[Tuple[int, int]] = [(0, 1), (1, 2), (0, 2)]
    cert = [triangle(0, 1, 2)]
    boundary = [0, 1, 2]
    used: set = set()
    v = 3
    while v < n:
        size = len(boundary)
        candidates = []
        for i in range(size):
            e = edge(boundary[i], boundary[(i + 1) % size])
            if e not in used:
                candidates.append(e)
        base = min(candidates)
        a, b = base.as_pair()
        w, x, y = v, v + 1, v + 2
        pairs.extend([(a, w), (b, w)])
        used.add(base)
        _insert_between(boundary, a, b, w)
        pairs.extend([(a, x), (w, x)])
        cert.append(triangle(a, w, x))
        used.add(edge(a, w))
        _insert_between(boundary, a, w, x)
        pairs.extend([(b, y), (w, y)])
        cert.append(triangle(b, w, y))
        used.add(edge(b, w))
        _insert_between(boundary, w, b, y)
        v += 3
    return ConstructionResult(
        family="sc2tree",
        parameters={"n": n},
        graph=Multigraph.from_edges(n, pairs),
        augmentation=Augmentation(()),
        certificate=Decomposition(tuple(cert)),
        claimed_epsilon=0,
        outer_cycle=tuple(boundary),
    )


def sc2_tree_seed(residue: int) -> ConstructionResult:
    """Smallest 2-trees of order 1 or 2 mod 3 with their minimum additions."""
    if residue == 1:
        return ConstructionResult(
            family="sc2seed",
            parameters={"residue": 1},
            graph=Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]),
            augmentation=Augmentation((edge(0, 3),)),
            certificate=Decomposition((triangle(0, 2, 3), triangle(0, 1, 3))),
            claimed_epsilon=1,
            outer_cycle=(0, 1, 3, 2),
        )
    if residue == 2:
        return ConstructionResult(
            family="sc2seed",
            parameters={"residue": 2},
            graph=Multigraph.from_edges(
                5, [(2, 3), (0, 3), (0, 2), (2, 4), (3, 4), (1, 3), (0, 1)]
            ),
            augmentation=Augmentation((edge(2, 3), edge(0, 3))),
            certificate=Decomposition(
                (triangle(0, 2, 3), triangle(2, 3, 4), triangle(0, 1, 3))
            ),
            claimed_epsilon=2,
            outer_cycle=(0, 1, 3, 4, 2),
        )
    raise DomainError(f"seed residue must be 1 or 2, got {residue}")


def sc3_construct(n: int) -> ConstructionResult:
    """A 3-tree-like graph of order n whose augmentation count is exactly 3.

    A K4 extended by a chain of degree-mostly-4 vertices each adjacent to
    the two hubs; whatever the order, three added copies (never fewer) make
    it decomposable.
    """
    if n < 4:
        raise DomainError(f"order must be >= 4, got {n}")
    _check_order(n)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    if n == 4:
        adds = [edge(0, 1), edge(0, 2), edge(0, 3)]
        cert = [triangle(0, 1, 2), triangle(0, 1, 3), triangle(0, 2, 3)]
        g = Multigraph.from_edges(4, k4)
    elif n == 5:
        adds = [edge(0, 1), edge(1, 2), edge(2, 4)]
        cert = [
            triangle(0, 1, 2),
            triangle(0, 1, 3),
            triangle(1, 2, 4),
            triangle(2, 3, 4),
        ]
        g = Multigraph.from_edges(5, k4 + [(1, 4), (2, 4), (3, 4)])
    else:
        chain = n - 5  # vertices past the first five
        last = 4 + chain
        pairs = k4 + [(1, 4), (2, 4), (3, 4)]
        for j in range(1, chain + 1):
            a = 4 + j
            pairs.extend([(a - 1, a), (1, a), (2, a)])
        g = Multigraph.from_edges(n, pairs)
        cert = [triangle(0, 1, 3), triangle(0, 1, 2), triangle(1, 2, last)]
        if chain % 2 == 0:
            adds = [edge(0, 1), edge(1, 2), edge(2, last)]
            cert.append(triangle(2, last, last - 1))
            for j in range(1, (chain - 2) // 2 + 1):
                cert.append(triangle(1, 4 + 2 * j, 5 + 2 * j))
                cert.append(triangle(2, 3 + 2 * j, 4 + 2 * j))
        else:
            adds = [edge(0, 1), edge(1, 2), edge(1, last)]
            if chain >= 3:
                cert.append(triangle(1, last, last - 1))
            for j in range(2, chain - 1):
                hub = 1 if j % 2 == 0 else 2
                cert.append(triangle(hub, 4 + j, 5 + j))
            if chain >= 3:
                cert.append(triangle(2, 5, 6))
        cert.append(triangle(1, 4, 5))
        cert.append(triangle(2, 3, 4))
    return ConstructionResult(
        family="sc3",
        parameters={"n": n},
        graph=g,
        augmentation=Augmentation(tuple(adds)),
        certificate=Decomposition(tuple(cert)),
        claimed_epsilon=3,
    )


# Stored toroidal fixtures: simple edge list, minimum additions from the
# drawing, and the genus-1 rotation system of the simple graph.
_SF_EDGES: Dict[int, List[Tuple[int, int]]] = {
    7: [
        (0, 2), (2, 3), (0, 3), (0, 1), (1, 4), (4, 6), (5, 6), (2, 5),
        (0, 6), (1, 6), (2, 6), (0, 5), (4, 5), (1, 2), (1, 5), (2, 4), (0, 4),
    ],
    8: [
        (1, 4), (0, 1), (0, 2), (2, 5), (5, 6), (6, 7), (4, 7), (3, 4), (3, 7),
        (1, 5), (5, 7), (0, 5), (4, 5), (0, 6), (1, 6), (1, 7), (2, 7), (2, 4), (0, 4),
    ],
    9: [
        (0, 1), (1, 2), (2, 3), (3, 8), (7, 8), (6, 7), (3, 6), (0, 3),
        (0, 4), (4, 6), (5, 8), (3, 5),
        (3, 4), (0, 6), (1, 7), (1, 6), (2, 7),
        (6, 8), (0, 2), (0, 8), (2, 8),
    ],
}

_SF_AUG: Dict[int, List[Tuple[int, int]]] = {
    7: [(0, 6), (0, 5), (4, 5), (1, 5)],
    8: [(0, 6), (1, 6)],
    9: [(0, 3), (0, 6), (1, 6), (1, 7), (2, 7), (3, 4)],
}

_SF_ROTATIONS: Dict[int, List[List[int]]] = {
    7: [
        [4, 5, 6, 1, 3, 2],
        [0, 6, 2, 5, 4],
        [1, 6, 4, 0, 3, 5],
        [2, 0],
        [1, 5, 0, 2, 6],
        [4, 1, 2, 6, 0],
        [5, 4, 2, 1, 0],
    ],
    8: [
        [1, 6, 5, 4, 2],
        [5, 7, 6, 0, 4],
        [0, 4, 7, 5],
        [4, 7],
        [2, 0, 5, 1, 3, 7],
        [6, 2, 7, 1, 4, 0],
        [7, 5, 0, 1],
        [5, 2, 4, 3, 6, 1],
    ],
    9: [
        [1, 6, 8, 2, 3, 4],
        [2, 7, 6, 0],
        [0, 8, 7, 1, 3],
        [4, 0, 2, 5, 8, 6],
        [0, 3, 6],
        [3, 8],
        [7, 4, 3, 8, 0, 1],
        [8, 6, 1, 2],
        [6, 3, 5, 7, 2, 0],
    ],
}


def sf_fixture(n: int) -> ConstructionResult:
    """A stored toroidal graph with its drawn additions and rotation system.

    Available for orders 7, 8 and 9; the rotation system embeds the simple
    graph on the torus with one face visiting every vertex.
    """
    if n not in _SF_EDGES:
        raise NotAFixture(f"no stored toroidal fixture of order {n}")
    g = Multigraph.from_edges(n, _SF_EDGES[n])
    aug = Augmentation(tuple(edge(u, v) for u, v in _SF_AUG[n]))
    cert = find_decomposition(apply_augmentation(g, aug))
    if cert is None:
        raise InvariantViolation(f"order-{n} fixture augmentation failed to decompose")
    rotation = RotationSystem(
        n,
        tuple(
            tuple((nbr, 0) for nbr in _SF_ROTATIONS[n][v]) for v in range(n)
        ),
    )
    return ConstructionResult(
        family="sf",
        parameters={"n": n},
        graph=g,
        augmentation=aug,
        certificate=cert,
        claimed_epsilon=len(aug),
        rotation=rotation,
    )
