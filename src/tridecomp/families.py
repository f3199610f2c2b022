"""Graph families with stored minimum augmentations and certificates.

Each constructor returns a ConstructionResult (defined in ``envelope``)
bundling the base graph, the parallel copies to add, a triangle certificate
for the augmented graph, and the claimed augmentation count.  Every one
returns through the one envelope builder ``_member``, which sets the count
to the number of listed additions, so an envelope claims exactly the copies
it adds.  Each parameter is checked by ``_check_int``, which refuses a
non-integer or a value below its least with DomainError.

One builder makes every triangulated cycle: f doubled chords fanned at the
first vertex, and the economical triangulation of the polygon left over,
which splits off polygon ears in rounds and recurses on the inner polygon.
The economical triangulation (mop) is f = 0, the fan is f = n - 3, the
intermediate family is f = 3r, and the sc2 seeds are f = 0 on a relabelled
cycle.  Small polygons are stored only as their certificates, in polygon
positions: the chords are the certificate's edges off the polygon, and the
chords it covers twice take the added copies.  An even planar
triangulation (hmp) is its face list: the graph is the union of the faces'
edges and the certificate the colour class of the first face in the faces'
2-colouring.  The sc3 graphs are a K4 with a chain on two hubs, and one
chain rule gives the certificate of every order from 5 on.  The sc2 2-trees
are one closed-form round rule, and each toroidal fixture is read off its
rotation system.  Every constructor runs in time linear in its output,
except ``sf_fixture``, which finds its certificate with the cover search
(``find_decomposition``, under ``STEP_LIMIT``).

validate_construction runs the envelope's core checks (augmentation count,
divisibility residue, certificate coverage) and raises on the first
failure; ``construct`` runs it before it prints.  The structure checks and
the envelope format live in ``envelope``, and ``analysis`` is loaded only by
the toroidal fixtures, for their rotation systems.
"""

from __future__ import annotations

from collections.abc import Iterable

from .decomposer import Decomposition, find_decomposition
from .envelope import ConstructionResult, _core_checks, _hmp_cycle
from .graph_core import (
    Augmentation,
    ConstructionUnavailable,
    DomainError,
    EdgeKey,
    InvariantViolation,
    Multigraph,
    NotAFixture,
    Triangle,
    _check_int,
    _check_order,
    apply_augmentation,
    edge,
    triangle,
)


def validate_construction(result: ConstructionResult) -> None:
    """Run the core checks; raise InvariantViolation with the first failure."""
    for ok, message in _core_checks(result):
        if not ok:
            raise InvariantViolation(message)


def _member(family: str, parameters: dict, graph: Multigraph, additions: Iterable[EdgeKey],
            triangles: Iterable[Triangle], **structure) -> ConstructionResult:
    """The envelope of one family member; it claims exactly the copies it adds."""
    augmentation = Augmentation(additions)
    return ConstructionResult(
        family=family,
        parameters=parameters,
        graph=graph,
        augmentation=augmentation,
        certificate=Decomposition(triangles),
        claimed_epsilon=len(augmentation),
        **structure,
    )


# Certificates of small polygon triangulations, as polygon positions.  The
# chords are the certificate's edges off the polygon, and the chords it
# covers twice take a second copy: always len(polygon) mod 3 of them.
_MOP_BASES: dict[int, list[tuple[int, int, int]]] = {
    3: [(0, 1, 2)],
    4: [(0, 1, 2), (0, 2, 3)],
    5: [(0, 1, 2), (2, 3, 4), (0, 2, 4)],
    6: [(0, 1, 2), (2, 3, 4), (0, 4, 5)],
    7: [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 4, 6)],
    8: [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7), (0, 2, 4)],
    9: [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (0, 4, 8)],
    10: [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (0, 8, 9), (0, 4, 8)],
    11: [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 10), (0, 4, 10), (4, 6, 10)],
    13: [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 10), (10, 11, 12),
         (0, 4, 12), (6, 10, 12)],
    14: [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 10), (10, 11, 12),
         (0, 12, 13), (0, 4, 8), (0, 8, 10)],
    17: [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 10), (10, 11, 12),
         (12, 13, 14), (14, 15, 16), (0, 4, 16), (6, 10, 16), (10, 12, 16)],
}


def _mop_fill(cyc: list[int]) -> tuple[list[EdgeKey], list[Triangle], list[EdgeKey]]:
    """Triangulate the polygon on cyc: (chords, certificate, doubled chords).

    The certificate covers each polygon edge once, each chord once, and each
    doubled chord twice; the doubled-chord count is len(cyc) mod 3.
    """
    m = len(cyc)
    if m in _MOP_BASES:
        tris = [triangle(cyc[a], cyc[b], cyc[c]) for a, b, c in _MOP_BASES[m]]
        cover: dict[EdgeKey, int] = {}
        for t in tris:
            for e in t.edges():
                cover[e] = cover.get(e, 0) + 1
        for i in range(m):
            del cover[edge(cyc[i - 1], cyc[i])]
        return list(cover), tris, [e for e, k in cover.items() if k == 2]
    # Ear rounds: consecutive ears around the polygon, then up to two
    # corrective ears sized so the inner polygon keeps length 0 mod 3
    # relative to m, then a recursion on every fourth position.
    shape = (m // 3 - m % 3) % 4
    chords: list[EdgeKey] = []
    tris = []
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


def _fanned_cycle(family: str, parameters: dict, cyc: list[int], f: int) -> ConstructionResult:
    """The cycle cyc with f doubled chords fanned at cyc[0], the rest economical.

    The triangles (cyc[0], cyc[i], cyc[i+1]) for i = 1..f cover the fan
    chords from cyc[0] to cyc[2..f+1] twice each, and _mop_fill triangulates
    the polygon cyc[0], cyc[f+1], ..., cyc[-1].
    """
    hub = cyc[0]
    chords, tris, doubles = _mop_fill([hub, *cyc[f + 1 :]])
    fan_chords = [edge(hub, v) for v in cyc[2 : f + 2]]
    tris += [triangle(hub, u, v) for u, v in zip(cyc[1 : f + 1], cyc[2 : f + 2])]
    pairs = [(cyc[i - 1], cyc[i]) for i in range(len(cyc))]
    pairs.extend(e.as_pair() for e in fan_chords + chords)
    return _member(family, parameters, Multigraph.from_edges(len(cyc), pairs),
                   fan_chords + doubles, tris, outer_cycle=tuple(cyc))


def mop_construct(n: int) -> ConstructionResult:
    """A triangulated n-cycle whose augmentation count is n mod 3."""
    _check_int(n, least=3)
    _check_order(n)
    return _fanned_cycle("mop", {"n": n}, list(range(n)), 0)


def fan(n: int) -> ConstructionResult:
    """The fan triangulation: every chord from vertex 0, all chords doubled.

    Doubling all n-3 chords is unavoidable for this graph, which makes the
    fan the extremal triangulated cycle under the one-copy-per-edge cap.
    """
    _check_int(n, least=3)
    _check_order(n)
    return _fanned_cycle("fan", {"n": n}, list(range(n)), n - 3)


def intermediate(n: int, r: int) -> ConstructionResult:
    """A triangulated n-cycle needing exactly (n mod 3) + 3r added copies.

    A fan block of 3r chords at vertex 0 is grafted onto the economical
    triangulation of the remaining polygon; r ranges from 0 (plain
    economical triangulation) to the largest r with (n mod 3) + 3r <= n-3
    (the fan).
    """
    _check_int(n, least=3)
    _check_int(r, "fan rounds", least=0)
    if n - 3 * r < 3:
        raise DomainError(
            f"order {n} admits at most {(n - 3) // 3} fan rounds, got {r}"
        )
    _check_order(n)
    return _fanned_cycle("intermediate", {"n": n, "r": r}, list(range(n)), 3 * r)


def kop_construct(m: int, k: int) -> ConstructionResult:
    """k concentric m-cycles: a triangulated core wrapped in triangulated bands.

    Layer j's vertices are j*m .. j*m + m - 1; each band adds a ring, a
    matching to the layer below, and a shifted matching, and its 3m edges
    are covered by m band triangles.  The augmentation count stays m mod 3
    regardless of k, and deleting the outermost layer leaves the k-1 layer
    graph on the same labels.
    """
    _check_int(m, "cycle length", least=3)
    _check_int(k, "layer count", least=1)
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
    return _member("kop", {"m": m, "k": k}, Multigraph.from_edges(m * k, pairs),
                   core.augmentation.additions, tris,
                   outer_cycle=tuple((k - 1) * m + i for i in range(m)))


def hmp_construct(n: int) -> ConstructionResult:
    """A planar triangulation of order n that is decomposable as it stands.

    The face list is the whole description: a ring 0..n-3 with the apexes
    n-2 and n-1, rearranged around vertex 3 for odd orders.  Orders 4, 5
    and 7 have no member: exactly those for which ``envelope._hmp_cycle``
    is None are refused.  The graph is the union of the faces' edges:
    3n-6 edges, all degrees even, Hamiltonian.  The certificate is the
    colour class of the first face in the faces' 2-colouring (faces sharing
    an edge differ), which covers every edge once.  For even n that is the
    ring face on apex n-2 at even i and on apex n-1 at odd i; for odd n it
    is (0, 1, 2), every other ring and band face, (n-3, 0, n-2) and
    (1, 3, n-3).  verify checks the Hamiltonian cycle ``envelope._hmp_cycle``
    derives from n, so a change to this layout must keep that cycle in the
    graph.
    """
    _check_int(n)
    _check_order(n)
    if _hmp_cycle(n) is None:
        raise ConstructionUnavailable(
            f"no even-degree triangulation of order {n} exists"
        )
    p, q = n - 2, n - 1  # the apexes; the ring 0..p-1 has length p
    if n % 2 == 0:
        faces = [(i, (i + 1) % p, x) for i in range(p) for x in (p, q)]
        cert = [(i, (i + 1) % p, (p, q)[i % 2]) for i in range(p)]
    else:
        ring = [(i, i + 1, p) for i in range(2, p - 1)]
        band = [(i, i + 1, q) for i in range(3, p - 1)]
        faces = [(0, 1, 2), (0, 2, p), *ring, (p - 1, 0, p), (0, 1, p - 1), (1, 2, 3),
                 (1, 3, p - 1), *band, (3, p - 1, q)]
        cert = [(0, 1, 2), *ring[::2], (p - 1, 0, p), (1, 3, p - 1), *band[::2]]
    tris = {t: triangle(*t) for t in faces}  # keyed by triple for the certificate
    g = Multigraph(n, dict.fromkeys((e for t in tris.values() for e in t.edges()), 1))
    return _member("hmp", {"n": n}, g, (), (tris[t] for t in cert), faces=tuple(tris.values()))


def sc2_tree_construct(n: int) -> ConstructionResult:
    """A 2-tree of order n (a multiple of 3) decomposable with no additions.

    Grown from the triangle (0, 1, 2) in rounds w = 3, 6, ..., n - 3: w goes
    on the edge (0, b), w + 1 on (0, w) and w + 2 on (b, w), where b = 1 for
    w = 3, b = 2 for w = 6 and b = w - 5 from w = 9 on.  That is the least
    boundary edge not yet built on, since the edges at 0 are the least and
    the fresh ones at round w are (0, w - 5) and (0, w - 2).  The
    certificate is (0, 1, 2) and, per round, (0, w, w + 1) and (b, w, w + 2),
    covering every edge once.  The outer cycle is 0; then the rounds with
    w mod 6 = 3, last round first, each as w + 1, w, w + 2; then 1, 2; then
    the rounds with w mod 6 = 0, first round first, each as w + 2, w, w + 1.
    """
    _check_int(n)
    if n < 3 or n % 3 != 0:
        raise DomainError(f"order must be a positive multiple of 3, got {n}")
    _check_order(n)
    pairs = [(0, 1), (1, 2), (0, 2)]
    cert = [triangle(0, 1, 2)]
    for w in range(3, n, 3):
        b = w - 5 if w > 6 else w // 3
        pairs += [(0, w), (b, w), (0, w + 1), (w, w + 1), (b, w + 2), (w, w + 2)]
        cert += [triangle(0, w, w + 1), triangle(b, w, w + 2)]
    outer = [0]
    for w in reversed(range(3, n, 6)):
        outer += [w + 1, w, w + 2]
    outer += [1, 2]
    for w in range(6, n, 6):
        outer += [w + 2, w, w + 1]
    return _member("sc2tree", {"n": n}, Multigraph.from_edges(n, pairs), (), cert,
                   outer_cycle=tuple(outer))


# Outer cycles of the sc2 seeds: each seed is the stored base triangulation
# of its order laid along its cycle.
_SC2_SEEDS = {1: [0, 1, 3, 2], 2: [0, 1, 3, 4, 2]}


def sc2_tree_seed(residue: int) -> ConstructionResult:
    """Smallest 2-trees of order 1 or 2 mod 3 with their minimum additions."""
    _check_int(residue, "seed residue")
    if residue not in _SC2_SEEDS:
        raise DomainError(f"seed residue must be 1 or 2, got {residue}")
    return _fanned_cycle("sc2seed", {"residue": residue}, _SC2_SEEDS[residue], 0)


def sc3_construct(n: int) -> ConstructionResult:
    """A 3-tree-like graph of order n whose augmentation count is exactly 3.

    A K4 on 0..3 and a chain 3, 4, ..., n-1 whose vertices from 4 on are
    adjacent to the two hubs 1 and 2.  For n >= 5 one rule certifies it:
    (0, 1, 2), (0, 1, 3), (1, 2, n-1) and the chain triangles (h, a, a+1)
    for a = 3..n-2, on hub h(a) = 2 for odd a and 1 for even a.  They cover
    (0, 1), (1, 2) and (h(n-2), n-1) twice, and whatever the order, those
    three added copies (never fewer) make it decomposable.
    """
    _check_int(n, least=4)
    _check_order(n)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    if n == 4:
        adds = [(0, 1), (0, 2), (0, 3)]
        cert = [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    else:
        for a in range(4, n):
            pairs += [(a - 1, a), (1, a), (2, a)]
        adds = [(0, 1), (1, 2), (1 + n % 2, n - 1)]
        cert = [(0, 1, 2), (0, 1, 3), (1, 2, n - 1)]
        cert += [(1 + a % 2, a, a + 1) for a in range(3, n - 1)]
    return _member("sc3", {"n": n}, Multigraph.from_edges(n, pairs),
                   (edge(u, v) for u, v in adds), (triangle(*t) for t in cert))


# Stored toroidal fixtures: minimum additions from the drawing, and the
# genus-1 rotation system of the simple graph, which also gives its edges.
_SF_AUG: dict[int, list[tuple[int, int]]] = {
    7: [(0, 6), (0, 5), (4, 5), (1, 5)],
    8: [(0, 6), (1, 6)],
    9: [(0, 3), (0, 6), (1, 6), (1, 7), (2, 7), (3, 4)],
}

_SF_ROTATIONS: dict[int, list[list[int]]] = {
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
    graph on the torus with one face visiting every vertex, and the graph
    is read off it, each edge {v, u} with v < u taken at v.
    """
    _check_int(n)
    if n not in _SF_ROTATIONS:
        raise NotAFixture(f"no stored toroidal fixture of order {n}")
    rot = _SF_ROTATIONS[n]
    g = Multigraph.from_edges(n, [(v, u) for v in range(n) for u in rot[v] if v < u])
    adds = [edge(u, v) for u, v in _SF_AUG[n]]
    cert = find_decomposition(apply_augmentation(g, Augmentation(adds)))
    if cert is None:
        raise InvariantViolation(f"order-{n} fixture augmentation failed to decompose")
    from .analysis import RotationSystem

    rotation = RotationSystem(n, tuple(tuple((u, 0) for u in rot[v]) for v in range(n)))
    return _member("sf", {"n": n}, g, adds, cert.triangles, rotation=rotation)
