"""Graph families with stored minimum augmentations and certificates.

Each constructor returns a ConstructionResult (defined in ``analysis``)
bundling the base graph, the parallel copies to add, a triangle certificate
for the augmented graph, and the claimed augmentation count.  A constructor
states only its certificate: every one returns through the one envelope
builder ``_member``, which reads the member off the triangles.  The graph is
every edge they cover, once; the additions are c - 1 copies of each edge
covered c times; and the claimed count is the number of those copies.  That
rule needs every family's base graph to be simple, which they all are: each
member is a simple graph plus parallel copies of its edges.  Each parameter
is checked by ``_check_int``, which refuses a non-integer or a value below
its least with DomainError.

One builder makes every triangulated cycle: f doubled chords fanned at the
first vertex, and the economical triangulation of the polygon left over,
which splits off polygon ears in rounds and recurses on the inner polygon.
The economical triangulation (mop) is f = 0, the fan is f = n - 3, the
intermediate family is f = 3r, and the sc2 seeds are f = 0 on a relabelled
cycle.  Small polygons are stored as their certificates, in polygon
positions.  The kop bands wrap that triangulation in rings of triangles.  An
even planar triangulation (hmp) is its face list, and its certificate the
colour class of the first face in the faces' 2-colouring.  The sc3 graphs
are a K4 with a chain on two hubs, and one chain rule gives the certificate
of every order from 5 on.  The sc2 2-trees are one closed-form round rule,
and each toroidal fixture is its stored certificate beside its rotation
system.  Every constructor runs in time linear in its output.

validate_construction runs verify's whole checker,
``analysis.verify_construction``, before ``construct`` prints, so it guards
``_member`` too: the count, residue and coverage, and the structure of the
family.  A failure there, or a structure field that checker cannot read, is
a constructor bug: InvariantViolation, exit 2.  The envelope format, the
structure checks and the rotation systems of the toroidal fixtures live in
``analysis``.

The class extremes over triangulated cycles, which only ``sweep`` runs,
live beside the constructors they recheck.  enumerate_mops lists every
triangulation of the n-cycle as its sorted EdgeKey chords, charged against
STEP_LIMIT; epsilon_class_exact asks each in turn one cover question, at
n mod 3 added copies, the paper's first criterion; xi_class_exact searches
nothing and checks the proof of n - 3 on fan(n).  Both return a witness
only once validate_construction accepts it as an envelope on the outer
cycle 0..n-1: fan(n) itself, or the cycle plus the chords as a "mop".
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from . import graph_core
from .analysis import ConstructionResult, RotationSystem, _hmp_cycle, verify_construction
# find_decomposition is not called here; the benchmark's tracer test reads this binding.
from .decomposer import CoverInstance, find_decomposition
from .graph_core import (
    Augmentation,
    ConstructionUnavailable,
    Decomposition,
    DomainError,
    EdgeKey,
    InvariantViolation,
    Multigraph,
    NotAFixture,
    Triangle,
    _check_int,
    _check_order,
    _packing_bound,
    _recheck,
    _step_limit,
    triangle,
)


def validate_construction(result: ConstructionResult) -> None:
    """Run verify's checker on result; InvariantViolation with its first failure.

    A structure field it cannot read, bad input to ``verify``, is a
    constructor bug here, so its DomainError becomes InvariantViolation too.
    """
    try:
        checks = verify_construction(result)
    except DomainError as exc:
        raise InvariantViolation(str(exc)) from exc
    _recheck(checks)


def _member(family: str, parameters: dict, order: int, triangles: Iterable[Triangle],
            **structure) -> ConstructionResult:
    """The envelope of the member on vertices 0..order-1 that the triangles certify.

    The graph is every edge the triangles cover, with multiplicity 1; the
    augmentation is c - 1 copies of each edge they cover c times; and the
    claimed count is the number of those copies.  So the certificate covers
    the augmented graph exactly, and the envelope claims exactly the copies
    it adds.  The caller's base graph must be simple, as every family's is.
    """
    certificate = Decomposition(triangles)
    cover = Counter(e for t in certificate for e in t.edges())
    augmentation = Augmentation(e for e, c in cover.items() for _ in range(1, c))
    return ConstructionResult(
        family=family,
        parameters=parameters,
        graph=Multigraph(order, dict.fromkeys(cover, 1)),
        augmentation=augmentation,
        certificate=certificate,
        claimed_epsilon=len(augmentation),
        **structure,
    )


# Certificates of small polygon triangulations, as polygon positions.  They
# cover each chord once or twice, and the chords covered twice, always
# len(polygon) mod 3 of them, are the ones that take an added copy.
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


def _mop_fill(cyc: list[int]) -> list[Triangle]:
    """The certificate of the economical triangulation of the polygon on cyc.

    It covers each polygon edge once and each chord once or twice; the
    chords it covers twice, which take the added copies, number len(cyc)
    mod 3.
    """
    m = len(cyc)
    if m in _MOP_BASES:
        return [triangle(cyc[a], cyc[b], cyc[c]) for a, b, c in _MOP_BASES[m]]
    # Ear rounds: consecutive ears around the polygon, then up to two
    # corrective ears sized so the inner polygon keeps length 0 mod 3
    # relative to m, then a recursion on every fourth position.
    shape = (m // 3 - m % 3) % 4
    tris = [triangle(cyc[2 * i], cyc[2 * i + 1], cyc[(2 * i + 2) % m]) for i in range(m // 2)]
    if shape in (1, 3):
        # m odd: one ear over positions (m-5 .. m-1 .. 0).
        tris.append(triangle(cyc[0], cyc[m - 1], cyc[m - 5]))
    if shape in (2, 3):
        y1 = m - 4 if shape == 2 else m - 7
        tris.append(triangle(cyc[0], cyc[y1], cyc[y1 - 4]))
    top = m - 4 - 3 * shape
    return tris + _mop_fill(cyc[0 : top + 1 : 4])


def _fanned_cycle(family: str, parameters: dict, cyc: list[int], f: int) -> ConstructionResult:
    """The cycle cyc with f doubled chords fanned at cyc[0], the rest economical.

    The triangles (cyc[0], cyc[i], cyc[i+1]) for i = 1..f cover the fan
    chords from cyc[0] to cyc[2..f+1] twice each, and _mop_fill triangulates
    the polygon cyc[0], cyc[f+1], ..., cyc[-1].
    """
    hub = cyc[0]
    tris = _mop_fill([hub, *cyc[f + 1 :]])
    tris += [triangle(hub, u, v) for u, v in zip(cyc[1 : f + 1], cyc[2 : f + 2])]
    return _member(family, parameters, len(cyc), tris, outer_cycle=tuple(cyc))


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
    tris = _mop_fill(list(range(m)))
    for j in range(1, k):
        below, off = (j - 1) * m, j * m
        tris += [triangle(off + i, off + (i + 1) % m, below + (i + 1) % m) for i in range(m)]
    return _member("kop", {"m": m, "k": k}, m * k, tris,
                   outer_cycle=tuple((k - 1) * m + i for i in range(m)))


def hmp_construct(n: int) -> ConstructionResult:
    """A planar triangulation of order n that is decomposable as it stands.

    The face list is the whole description: a ring 0..n-3 with the apexes
    n-2 and n-1, rearranged around vertex 3 for odd orders.  Orders 4, 5
    and 7 have no member: exactly those for which ``analysis._hmp_cycle``
    is None are refused.  The graph is the union of the faces' edges:
    3n-6 edges, all degrees even, Hamiltonian.  The certificate is the
    colour class of the first face in the faces' 2-colouring (faces sharing
    an edge differ), which covers every edge once, so no copy is added.  For even n that is the
    ring face on apex n-2 at even i and on apex n-1 at odd i; for odd n it
    is (0, 1, 2), every other ring and band face, (n-3, 0, n-2) and
    (1, 3, n-3).  verify checks the Hamiltonian cycle ``analysis._hmp_cycle``
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
    return _member("hmp", {"n": n}, n, (triangle(*t) for t in cert),
                   faces=tuple(triangle(*t) for t in faces))


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
    cert = [triangle(0, 1, 2)]
    for w in range(3, n, 3):
        b = w - 5 if w > 6 else w // 3
        cert += [triangle(0, w, w + 1), triangle(b, w, w + 2)]
    outer = [0]
    for w in reversed(range(3, n, 6)):
        outer += [w + 1, w, w + 2]
    outer += [1, 2]
    for w in range(6, n, 6):
        outer += [w + 2, w, w + 1]
    return _member("sc2tree", {"n": n}, n, cert, outer_cycle=tuple(outer))


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
    if n == 4:
        cert = [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    else:
        cert = [(0, 1, 2), (0, 1, 3), (1, 2, n - 1)]
        cert += [(1 + a % 2, a, a + 1) for a in range(3, n - 1)]
    return _member("sc3", {"n": n}, n, (triangle(*t) for t in cert))


# Stored toroidal fixtures: the certificate of each graph plus the additions
# of the source drawing, and the genus-1 rotation system of the simple graph,
# which also gives its edges.
_SF_CERTS: dict[int, list[tuple[int, int, int]]] = {
    7: [(0, 1, 5), (0, 2, 3), (0, 4, 6), (0, 5, 6), (1, 2, 6), (1, 4, 5), (2, 4, 5)],
    8: [(0, 1, 6), (0, 2, 4), (0, 5, 6), (1, 4, 5), (1, 6, 7), (2, 5, 7), (3, 4, 7)],
    9: [(0, 1, 6), (0, 2, 3), (0, 3, 4), (0, 6, 8), (1, 2, 7), (1, 6, 7), (2, 7, 8),
        (3, 4, 6), (3, 5, 8)],
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
    graph on the torus with one face visiting every vertex, and verify
    checks that its edges are the graph the stored certificate covers.
    """
    _check_int(n)
    if n not in _SF_ROTATIONS:
        raise NotAFixture(f"no stored toroidal fixture of order {n}")
    rotation = RotationSystem(n, tuple(tuple((u, 0) for u in row) for row in _SF_ROTATIONS[n]))
    return _member("sf", {"n": n}, n, _SF_CERTS[n], rotation=rotation)


# The class extremes over triangulated cycles.  A triangulation of the
# n-cycle 0, 1, ..., n - 1 is its sorted tuple of EdgeKey chords.


def _cycle_with_chords(n: int, chords: tuple[EdgeKey, ...]) -> Multigraph:
    """The n-cycle 0, 1, ..., n - 1 plus the chords."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs.extend(chords)
    return Multigraph.from_edges(n, pairs)


def enumerate_mops(n: int) -> list[tuple[EdgeKey, ...]]:
    """Every triangulation of the labelled n-cycle as its sorted chords, in order.

    Each is charged its 2n - 3 edges against STEP_LIMIT, so past the limit
    ScaleLimit is raised before anything is listed; the Catalan recurrence
    counts the triangulations only up to the limit.  At the default
    limit orders 3..12 list (352,716 steps at 12); 13 would take 1,352,078.
    """
    _check_int(n, least=3)
    count = 1
    for k in range(1, n - 1):  # count = Catalan(k)
        count = count * (4 * k - 2) // (k + 1)
        if (2 * n - 3) * count > graph_core.STEP_LIMIT:
            raise _step_limit("triangulation listing")

    def fill(i: int, j: int) -> list[list[tuple[int, int]]]:
        # All chord sets triangulating the polygon arc i..j (j - i >= 2).
        if j - i == 1:
            return [[]]
        out = []
        for k in range(i + 1, j):
            left = fill(i, k)
            right = fill(k, j)
            extra = []
            if k - i > 1:
                extra.append((i, k))
            if j - k > 1:
                extra.append((k, j))
            for ls in left:
                for rs in right:
                    out.append(ls + rs + extra)
        return out

    # fill yields n - 3 distinct non-crossing chords (u, v), u < v: skip the checks.
    new = tuple.__new__
    codes = [tuple(new(EdgeKey, c) for c in sorted(chordset)) for chordset in fill(0, n - 1)]
    codes.sort()
    return codes


def epsilon_class_exact(n: int) -> tuple[int, tuple[EdgeKey, ...]]:
    """Least augmentation count over all order-n triangulated cycles, with its witness.

    The paper's first criterion puts the class minimum at t = n mod 3, the
    residue of the shared size 2n - 3.  So each member, in chord-set order,
    is asked one question, whether it decomposes with t added copies, and
    the first that does is the witness, rechecked with its cover as a "mop"
    envelope on the outer cycle 0..n-1; if none does, the criterion fails:
    InvariantViolation.
    """
    mops = enumerate_mops(n)
    t = n % 3
    for chords in mops:
        g = _cycle_with_chords(n, chords)
        inst = CoverInstance(g)
        chosen = inst.solve(inst.base, [b + t for b in inst.base], (2 * n - 3 + t) // 3)
        if chosen is not None:
            validate_construction(ConstructionResult("mop", {"n": n}, g, *inst.records(chosen), t,
                                                     outer_cycle=tuple(range(n))))
            return t, chords
    raise InvariantViolation(f"no order-{n} triangulated cycle decomposes with {t} added copies")


def xi_class_exact(n: int) -> tuple[int, tuple[EdgeKey, ...]]:
    """Largest augmentation count over order-n triangulated cycles, one copy cap.

    The count is n - 3, and the fan at vertex 0, the first triangulation in
    chord-set order, is the witness; nothing is searched or listed.  Upper
    bound: a member with its n - 3 chords doubled decomposes into its n - 2
    faces.  Lower bound: no face of the fan holds two of its path edges
    (i, i + 1), 1 <= i <= n - 2, so its decompositions take n - 2
    triangles and add 3(n - 2) - (2n - 3) = n - 3 copies.  Both halves are
    checked on fan(n), which ``construct fan n`` prints, through
    validate_construction, its count and _packing_bound; a failure is a bug.
    """
    member = fan(n)
    validate_construction(member)
    if member.claimed_epsilon != n - 3:
        raise InvariantViolation(f"the fan claims {member.claimed_epsilon} copies, not {n - 3}")
    bound = _packing_bound(member.graph, [EdgeKey(i, i + 1) for i in range(1, n - 1)])
    if bound != n - 3:
        raise InvariantViolation(f"the fan's path edges bound its count by {bound}, not {n - 3}")
    return n - 3, member.augmentation.additions
