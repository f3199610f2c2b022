"""Tests for rotation systems, face tracing, and the structural predicates."""

import itertools
import random
import re

import pytest

from tridecomp import (
    DomainError,
    FaceTrace,
    Multigraph,
    RotationSystem,
    fast_reject,
    is_eulerian,
    is_maximal_outerplanar,
    mop_construct,
    sc3_construct,
    trace_faces,
    verify_construction,
)
from tridecomp.analysis import _crossing_chords

from oracle_helpers import (
    complete_graph,
    cycle_graph,
    find_hamiltonian_cycle,
    oracle_chords_cross,
    oracle_is_maximal_outerplanar,
)


def rotation_from_lists(neighbor_lists):
    return RotationSystem(tuple(tuple((u, 0) for u in rot) for rot in neighbor_lists))


def test_rotation_system_validation():
    r = rotation_from_lists([[1, 2], [0, 2], [0, 1]])
    assert len(r.rotations) == 3
    with pytest.raises(DomainError):
        rotation_from_lists([[0], [0]])  # loop
    with pytest.raises(DomainError):
        rotation_from_lists([[2], [0]])  # neighbor out of range
    with pytest.raises(DomainError):
        RotationSystem((((1, -1),), ((0, -1),)))  # negative copy index


def test_rotation_system_json_round_trip():
    r = rotation_from_lists([[1, 2], [0, 2], [0, 1]])
    data = r.to_json_dict()
    assert data == {"rotations": [[[1, 0], [2, 0]], [[0, 0], [2, 0]], [[0, 0], [1, 0]]]}
    assert RotationSystem.from_json_dict(data) == r
    with pytest.raises(DomainError):
        RotationSystem.from_json_dict({})
    with pytest.raises(DomainError):
        RotationSystem.from_json_dict({"rotations": [[[0]]]})


def test_trace_faces_planar_complete_graph():
    # the standard planar drawing of the complete graph on four vertices
    r = rotation_from_lists([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    tr = trace_faces(r)
    assert (tr.V, tr.E, tr.F) == (4, 6, 4)
    assert tr.euler_characteristic == 2
    assert tr.genus == 0
    assert all(len(face) == 3 for face in tr.faces)


def test_trace_faces_toroidal_complete_graph():
    # the complete graph on five vertices embeds on the torus, not the plane
    r = rotation_from_lists(
        [[4, 3, 1, 2], [2, 0, 3, 4], [0, 1, 4, 3], [4, 1, 2, 0], [2, 1, 3, 0]]
    )
    tr = trace_faces(r)
    assert (tr.V, tr.E, tr.F) == (5, 10, 5)
    assert tr.euler_characteristic == 0
    assert tr.genus == 1


def test_trace_faces_triangle_is_spherical():
    r = rotation_from_lists([[1, 2], [0, 2], [0, 1]])
    tr = trace_faces(r)
    assert (tr.V, tr.E, tr.F) == (3, 3, 2)
    assert tr.genus == 0
    assert tr.to_json_dict()["faces"] == [list(f) for f in tr.faces]
    # the JSON keys are the record's fields, in the order faces prints them
    assert list(tr.to_json_dict()) == list(FaceTrace._fields)


def _one_edge(copies, back):
    """Vertices 0 and 1 joined by the listed copies, listed at 1 in the order back."""
    return RotationSystem((tuple((1, c) for c in copies), tuple((0, c) for c in back)))


def test_trace_faces_handles_parallel_copies():
    # a doubled edge embedded as a 2-gon
    r = RotationSystem((((1, 0), (1, 1)), ((0, 0), (0, 1))))
    tr = trace_faces(r)
    assert (tr.V, tr.E, tr.F) == (2, 2, 2)
    assert tr.genus == 0
    # a tripled edge, reversed at 1, bounds three 2-gons on the sphere
    tr = trace_faces(_one_edge((0, 1, 2), (2, 1, 0)))
    assert tr.faces == ((0, 1), (0, 1), (0, 1))
    assert (tr.V, tr.E, tr.F, tr.genus) == (2, 3, 3, 0)


def test_trace_faces_rejects_malformed_systems():
    with pytest.raises(DomainError):
        trace_faces(RotationSystem((((1, 0),), ())))  # not reciprocal
    with pytest.raises(DomainError):
        trace_faces(RotationSystem((((1, 0), (1, 0)), ((0, 0), (0, 0)))))  # repeat
    with pytest.raises(DomainError):
        trace_faces(RotationSystem((((1, 1),), ((0, 1),))))  # copy skips 0
    with pytest.raises(DomainError):
        trace_faces(RotationSystem(()))  # no edges
    with pytest.raises(DomainError):
        trace_faces(
            rotation_from_lists([[1], [0], [3], [2]])
        )  # two components
    for lists in ([[1, 2], [0, 2], [0, 1], []], [[], [2, 3], [1, 3], [1, 2]]):
        with pytest.raises(DomainError, match="not connected"):
            trace_faces(rotation_from_lists(lists))  # an isolated vertex


@pytest.mark.parametrize("copies, missing", [((1,), 1), ((0, 2), 2), ((1, 2), 1)])
def test_trace_faces_names_the_first_copy_without_the_one_below(copies, missing):
    message = f"copy index {missing} on edge (0, 1) skips a lower copy"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        trace_faces(_one_edge(copies, copies))


def test_is_eulerian():
    assert is_eulerian(cycle_graph(5))
    assert is_eulerian(complete_graph(3))
    assert not is_eulerian(Multigraph.from_edges(3, [(0, 1), (1, 2)]))  # odd ends
    assert not is_eulerian(complete_graph(4))
    # all degrees even but edges in two components
    two = Multigraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_eulerian(two)
    # isolated vertices are fine
    assert is_eulerian(Multigraph.from_edges(4, [(0, 1), (1, 2), (0, 2)]))
    assert is_eulerian(Multigraph.from_edges(4, [(1, 2), (2, 3), (1, 3)]))
    assert is_eulerian(Multigraph(3))
    # a doubled edge alone is a closed walk
    assert is_eulerian(Multigraph.from_edges(2, [(0, 1, 2)]))


def test_is_strongly_k3_divisible():
    # Strongly K3-divisible: no cheap obstruction from fast_reject (size
    # divisible by 3, even degrees, every edge on a triangle) and Eulerian.
    for g in (
        complete_graph(3),
        complete_graph(7),
        Multigraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)]),  # doubled
        Multigraph.from_edges(4, [(1, 2), (2, 3), (1, 3)]),
    ):
        assert fast_reject(g) is None and is_eulerian(g)
    assert fast_reject(cycle_graph(6)) is not None  # no triangles
    assert fast_reject(complete_graph(4)) is not None  # odd degrees
    assert fast_reject(cycle_graph(5)) is not None  # size not divisible
    two = Multigraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert fast_reject(two) is None and not is_eulerian(two)  # two edge components


def test_is_maximal_outerplanar():
    fan5 = Multigraph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)]
    )
    assert is_maximal_outerplanar(fan5, (0, 1, 2, 3, 4))
    # the same graph against a different outer order is not a triangulation
    assert not is_maximal_outerplanar(fan5, (0, 2, 1, 3, 4))
    assert is_maximal_outerplanar(complete_graph(3), (0, 1, 2))
    assert not is_maximal_outerplanar(cycle_graph(5), (0, 1, 2, 3, 4))  # too few edges
    assert not is_maximal_outerplanar(complete_graph(5), (0, 1, 2, 3, 4))  # too many
    crossing = Multigraph.from_edges(
        6,
        [(i, (i + 1) % 6) for i in range(6)] + [(0, 2), (1, 3), (3, 5)],
    )
    assert not is_maximal_outerplanar(crossing, (0, 1, 2, 3, 4, 5))
    doubled = Multigraph.from_edges(3, [(0, 1, 2), (1, 2), (0, 2)])
    assert not is_maximal_outerplanar(doubled, (0, 1, 2))
    with pytest.raises(DomainError):
        is_maximal_outerplanar(fan5, (0, 1, 2, 3))  # not a permutation
    with pytest.raises(DomainError):
        is_maximal_outerplanar(Multigraph(2), (0, 1))


@pytest.mark.parametrize("outer", [[0, 1, "x"], 5, [True, 0, 2]], ids=["str", "int", "bool"])
def test_is_maximal_outerplanar_refuses_an_outer_order_of_non_integers(outer):
    # True == 1, so only a check of each entry's type refuses the last.
    with pytest.raises(DomainError, match="^outer cycle must be a permutation of the vertices$"):
        is_maximal_outerplanar(complete_graph(3), outer)


def _outerplanar_answer(g, outer):
    try:
        return is_maximal_outerplanar(g, outer)
    except DomainError:
        return None


def _triangulation_chords(rng, lo, hi, out):
    """Append chords of a random triangulation of the positions lo..hi, side (lo, hi) given."""
    if hi - lo < 2:
        return
    k = rng.randint(lo + 1, hi - 1)
    out += [c for c in ((lo, k), (k, hi)) if c[1] - c[0] > 1]
    _triangulation_chords(rng, lo, k, out)
    _triangulation_chords(rng, k, hi, out)


def _crossing_answer(chords):
    """analysis._crossing_chords against the pairwise oracle.

    It must find a crossing exactly when two of the chords cross, and name
    two chords that cross.  True when it named a crossing.
    """
    crossing = _crossing_chords(chords)
    if crossing is None:
        assert not any(oracle_chords_cross(p, q)
                       for p, q in itertools.combinations(chords, 2)), chords
        return False
    p, q = crossing
    assert {p, q} <= set(chords) and oracle_chords_cross(p, q), (chords, crossing)
    return True


def test_is_maximal_outerplanar_matches_the_pairwise_oracle():
    rng = random.Random(20211)
    answers = []
    crossings_named = 0
    for n in range(3, 6):
        # Every edge set on n vertices against the identity and a shuffled
        # outer order: crossing and nested chords, shared endpoints, every size.
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Multigraph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            for outer in (tuple(range(n)), tuple(rng.sample(range(n), n))):
                answers.append(_outerplanar_answer(g, outer))
                assert answers[-1] == oracle_is_maximal_outerplanar(g, outer), (g.edges(), outer)
            # On the identity outer order the chords are the vertex pairs themselves.
            crossings_named += _crossing_answer(
                [e for e in g.edges() if (e.v - e.u) % n not in (1, n - 1)])
    for _ in range(2000):
        n = rng.randint(4, 16)
        outer = rng.sample(range(n), n)
        if rng.random() < 0.5:
            chords = []
            _triangulation_chords(rng, 0, n - 1, chords)
            if rng.random() < 0.5:  # swap one chord for any chord
                chords[rng.randrange(n - 3)] = rng.choice(
                    [(i, j) for i, j in itertools.combinations(range(n), 2) if 1 < j - i < n - 1])
        else:
            chords = rng.sample([(i, j) for i, j in itertools.combinations(range(n), 2)
                                 if 1 < j - i < n - 1], n - 3 + rng.choice((-1, 0, 0, 1)))
        pairs = [(outer[i], outer[(i + 1) % n]) for i in range(n)]
        pairs += [(outer[i], outer[j]) for i, j in chords]
        if rng.random() < 0.1:  # a parallel copy of some edge
            pairs.append(rng.choice(pairs))
        if rng.random() < 0.1:  # a cycle edge missing
            pairs.pop(rng.randrange(n))
        if rng.random() < 0.05:  # outer is no permutation
            outer[rng.randrange(n)] = outer[0]
        g = Multigraph.from_edges(n, pairs)
        answers.append(_outerplanar_answer(g, outer))
        assert answers[-1] == oracle_is_maximal_outerplanar(g, outer), (g.edges(), outer)
        # The chords as position pairs: the graph relabelled onto the identity outer order.
        crossings_named += _crossing_answer(chords)
    assert min(answers.count(True), answers.count(False), answers.count(None)) >= 50
    assert crossings_named >= 50


def test_find_hamiltonian_cycle():
    assert find_hamiltonian_cycle(cycle_graph(5)) == (0, 1, 2, 3, 4)
    assert find_hamiltonian_cycle(complete_graph(4)) == (0, 1, 2, 3)
    star = Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert find_hamiltonian_cycle(star) is None
    assert find_hamiltonian_cycle(Multigraph.from_edges(2, [(0, 1)])) is None
    assert find_hamiltonian_cycle(Multigraph(4)) is None
    # multiplicities do not matter for the cycle
    doubled = Multigraph.from_edges(3, [(0, 1, 2), (1, 2), (0, 2)])
    assert find_hamiltonian_cycle(doubled) == (0, 1, 2)


def test_find_hamiltonian_cycle_has_no_depth_limit():
    assert find_hamiltonian_cycle(cycle_graph(5000)) == tuple(range(5000))


def test_verify_fails_a_family_no_constructor_makes():
    # The core lines stay; the family's own lines give way to one fail line.
    # sc3 has no structure line, so its three core lines are all it gets.
    for res, kept in ((mop_construct(6), 4), (sc3_construct(7), 3)):
        checks = verify_construction(res)
        assert len(checks) == kept and all(ok for ok, _ in checks)
        assert verify_construction(res._replace(family="zzz")) == checks[:3] + [
            (False, "no family is named 'zzz'")]
