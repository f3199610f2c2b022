"""Tests for rotation systems, face tracing, and the structural predicates."""

import pytest

from tridecomp import (
    DomainError,
    Multigraph,
    RotationSystem,
    complete_graph,
    cycle_graph,
    find_hamiltonian_cycle,
    is_eulerian,
    is_maximal_outerplanar,
    is_strongly_k3_divisible,
    trace_faces,
)


def rotation_from_lists(neighbor_lists):
    return RotationSystem(
        len(neighbor_lists),
        tuple(tuple((u, 0) for u in rot) for rot in neighbor_lists),
    )


def test_rotation_system_validation():
    r = rotation_from_lists([[1, 2], [0, 2], [0, 1]])
    assert r.order == 3
    with pytest.raises(DomainError):
        RotationSystem(2, (((1, 0),),))  # wrong number of lists
    with pytest.raises(DomainError):
        rotation_from_lists([[0], [0]])  # loop
    with pytest.raises(DomainError):
        rotation_from_lists([[2], [0]])  # neighbor out of range
    with pytest.raises(DomainError):
        RotationSystem(2, (((1, -1),), ((0, -1),)))  # negative copy index


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


def test_trace_faces_handles_parallel_copies():
    # a doubled edge embedded as a 2-gon
    r = RotationSystem(2, (((1, 0), (1, 1)), ((0, 0), (0, 1))))
    tr = trace_faces(r)
    assert (tr.V, tr.E, tr.F) == (2, 2, 2)
    assert tr.genus == 0


def test_trace_faces_rejects_malformed_systems():
    with pytest.raises(DomainError):
        trace_faces(RotationSystem(2, (((1, 0),), ())))  # not reciprocal
    with pytest.raises(DomainError):
        trace_faces(RotationSystem(2, (((1, 0), (1, 0)), ((0, 0), (0, 0)))))  # repeat
    with pytest.raises(DomainError):
        trace_faces(RotationSystem(2, (((1, 1),), ((0, 1),))))  # copy skips 0
    with pytest.raises(DomainError):
        trace_faces(RotationSystem(0, ()))  # no edges
    with pytest.raises(DomainError):
        trace_faces(
            rotation_from_lists([[1], [0], [3], [2]])
        )  # two components


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
    assert is_eulerian(Multigraph(3))
    # a doubled edge alone is a closed walk
    assert is_eulerian(Multigraph.from_edges(2, [(0, 1, 2)]))


def test_is_strongly_k3_divisible():
    assert is_strongly_k3_divisible(complete_graph(3))
    assert is_strongly_k3_divisible(complete_graph(7))
    assert not is_strongly_k3_divisible(cycle_graph(6))  # no triangles
    assert not is_strongly_k3_divisible(complete_graph(4))  # odd degrees
    assert not is_strongly_k3_divisible(cycle_graph(5))  # size not divisible
    doubled = Multigraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    assert is_strongly_k3_divisible(doubled)


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
