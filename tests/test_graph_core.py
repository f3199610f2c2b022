"""Tests for the multigraph value types and edge/triangle primitives."""

import pytest

from tridecomp import (
    DomainError,
    EdgeKey,
    Multigraph,
    ORDER_LIMIT,
    ScaleLimit,
    Triangle,
    complete_graph,
    cycle_graph,
    degree_sequence,
    edge,
    triangle,
)


def test_edge_canonicalizes_endpoint_order():
    assert edge(3, 1) == EdgeKey(1, 3)
    assert edge(1, 3) == EdgeKey(1, 3)
    assert edge(0, 9).as_pair() == (0, 9)


def test_edge_rejects_loops_and_bad_endpoints():
    with pytest.raises(DomainError):
        edge(2, 2)
    with pytest.raises(DomainError):
        EdgeKey(3, 1)
    with pytest.raises(DomainError):
        EdgeKey(-1, 2)
    with pytest.raises(DomainError):
        EdgeKey(0, "1")


def test_edge_keys_sort_lexicographically():
    keys = [edge(2, 3), edge(0, 5), edge(0, 2), edge(1, 2)]
    assert sorted(keys) == [edge(0, 2), edge(0, 5), edge(1, 2), edge(2, 3)]


def test_triangle_canonicalizes_and_reports_edges():
    t = triangle(5, 0, 2)
    assert t == Triangle(0, 2, 5)
    assert t.as_triple() == (0, 2, 5)
    assert t.edges() == (edge(0, 2), edge(0, 5), edge(2, 5))


def test_triangle_rejects_repeated_vertices():
    with pytest.raises(DomainError):
        triangle(1, 1, 2)
    with pytest.raises(DomainError):
        triangle(4, 2, 4)
    with pytest.raises(DomainError):
        Triangle(0, 0, 1)


def test_from_edges_accumulates_repeats_and_explicit_multiplicity():
    g = Multigraph.from_edges(4, [(0, 1), (1, 0), (2, 3, 2), (0, 1)])
    assert g.multiplicity(edge(0, 1)) == 3
    assert g.multiplicity(edge(2, 3)) == 2
    assert g.multiplicity(edge(0, 2)) == 0
    assert g.size() == 5
    assert g.simple_size() == 2
    assert not g.is_simple()


def test_multigraph_listings_are_sorted():
    g = Multigraph.from_edges(4, [(2, 3), (0, 3), (0, 1, 2)])
    assert g.edges() == [edge(0, 1), edge(0, 3), edge(2, 3)]
    assert g.items() == [(edge(0, 1), 2), (edge(0, 3), 1), (edge(2, 3), 1)]


def test_multigraph_rejects_out_of_range_and_nonpositive():
    with pytest.raises(DomainError):
        Multigraph(-1)
    with pytest.raises(DomainError):
        Multigraph(3, {edge(1, 3): 1})
    with pytest.raises(DomainError):
        Multigraph(4, {edge(1, 3): 0})
    with pytest.raises(DomainError):
        Multigraph(4, {(1, 3): 1})


@pytest.mark.parametrize("m", [2.0, True, "2"])
def test_multigraph_refuses_non_integer_multiplicities(m):
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        Multigraph(3, {edge(0, 1): m})
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        Multigraph.from_edges(3, [(0, 1, m), (1, 2, 2), (0, 2, 2)])
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        Multigraph.from_edges(3, [(0, 1), (0, 1, m)])


def test_multigraph_refuses_order_above_ceiling():
    assert Multigraph(ORDER_LIMIT).order == ORDER_LIMIT
    with pytest.raises(ScaleLimit):
        Multigraph(ORDER_LIMIT + 1)
    with pytest.raises(ScaleLimit):
        Multigraph.from_json_dict({"order": 10**12, "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]})


def test_neighbors_and_adjacency_ignore_multiplicity():
    g = Multigraph.from_edges(5, [(0, 1, 3), (1, 2), (3, 4)])
    assert g.neighbors(1) == [0, 2]
    assert g.neighbors(4) == [3]
    assert g.adjacency() == [[1], [0, 2], [1], [4], [3]]
    with pytest.raises(DomainError):
        g.neighbors(5)


def test_equality_compares_order_and_multiplicities():
    a = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    b = Multigraph.from_edges(3, [(1, 2), (0, 1)])
    c = Multigraph.from_edges(4, [(0, 1), (1, 2)])
    d = Multigraph.from_edges(3, [(0, 1, 2), (1, 2)])
    assert a == b
    assert a != c
    assert a != d
    with pytest.raises(TypeError):
        hash(a)


def test_json_round_trip_is_exact():
    g = Multigraph.from_edges(5, [(0, 1, 2), (3, 4), (1, 2)])
    data = g.to_json_dict()
    assert data == {"order": 5, "edges": [[0, 1, 2], [1, 2, 1], [3, 4, 1]]}
    assert Multigraph.from_json_dict(data) == g


def test_from_json_dict_rejects_malformed_payloads():
    with pytest.raises(DomainError):
        Multigraph.from_json_dict({"edges": []})
    with pytest.raises(DomainError):
        Multigraph.from_json_dict({"order": "3", "edges": []})
    with pytest.raises(DomainError):
        Multigraph.from_json_dict({"order": 3, "edges": [[0, 1]]})
    with pytest.raises(DomainError):
        Multigraph.from_json_dict({"order": 3, "edges": [[0, 1, "2"]]})
    with pytest.raises(DomainError):
        Multigraph.from_json_dict({"order": 3, "edges": [[0, 1, 1], [1, 0, 1]]})
    with pytest.raises(DomainError):
        Multigraph.from_json_dict({"order": 3, "edges": [[0, 1, 0]]})


def test_degree_counts_every_parallel_copy():
    g = Multigraph.from_edges(4, [(0, 1, 2), (1, 2), (2, 3)])
    assert degree_sequence(g) == [2, 3, 2, 1]


def test_complete_and_cycle_builders():
    k4 = complete_graph(4)
    assert k4.size() == 6
    assert k4.is_simple()
    assert degree_sequence(k4) == [3, 3, 3, 3]
    c5 = cycle_graph(5)
    assert c5.size() == 5
    assert c5.edges() == [edge(0, 1), edge(0, 4), edge(1, 2), edge(2, 3), edge(3, 4)]
    with pytest.raises(DomainError):
        cycle_graph(2)
