"""Tests for the multigraph value types and edge/triangle primitives."""

import pytest

from tridecomp import (
    AugmentNonAdjacent,
    Augmentation,
    Decomposition,
    DomainError,
    EdgeKey,
    MopCode,
    Multigraph,
    ORDER_LIMIT,
    RotationSystem,
    ScaleLimit,
    Triangle,
    apply_augmentation,
    coverage_error,
    degree_sequence,
    edge,
    enumerate_mops,
    epsilon_class_exact,
    epsilon_exact,
    fan,
    intermediate,
    kop_construct,
    mop_construct,
    sc3_construct,
    triangle,
    xi_class_exact,
)

from oracle_helpers import complete_graph, cycle_graph


def test_edge_canonicalizes_endpoint_order():
    assert edge(3, 1) == EdgeKey(1, 3)
    assert edge(1, 3) == EdgeKey(1, 3)


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
    assert len(g.edges()) == 2
    assert not g.is_simple()


@pytest.mark.parametrize("entry, shown", [
    pytest.param((0, 1, 2, 3), "(0, 1, 2, 3)", id="four-items"),
    pytest.param((0,), "(0,)", id="one-item"),
    pytest.param([], "[]", id="empty"),
    pytest.param(5, "5", id="int"),
    pytest.param("01", "'01'", id="string"),
    pytest.param({0: 1}, "{0: 1}", id="dict"),
    pytest.param(tuple(range(100)), repr(tuple(range(100)))[:80] + "...", id="long"),
])
def test_from_edges_refuses_an_entry_that_is_not_an_edge(entry, shown):
    with pytest.raises(DomainError) as refused:
        Multigraph.from_edges(3, [(0, 1), entry])
    assert str(refused.value) == f"expected an edge (u, v) or (u, v, mult), got {shown}"


def test_records_of_edges_take_vertex_pairs():
    fan5 = MopCode(5, [(3, 0), [0, 2]])
    assert fan5 == MopCode(5, (edge(0, 2), edge(0, 3)))
    assert all(type(e) is EdgeKey for e in fan5.chords)
    aug = Augmentation([(0, 1), [2, 0], edge(1, 2)])
    assert aug.to_json_list() == [[0, 1], [0, 2], [1, 2]]
    assert Augmentation.from_json_list([[0, 1], [0, 2], [1, 2]]) == aug
    with pytest.raises(AugmentNonAdjacent, match=r"absent edge \(0, 5\)"):
        apply_augmentation(complete_graph(3), Augmentation([(0, 5)]))


@pytest.mark.parametrize("make", [
    pytest.param(lambda entry: MopCode(5, [(0, 2), entry]), id="MopCode"),
    pytest.param(lambda entry: Augmentation([(0, 1), entry]), id="Augmentation"),
])
@pytest.mark.parametrize("entry, shown", [
    pytest.param(5, "5", id="int"),
    pytest.param((0, 3, 1), "(0, 3, 1)", id="three-items"),
    pytest.param((0,), "(0,)", id="one-item"),
    pytest.param("03", "'03'", id="string"),
    pytest.param(tuple(range(100)), repr(tuple(range(100)))[:80] + "...", id="long"),
])
def test_records_of_edges_refuse_an_entry_that_is_not_an_edge(make, entry, shown):
    with pytest.raises(DomainError) as refused:
        make(entry)
    assert str(refused.value) == f"expected an edge (u, v), got {shown}"


def test_records_of_edges_refuse_a_pair_that_is_not_an_edge():
    with pytest.raises(DomainError, match="loop at vertex 3"):
        MopCode(5, [(0, 2), (3, 3)])
    with pytest.raises(DomainError, match="edge endpoints must be integers"):
        Augmentation([(0, 1.0)])
    # The MopCode checks keep their messages for pairs.
    with pytest.raises(DomainError, match=r"^chord endpoint 7 out of range$"):
        MopCode(5, [(0, 2), (2, 7)])
    with pytest.raises(DomainError, match=r"^\(0, 1\) is a cycle edge, not a chord$"):
        MopCode(5, [(1, 0), (0, 3)])


def test_decompositions_take_vertex_triples():
    d = Decomposition([(2, 1, 0), [3, 1, 2], triangle(0, 1, 3)])
    assert d.triangles == (Triangle(0, 1, 2), Triangle(0, 1, 3), Triangle(1, 2, 3))
    assert all(type(t) is Triangle for t in d)
    assert coverage_error(complete_graph(3), Decomposition([(2, 1, 0)])) is None
    with pytest.raises(DomainError, match="triangle vertices must be distinct"):
        Decomposition([(0, 1, 1)])


@pytest.mark.parametrize("entry, shown", [
    pytest.param(5, "5", id="int"),
    pytest.param((0, 1), "(0, 1)", id="pair"),
    pytest.param((0, 1, 2, 3), "(0, 1, 2, 3)", id="four-items"),
    pytest.param("012", "'012'", id="string"),
    pytest.param(tuple(range(100)), repr(tuple(range(100)))[:80] + "...", id="long"),
])
def test_decompositions_refuse_an_entry_that_is_not_a_triangle(entry, shown):
    with pytest.raises(DomainError) as refused:
        Decomposition([(0, 1, 2), entry])
    assert str(refused.value) == f"expected a triangle (a, b, c), got {shown}"


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


_K3 = Multigraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
_K3_ROTATIONS = (((1, 0), (2, 0)), ((2, 0), (0, 0)), ((0, 0), (1, 0)))


# Each call names a public entry point with an order, a count or a vertex
# that is not an int; the call is its own test id.
@pytest.mark.parametrize("call, message", [
    ("Multigraph(3.0)", "order must be an integer, got 3.0"),
    ("Multigraph(True)", "order must be an integer, got True"),
    ("Multigraph.from_edges(3.0, [(0, 1)])", "order must be an integer, got 3.0"),
    ("epsilon_exact(_K3, 1.5)", "max_copies_per_edge must be an integer, got 1.5"),
    ("epsilon_exact(_K3, '1')", "max_copies_per_edge must be an integer, got '1'"),
    ("epsilon_exact(_K3, True)", "max_copies_per_edge must be an integer, got True"),
    ("epsilon_class_exact(6.0)", "order must be an integer, got 6.0"),
    ("xi_class_exact(True)", "order must be an integer, got True"),
    ("enumerate_mops(6.0)", "order must be an integer, got 6.0"),
    ("MopCode(5.0, (edge(0, 2), edge(0, 3)))", "order must be an integer, got 5.0"),
    ("RotationSystem(3.0, _K3_ROTATIONS)", "order must be an integer, got 3.0"),
    ("EdgeKey(True, 2)", "edge endpoints must be integers, got (True, 2)"),
    ("Triangle(False, 1, 2)", "triangle vertices must be integers, got (False, 1, 2)"),
])
def test_public_entry_points_refuse_orders_and_counts_that_are_not_integers(call, message):
    with pytest.raises(DomainError) as refused:
        eval(call)
    assert str(refused.value) == message


# Each call names a public entry point with an integer below its least
# value.  Parameters are checked one after the other, each in full, so an
# input bad in two of them is refused for the first.
@pytest.mark.parametrize("call, message", [
    ("mop_construct(2)", "order must be >= 3, got 2"),
    ("fan(2)", "order must be >= 3, got 2"),
    ("intermediate(9, -1)", "fan rounds must be >= 0, got -1"),
    ("intermediate(2, 1.5)", "order must be >= 3, got 2"),
    ("kop_construct(2, 1)", "cycle length must be >= 3, got 2"),
    ("kop_construct(3, 0)", "layer count must be >= 1, got 0"),
    ("sc3_construct(3)", "order must be >= 4, got 3"),
    ("enumerate_mops(2)", "order must be >= 3, got 2"),
    ("epsilon_exact(_K3, -1)", "max_copies_per_edge must be >= 0, got -1"),
    ("Multigraph(-1)", "order must be >= 0, got -1"),
])
def test_public_entry_points_refuse_orders_and_counts_below_their_least(call, message):
    with pytest.raises(DomainError) as refused:
        eval(call)
    assert str(refused.value) == message


def test_multigraph_refuses_order_above_ceiling():
    assert Multigraph(ORDER_LIMIT).order == ORDER_LIMIT
    with pytest.raises(ScaleLimit):
        Multigraph(ORDER_LIMIT + 1)
    with pytest.raises(ScaleLimit):
        Multigraph.from_json_dict({"order": 10**12, "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]})


def test_neighbors_and_adjacency_ignore_multiplicity():
    g = Multigraph.from_edges(5, [(0, 1, 3), (1, 2), (3, 4)])
    assert g.adjacency()[1] == [0, 2]
    assert g.adjacency()[4] == [3]
    assert g.adjacency() == [[1], [0, 2], [1], [4], [3]]


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
