"""The value records keep one contract: validation, normal form, equality, hash, order, repr.

Every record is immutable, equal to a record of the same type with the same
fields, hashed as the tuple of its fields, printed as Name(field=value, ...),
and survives copy.copy and pickle unchanged.
"""

import copy
import pickle
import re

import pytest

from tridecomp import (
    Augmentation,
    ConstructionResult,
    Decomposition,
    DomainError,
    EdgeKey,
    FaceTrace,
    Multigraph,
    RejectReason,
    RotationSystem,
    Triangle,
)

K3_ROTATIONS = (((1, 0), (2, 0)), ((2, 0), (0, 0)), ((0, 0), (1, 0)))


def _k3_result():
    return ConstructionResult(
        "mop",
        {"n": 3},
        Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
        Augmentation(()),
        Decomposition((Triangle(0, 1, 2),)),
        0,
        outer_cycle=(0, 1, 2),
    )


# (make, field names, a record that differs, repr text)
RECORDS = [
    pytest.param(
        lambda: EdgeKey(0, 1), ("u", "v"), EdgeKey(0, 2), "EdgeKey(u=0, v=1)", id="EdgeKey"
    ),
    pytest.param(
        lambda: Triangle(0, 1, 2),
        ("a", "b", "c"),
        Triangle(0, 1, 3),
        "Triangle(a=0, b=1, c=2)",
        id="Triangle",
    ),
    pytest.param(
        lambda: Decomposition([Triangle(1, 2, 3), Triangle(0, 1, 2)]),
        ("triangles",),
        Decomposition([Triangle(0, 1, 2)]),
        "Decomposition(triangles=(Triangle(a=0, b=1, c=2), Triangle(a=1, b=2, c=3)))",
        id="Decomposition",
    ),
    pytest.param(
        lambda: RejectReason("odd_vertex", vertex=3),
        ("kind", "vertex", "edge"),
        RejectReason("edge_not_on_triangle", edge=EdgeKey(0, 1)),
        "RejectReason(kind='odd_vertex', vertex=3, edge=None)",
        id="RejectReason",
    ),
    pytest.param(
        lambda: Augmentation([EdgeKey(0, 2), EdgeKey(0, 1), EdgeKey(0, 2)]),
        ("additions",),
        Augmentation([EdgeKey(0, 2)]),
        "Augmentation(additions=(EdgeKey(u=0, v=1), EdgeKey(u=0, v=2), EdgeKey(u=0, v=2)))",
        id="Augmentation",
    ),
    pytest.param(
        lambda: RotationSystem(3, K3_ROTATIONS),
        ("order", "rotations"),
        RotationSystem(3, (((2, 0), (1, 0)), ((2, 0), (0, 0)), ((0, 0), (1, 0)))),
        "RotationSystem(order=3, rotations=(((1, 0), (2, 0)), ((2, 0), (0, 0)), "
        "((0, 0), (1, 0))))",
        id="RotationSystem",
    ),
    pytest.param(
        lambda: FaceTrace(((0, 1, 2), (0, 2, 1)), 3, 3, 2, 2, 0),
        ("faces", "V", "E", "F", "euler_characteristic", "genus"),
        FaceTrace(((0, 1, 2),), 3, 3, 1, 1, 1),
        "FaceTrace(faces=((0, 1, 2), (0, 2, 1)), V=3, E=3, F=2, euler_characteristic=2, "
        "genus=0)",
        id="FaceTrace",
    ),
    pytest.param(
        _k3_result,
        ("family", "parameters", "graph", "augmentation", "certificate", "claimed_epsilon",
         "outer_cycle", "faces", "rotation"),
        ConstructionResult(
            "fan", {"n": 3}, Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
            Augmentation(()), Decomposition((Triangle(0, 1, 2),)), 0, outer_cycle=(0, 1, 2),
        ),
        "ConstructionResult(family='mop', parameters={'n': 3}, "
        "graph=Multigraph(order=3, size=3), augmentation=Augmentation(additions=()), "
        "certificate=Decomposition(triangles=(Triangle(a=0, b=1, c=2),)), claimed_epsilon=0, "
        "outer_cycle=(0, 1, 2), faces=None, rotation=None)",
        id="ConstructionResult",
    ),
]


@pytest.mark.parametrize("make, fields, other, text", RECORDS)
def test_record_equality_hash_and_repr(make, fields, other, text):
    record = make()
    assert record == make() and not record != make()
    assert record != other and not record == other
    values = tuple(getattr(record, name) for name in fields)
    try:
        expected = hash(values)
    except TypeError:  # a field holds a dict or a Multigraph
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    assert repr(record) == text


@pytest.mark.parametrize("make, fields, other, text", RECORDS)
def test_record_is_immutable(make, fields, other, text):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(other, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == make()


@pytest.mark.parametrize("make, fields, other, text", RECORDS)
def test_record_survives_copy_and_pickle(make, fields, other, text):
    record = make()
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == text


def test_multiset_records_keep_their_items_sorted():
    d = Decomposition([Triangle(2, 3, 4), Triangle(0, 1, 2), Triangle(0, 1, 2)])
    assert d.triangles == (Triangle(0, 1, 2), Triangle(0, 1, 2), Triangle(2, 3, 4))
    assert len(d) == 3 and not Decomposition(())
    a = Augmentation((EdgeKey(1, 2), EdgeKey(0, 3), EdgeKey(0, 1)))
    assert a.additions == (EdgeKey(0, 1), EdgeKey(0, 3), EdgeKey(1, 2))
    assert len(a) == 3 and not Augmentation(())
    # The multisets are tuples of their items, and equal only their own type.
    e, f = EdgeKey(0, 1), EdgeKey(0, 2)
    a = Augmentation([f, e, f])
    assert list(a) == [e, f, f] and a[0] == e and a[-1] == f and a[1:] == (f, f)
    assert e in a and EdgeKey(1, 2) not in a
    assert len(a) == 3 and hash(a) == hash(((e, f, f),))
    assert type(a.additions) is tuple
    t = Triangle(0, 1, 2)
    d = Decomposition([Triangle(1, 2, 3), t])
    assert list(d) == [t, Triangle(1, 2, 3)] and d[0] == t and t in d
    assert len(d) == 2 and hash(d) == hash(((t, Triangle(1, 2, 3)),))
    assert type(d.triangles) is tuple
    for record, items in ((Augmentation([e]), (e,)), (Decomposition([t]), (t,))):
        assert record != items and items != record
        assert not record == items and not items == record
    assert Augmentation(()) != Decomposition(()) and Decomposition(()) != Augmentation(())
    assert not Augmentation(()) == Decomposition(())


def test_rotation_system_keeps_list_rows_as_tuples():
    listed = RotationSystem(3, [list(rot) for rot in K3_ROTATIONS])
    assert listed == RotationSystem(3, K3_ROTATIONS) and listed.rotations == K3_ROTATIONS
    assert hash(listed) == hash(RotationSystem(3, K3_ROTATIONS))
    assert all(type(rot) is tuple for rot in listed.rotations)


def test_rotation_system_keeps_list_entries_as_tuples():
    listed = RotationSystem(3, [[[1, 0], [2, 0]], [[2, 0], [0, 0]], [[0, 0], [1, 0]]])
    assert listed == RotationSystem(3, K3_ROTATIONS) and listed.rotations == K3_ROTATIONS
    assert hash(listed) == hash(RotationSystem(3, K3_ROTATIONS))
    assert all(type(entry) is tuple for rot in listed.rotations for entry in rot)


def test_edges_and_triangles_order_by_their_fields():
    edges = [EdgeKey(1, 2), EdgeKey(0, 3), EdgeKey(0, 1), EdgeKey(0, 2)]
    assert sorted(edges) == [EdgeKey(0, 1), EdgeKey(0, 2), EdgeKey(0, 3), EdgeKey(1, 2)]
    assert EdgeKey(0, 9) < EdgeKey(1, 2) and EdgeKey(0, 1) <= EdgeKey(0, 1)
    assert EdgeKey(1, 2) > EdgeKey(0, 9) and EdgeKey(0, 1) >= EdgeKey(0, 1)
    tris = [Triangle(1, 2, 3), Triangle(0, 2, 3), Triangle(0, 1, 4), Triangle(0, 1, 2)]
    assert sorted(tris) == [Triangle(0, 1, 2), Triangle(0, 1, 4), Triangle(0, 2, 3),
                            Triangle(1, 2, 3)]
    assert max(tris) == Triangle(1, 2, 3) and min(tris) == Triangle(0, 1, 2)


def _raises(message, make, *args):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make(*args)


def test_record_validation_messages():
    _raises("edge endpoints must be integers, got (0, 'a')", EdgeKey, 0, "a")
    _raises("negative vertex -1", EdgeKey, -1, 2)
    _raises("edge endpoints must satisfy u < v, got (2, 1)", EdgeKey, 2, 1)
    _raises("edge endpoints must satisfy u < v, got (1, 1)", EdgeKey, 1, 1)
    _raises("triangle vertices must satisfy 0 <= a < b < c, got (0, 2, 1)", Triangle, 0, 2, 1)
    _raises("triangle vertices must satisfy 0 <= a < b < c, got (-1, 0, 1)", Triangle, -1, 0, 1)
    _raises("order must be >= 0, got -1", RotationSystem, -1, ())
    _raises("expected 3 rotation lists, got 2", RotationSystem, 3, K3_ROTATIONS[:2])
    _raises("rotation entries must be (neighbor, copy), got [1, 0, 0]",
            RotationSystem, 2, (([1, 0, 0],), ((0, 0),)))
    _raises("rotation entries must be (neighbor, copy), got (1,)",
            RotationSystem, 2, (((1,),), ((0, 0),)))
    _raises("rotation entries must be (neighbor, copy), got 1", RotationSystem, 2, ((1,), ()))
    _raises("neighbor 5 at vertex 0 out of range", RotationSystem, 2, (((5, 0),), ()))
    _raises("neighbor True at vertex 0 out of range", RotationSystem, 2, (((True, 0),), ()))
    _raises("loop at vertex 1", RotationSystem, 2, ((), ((1, 0),)))
    _raises("copy index -1 at vertex 0 invalid", RotationSystem, 2, (((1, -1),), ()))
    _raises("rotations must be a list of per-vertex lists, got 5", RotationSystem, 3, 5)
    _raises("rotation of vertex 0 must be a list, got None", RotationSystem, 2, [None, None])
