"""Tests for the constructed graph families and their validation invariants."""

import hashlib
import json

import pytest

from tridecomp import (
    Augmentation,
    ConstructionResult,
    ConstructionUnavailable,
    Decomposition,
    DomainError,
    InvariantViolation,
    Multigraph,
    NotAFixture,
    ORDER_LIMIT,
    ScaleLimit,
    apply_augmentation,
    degree_sequence,
    edge,
    epsilon_class_exact,
    epsilon_exact,
    fan,
    find_decomposition,
    hmp_construct,
    intermediate,
    is_maximal_outerplanar,
    kop_construct,
    mop_construct,
    sc2_tree_construct,
    sc3_construct,
    sf_fixture,
    trace_faces,
    validate_construction,
    verify_construction,
)
from tridecomp import analysis, families
from tridecomp.decomposer import CoverInstance

from oracle_helpers import (
    complete_graph,
    find_hamiltonian_cycle,
    oracle_parity_bound,
    oracle_sc2_tree_envelopes,
)


def test_validate_construction_rejects_tampering():
    base = mop_construct(4)
    validate_construction(base)
    with pytest.raises(InvariantViolation):
        validate_construction(base._replace(claimed_epsilon=base.claimed_epsilon + 3))
    bigger = Augmentation(base.augmentation.additions + (edge(0, 1),))
    with pytest.raises(InvariantViolation):
        validate_construction(
            base._replace(augmentation=bigger, claimed_epsilon=len(bigger))
        )
    with pytest.raises(InvariantViolation):
        validate_construction(
            base._replace(certificate=Decomposition(base.certificate.triangles[1:]))
        )
    with pytest.raises(InvariantViolation):
        validate_construction(
            base._replace(augmentation=Augmentation((edge(1, 3),)), claimed_epsilon=1)
        )


def test_validate_construction_raises_the_first_failing_check():
    base = mop_construct(4)
    with pytest.raises(InvariantViolation) as info:
        validate_construction(base._replace(claimed_epsilon=4))
    assert str(info.value) == "augmentation lists 1 added copies, the count is 4"
    with pytest.raises(InvariantViolation) as info:
        validate_construction(base._replace(certificate=Decomposition(())))
    assert str(info.value) == "edge {0, 1} undercovered"


def _catalogue():
    """One member of every family and shape."""
    return [
        mop_construct(7),
        fan(6),
        intermediate(9, 1),
        kop_construct(5, 3),
        hmp_construct(9),
        sc2_tree_construct(9),
        sc2_tree_construct(4),
        sc2_tree_construct(5),
        sc3_construct(7),
        sf_fixture(7),
        sf_fixture(8),
        sf_fixture(9),
    ]


def test_envelopes_round_trip_and_verify():
    for res in _catalogue():
        back = ConstructionResult.from_json_dict(json.loads(json.dumps(res.to_json_dict())))
        assert back == res
        checks = verify_construction(back)
        assert all(ok is not False for ok, _ in checks), (res.family, checks)
        # sc3's rule, its graph and count, prints no line; every other family
        # adds structure lines.
        assert len(checks) > 3 or res.family == "sc3"
        if res.family == "sf":
            assert (None, "genus: 1") in checks


def test_verify_reads_every_familys_parameters(monkeypatch):
    # The catalogue and the envelopes both sweeps recheck verify with no
    # parameter line; parameters that do not describe the member add one
    # fail line, after the lines the member keeps.  kop's ring line, the
    # last line it has, is read off m and k, so it gives way to that line.
    rechecked = []
    real = families.validate_construction
    monkeypatch.setattr(families, "validate_construction",
                        lambda res: (rechecked.append(res), real(res))[1])
    for n in range(3, 10):
        epsilon_class_exact(n)
        families.xi_class_exact(n)
    assert [res.family for res in rechecked] == ["mop", "fan"] * 7
    for res in _catalogue() + rechecked:
        checks = verify_construction(res)
        assert all(ok is not False and "parameters" not in m for ok, m in checks), res.family
        wrong = {k: v + 1 for k, v in res.parameters.items()}
        line = (False, f"parameters {wrong!r} do not describe this {res.family} envelope")
        kept = checks
        if res.family == "kop":
            kept, ring = checks[:-1], checks[-1]
            assert ring == (True, f"all {res.parameters['k']} layer rings present")
        assert verify_construction(res._replace(parameters=wrong)) == kept + [line]


def test_verify_refuses_a_count_above_the_familys_least():
    # Every family's rule but sf's fixes its count at the proven least.  One
    # more copy of the first certificate triangle, its three edges added as
    # copies, keeps every other line but breaks that rule.
    for res in _catalogue():
        if res.family == "sf":  # its drawn additions are not claimed least
            continue
        first = res.certificate.triangles[0]
        padded = res._replace(
            augmentation=Augmentation(res.augmentation.additions + first.edges()),
            certificate=Decomposition(res.certificate.triangles + (first,)),
            claimed_epsilon=res.claimed_epsilon + 3)
        line = (False, f"parameters {res.parameters!r} do not describe this {res.family} envelope")
        checks = verify_construction(padded)
        assert checks[0] == (True, f"augmentation lists {res.claimed_epsilon + 3} added copies")
        assert checks[1:] == verify_construction(res)[1:] + [line], res.family


def test_verify_refuses_a_member_under_another_familys_name():
    # The fan's 3 copies at order 6 are no residue, and its graph is not
    # sc3's; no other family's member is sc3's graph with its 3 copies.
    six = fan(6)
    for family in ("mop", "sc3", "sc2tree"):
        line = (False, f"parameters {{'n': 6}} do not describe this {family} envelope")
        assert verify_construction(six._replace(family=family))[-1] == line
    others = [res for res in _catalogue() if res.family != "sc3"]
    assert len(others) == 11
    for res in others:
        n = res.graph.order
        checks = verify_construction(res._replace(family="sc3", parameters={"n": n}))
        assert checks[-1] == (False, f"parameters {{'n': {n}}} do not describe this sc3 envelope")


def test_mop_construct_all_small_orders():
    for n in list(range(3, 42)) + [60, 63, 64, 70, 80]:
        res = mop_construct(n)
        validate_construction(res)
        assert res.claimed_epsilon == n % 3
        assert res.graph.size() == 2 * n - 3
        assert res.outer_cycle == tuple(range(n))
        assert is_maximal_outerplanar(res.graph, res.outer_cycle)
    with pytest.raises(DomainError):
        mop_construct(2)


def test_mop_construct_attains_the_class_minimum():
    for n in range(3, 8):
        assert mop_construct(n).claimed_epsilon == epsilon_class_exact(n)[0]


def test_mop_construct_claim_is_exact():
    for n in range(3, 10):
        res = mop_construct(n)
        assert epsilon_exact(res.graph)[0] == res.claimed_epsilon


def test_fan_family():
    for n in range(3, 10):
        res = fan(n)
        validate_construction(res)
        assert res.claimed_epsilon == n - 3
        assert res.augmentation.additions == tuple(edge(0, i) for i in range(2, n - 1))
        assert is_maximal_outerplanar(res.graph, res.outer_cycle)
        assert len(res.certificate) == n - 2
    with pytest.raises(DomainError):
        fan(2)


def test_fan_needs_every_chord_doubled_under_cap():
    for n in range(4, 8):
        t, _, _ = epsilon_exact(fan(n).graph, max_copies_per_edge=1)
        assert t == n - 3


def test_intermediate_family_spans_the_ladder():
    for n in range(6, 11):
        for r in range((n - 3) // 3 + 1):
            res = intermediate(n, r)
            validate_construction(res)
            assert res.claimed_epsilon == (n % 3) + 3 * r
            assert res.claimed_epsilon <= n - 3
            assert res.parameters == {"n": n, "r": r}
            assert is_maximal_outerplanar(res.graph, res.outer_cycle)
    assert intermediate(6, 0).family == "intermediate"
    # both ends of the ladder match their own family in every field but the name
    for n in range(3, 31):
        ends = [(intermediate(n, 0), mop_construct(n))]
        if n % 3 == 0:
            ends.append((intermediate(n, (n - 3) // 3), fan(n)))
        for res, end in ends:
            assert res._replace(family=end.family, parameters=end.parameters) == end, n
    with pytest.raises(DomainError):
        intermediate(6, 2)
    with pytest.raises(DomainError):
        intermediate(8, -1)
    with pytest.raises(DomainError):
        intermediate(2, 0)


def _printed_digest(members):
    """One sha256 over the envelopes as ``construct`` prints them."""
    digest = hashlib.sha256()
    for res in members:
        digest.update((json.dumps(res.to_json_dict(), indent=2) + "\n").encode())
    return digest.hexdigest()


def test_triangulated_cycle_envelopes_are_byte_pinned():
    # One digest over the printed envelopes of the triangulated-cycle ladder
    # and its kop and seed relatives, recorded before their builders shared
    # one code path, so any change to a printed byte shows here.
    members = [f(n) for n in range(3, 61) for f in (mop_construct, fan)]
    members += [intermediate(n, r) for n in range(3, 61) for r in range((n - 3) // 3 + 1)]
    members += [kop_construct(m, k) for m in range(3, 13) for k in range(1, 4)]
    # The seeds of orders 4 and 5, under the family name they were pinned with.
    members += [sc2_tree_construct(3 + r)._replace(family="sc2seed", parameters={"residue": r})
                for r in (1, 2)]
    assert len(members) == 738
    assert _printed_digest(members) == "cbbbc0c492ebd10c6512147fbbf757d15b8b2f9fada50189ed4ec90abd24fd52"


def test_intermediate_claim_is_exact():
    for n, r in [(6, 1), (7, 0), (7, 1), (8, 1), (9, 1), (10, 2)]:
        res = intermediate(n, r)
        assert epsilon_exact(res.graph)[0] == res.claimed_epsilon


def test_kop_family():
    for m, k in [(3, 1), (3, 4), (5, 2), (6, 2), (6, 3), (7, 2), (9, 1)]:
        res = kop_construct(m, k)
        validate_construction(res)
        assert res.claimed_epsilon == m % 3
        assert res.graph.order == m * k
        assert res.graph.size() == (2 * m - 3) + (k - 1) * 3 * m
        assert res.outer_cycle == tuple((k - 1) * m + i for i in range(m))
        for i in range(m):
            assert res.graph.has_edge(
                edge((k - 1) * m + i, (k - 1) * m + (i + 1) % m)
            )
    assert kop_construct(5, 1).graph == mop_construct(5).graph
    with pytest.raises(DomainError):
        kop_construct(2, 1)
    with pytest.raises(DomainError):
        kop_construct(3, 0)


def test_kop_outer_layer_peels_off():
    for m, k in [(3, 3), (5, 2), (6, 3), (7, 2)]:
        outer = kop_construct(m, k)
        inner = kop_construct(m, k - 1)
        cutoff = (k - 1) * m
        kept = [
            (e.u, e.v, mult)
            for e, mult in outer.graph.items()
            if e.v < cutoff
        ]
        assert kept == [(e.u, e.v, mult) for e, mult in inner.graph.items()]


def test_kop_claim_is_exact():
    for m, k in [(4, 2), (5, 2)]:
        res = kop_construct(m, k)
        assert epsilon_exact(res.graph)[0] == res.claimed_epsilon


def test_hmp_family():
    for n in [6, 8, 10, 12, 9, 11, 13]:
        res = hmp_construct(n)
        validate_construction(res)
        assert res.claimed_epsilon == 0
        assert len(res.augmentation) == 0
        assert res.graph.size() == 3 * n - 6
        assert all(d % 2 == 0 for d in degree_sequence(res.graph))
        assert find_hamiltonian_cycle(res.graph) is not None
        # the face list is a planar triangulation: 2n-4 faces, every edge
        # on exactly two of them, Euler count V - E + F = 2
        assert res.faces is not None and len(res.faces) == 2 * n - 4
        cover = {}
        for t in res.faces:
            for e in t.edges():
                cover[e] = cover.get(e, 0) + 1
        assert cover == {e: 2 for e in res.graph.edges()}
        assert res.graph.order - res.graph.size() + len(res.faces) == 2
    for n in [4, 5, 7]:
        with pytest.raises(ConstructionUnavailable):
            hmp_construct(n)
    with pytest.raises(ScaleLimit):
        hmp_construct(ORDER_LIMIT + 2)


def test_verify_checks_the_hmp_cycle_of_the_order():
    # The cycle verify derives from the order alone is a Hamiltonian cycle
    # of the member hmp_construct builds at that order.
    for n in [6, *range(8, 301)]:
        g = hmp_construct(n).graph
        cycle = analysis._hmp_cycle(n)
        assert sorted(cycle) == list(range(n)), n
        assert all(g.has_edge(edge(u, v)) for u, v in zip(cycle, cycle[1:] + cycle[:1])), n
    assert [n for n in range(12) if analysis._hmp_cycle(n) is None] == [0, 1, 2, 3, 4, 5, 7]
    # An order with no member fails the cycle check; it does not raise.
    for n in [3, 4, 5, 7]:
        fake = ConstructionResult("hmp", {}, complete_graph(n), Augmentation(()),
                                  Decomposition(()), 0)
        assert (False, f"no hmp member has order {n}") in verify_construction(fake)


def test_hmp_certificate_is_a_face_colour_class():
    for n in [6, *range(8, 31)]:
        res = hmp_construct(n)
        assert res.faces[0] in res.certificate.triangles
        assert set(res.certificate.triangles) <= set(res.faces)
        assert res.certificate == find_decomposition(res.graph)


def test_sc2_tree_family():
    for n in range(3, 21):
        res = sc2_tree_construct(n)
        validate_construction(res)
        assert res.claimed_epsilon == n % 3
        assert res.graph.size() == 2 * n - 3
        assert len(res.certificate) == (2 * n - 3 + n % 3) // 3
        assert is_maximal_outerplanar(res.graph, res.outer_cycle)
    assert epsilon_exact(sc2_tree_construct(6).graph)[0] == 0
    for bad in [0, 1, 2]:
        with pytest.raises(DomainError, match=f"^order must be >= 3, got {bad}$"):
            sc2_tree_construct(bad)


def test_sc2_tree_matches_the_boundary_list_builder():
    orders = []
    for n, expected in oracle_sc2_tree_envelopes(600):
        assert json.dumps(sc2_tree_construct(n).to_json_dict()) == json.dumps(expected), n
        orders.append(n)
    assert sorted(orders) == list(range(3, 601))


def test_sc2_tree_seeds():
    # The seeds of residues 1 and 2 are the members of orders 4 and 5.
    for r in (1, 2):
        seed = sc2_tree_construct(3 + r)
        validate_construction(seed)
        assert seed.graph.order == 3 + r and seed.claimed_epsilon == r
        assert is_maximal_outerplanar(seed.graph, seed.outer_cycle)
        assert epsilon_exact(seed.graph)[0] == r
        wrong = seed._replace(parameters={"n": 2 + r})
        assert verify_construction(wrong) == verify_construction(seed) + [
            (False, f"parameters {{'n': {2 + r}}} do not describe this sc2tree envelope")]


def test_sc3_family():
    for n in range(4, 10):
        res = sc3_construct(n)
        validate_construction(res)
        assert res.claimed_epsilon == 3
        assert len(res.augmentation) == 3
        assert res.graph.size() % 3 == 0
    with pytest.raises(DomainError):
        sc3_construct(3)


def test_sc3_claim_is_exact():
    for n in range(4, 9):
        res = sc3_construct(n)
        assert epsilon_exact(res.graph)[0] == 3
        assert oracle_parity_bound(res.graph)[2] == 3


def test_sc3_and_kop_graphs_follow_their_edge_rules():
    # The constructors list only certificates; the graphs they cover must
    # still be the ones the docstrings describe, past the byte-pinned ranges.
    for n in range(4, 301):
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for a in range(4, n):
            pairs += [(a - 1, a), (1, a), (2, a)]  # the chain, and both hubs
        assert sc3_construct(n).graph == Multigraph.from_edges(n, pairs), n
    for m in range(3, 31):
        core = [tuple(e) for e in mop_construct(m).graph.edges()]
        for k in range(1, 6):
            pairs = list(core)
            for j in range(1, k):
                below, off = (j - 1) * m, j * m
                for i in range(m):
                    ni = (i + 1) % m
                    # the ring, the matching below and the shifted matching
                    pairs += [(off + i, off + ni), (off + i, below + i), (off + i, below + ni)]
            assert kop_construct(m, k).graph == Multigraph.from_edges(m * k, pairs), (m, k)


def test_hmp_and_sc3_envelopes_are_byte_pinned():
    # One digest over the printed hmp and sc3 envelopes, recorded before
    # each family was reduced to one rule (a face list for hmp, a chain rule
    # for sc3), so any change to a printed byte shows here.
    members = [hmp_construct(n) for n in [6, *range(8, 151)]]
    members += [sc3_construct(n) for n in range(4, 151)]
    assert len(members) == 291
    assert _printed_digest(members) == "178b25edb9797812e1b795245880eca3275052aa0da065e0faa9a42423a1b2ea"


def test_sc2tree_and_sf_envelopes_are_byte_pinned(monkeypatch):
    # One digest over printed sc2tree envelopes past the oracle test's range
    # and the three sf fixtures, recorded before sc2tree lost its boundary
    # heap, sf its edge list next to the rotation system, and sf its search.
    # The cover search raises here: no constructor may call it.
    def no_search(*args):
        raise AssertionError("a constructor ran the cover search")

    monkeypatch.setattr(CoverInstance, "solve", no_search)
    members = [sc2_tree_construct(n) for n in range(603, 1144, 60)]
    members += [sf_fixture(n) for n in (7, 8, 9)]
    assert len(members) == 13
    assert _printed_digest(members) == "481ee5b2c88291841dac5490ccb9cc5263432fa78bbb8e2190d2a6bf7c8a0e00"


@pytest.mark.parametrize(
    "build, args",
    [
        (intermediate, (6, True)),
        (intermediate, (6, False)),
        (kop_construct, (4, True)),
        (sc2_tree_construct, (True,)),
        (sf_fixture, (7.0,)),
        (sc2_tree_construct, (6.0,)),
        (hmp_construct, (8.0,)),
        (kop_construct, (4, 1.0)),
        (mop_construct, (6.0,)),
        (fan, (6.0,)),
        (sc3_construct, (6.0,)),
    ],
)
def test_constructors_refuse_parameters_that_are_not_integers(build, args):
    # A bool would print as JSON true/false, which verify refuses; a float
    # would end in a TypeError.  Both are DomainError at the call.
    with pytest.raises(DomainError, match="must be an integer"):
        build(*args)


def test_sf_fixtures():
    sizes = {7: 17, 8: 19, 9: 21}
    augs = {7: 4, 8: 2, 9: 6}
    for n in (7, 8, 9):
        res = sf_fixture(n)
        validate_construction(res)
        assert res.graph.size() == sizes[n]
        assert len(res.augmentation) == augs[n]
        assert res.claimed_epsilon == augs[n]
        assert res.rotation is not None
        tr = trace_faces(res.rotation)
        assert tr.genus == 1
        assert tr.V == n and tr.E == sizes[n]
        assert any(set(face) == set(range(n)) for face in tr.faces)
    for bad in (6, 10):
        with pytest.raises(NotAFixture):
            sf_fixture(bad)


# The additions of the source drawing of each toroidal fixture.
SF_DRAWN = {
    7: [(0, 6), (0, 5), (4, 5), (1, 5)],
    8: [(0, 6), (1, 6)],
    9: [(0, 3), (0, 6), (1, 6), (1, 7), (2, 7), (3, 4)],
}


@pytest.mark.parametrize("n", sorted(SF_DRAWN))
def test_sf_certificates_are_the_search_on_the_drawing(n):
    # The stored certificate is what the cover search finds on the graph of
    # the rotation system plus the drawn additions, and those additions are
    # the copies the fixture claims.
    rot = families._SF_ROTATIONS[n]
    g = Multigraph.from_edges(n, [(v, u) for v in range(n) for u in rot[v] if v < u])
    drawn = Augmentation(edge(u, v) for u, v in SF_DRAWN[n])
    assert find_decomposition(apply_augmentation(g, drawn)) == Decomposition(families._SF_CERTS[n])
    res = sf_fixture(n)
    assert res.augmentation == drawn
    assert res.graph == g


def test_sf_fixture_minimum_additions():
    # the drawn augmentations for orders 7 and 8 are minimum; the order-9
    # drawing uses six copies but three suffice
    assert epsilon_exact(sf_fixture(7).graph)[0] == 4
    assert epsilon_exact(sf_fixture(8).graph)[0] == 2
    t, aug, _ = epsilon_exact(sf_fixture(9).graph)
    assert t == 3
    assert aug.additions == (edge(0, 2), edge(0, 3), edge(3, 4))
    assert t <= sf_fixture(9).claimed_epsilon
    assert t % 3 == sf_fixture(9).claimed_epsilon % 3


def test_construction_graphs_are_fresh_objects():
    a = mop_construct(6)
    b = mop_construct(6)
    assert a.graph == b.graph
    assert a.certificate == b.certificate
    assert apply_augmentation(a.graph, a.augmentation) is not a.graph
