"""Tests for triangle enumeration, certificate checking, and the exact solver."""

import random
import weakref
from itertools import combinations

import pytest

from tridecomp import (
    Augmentation,
    CapInfeasible,
    Decomposition,
    DomainError,
    InvariantViolation,
    Multigraph,
    Triangle,
    coverage_error,
    edge,
    enumerate_triangles,
    epsilon_exact,
    fan,
    fast_reject,
    find_decomposition,
    hmp_construct,
    sc3_construct,
    triangle,
)
from tridecomp import decomposer
from tridecomp.decomposer import CoverInstance

from oracle_helpers import (
    complete_graph,
    cycle_graph,
    oracle_decomposable,
    oracle_triangles,
    scan_solve,
    simple_graphs,
)
from test_augment import NINE_VERTEX


def test_enumerate_triangles_on_known_graphs():
    assert enumerate_triangles(complete_graph(4)) == [
        triangle(0, 1, 2),
        triangle(0, 1, 3),
        triangle(0, 2, 3),
        triangle(1, 2, 3),
    ]
    assert enumerate_triangles(cycle_graph(5)) == []
    assert enumerate_triangles(Multigraph(3)) == []
    # built without the validating constructor, but still Triangles
    assert all(type(t) is Triangle for t in enumerate_triangles(complete_graph(5)))


def test_enumerate_triangles_ignores_multiplicity():
    g1 = complete_graph(4)
    g2 = Multigraph.from_edges(4, [(u, v, 3) for u, v in combinations(range(4), 2)])
    assert enumerate_triangles(g1) == enumerate_triangles(g2)


def test_enumerate_triangles_matches_oracle_on_small_graphs():
    for n in range(1, 6):
        for g in simple_graphs(n):
            got = [tuple(t) for t in enumerate_triangles(g)]
            assert got == oracle_triangles(g)


def test_decomposition_sorts_and_keeps_repeats():
    t1 = triangle(0, 1, 2)
    t2 = triangle(0, 1, 3)
    d = Decomposition((t2, t1, t2))
    assert d.triangles == (t1, t2, t2)
    assert len(d) == 3


def test_decomposition_json_round_trip():
    d = Decomposition((triangle(1, 2, 4), triangle(0, 1, 2)))
    data = d.to_json_dict()
    assert data == {"triangles": [[0, 1, 2], [1, 2, 4]]}
    assert Decomposition.from_json_dict(data) == d
    with pytest.raises(DomainError):
        Decomposition.from_json_dict({})
    with pytest.raises(DomainError):
        Decomposition.from_json_dict({"triangles": [[0, 1]]})
    with pytest.raises(DomainError):
        Decomposition.from_json_dict({"triangles": [[0, 1, 1]]})


def test_coverage_error_accepts_exact_cover():
    g = complete_graph(3)
    assert coverage_error(g, Decomposition((triangle(0, 1, 2),))) is None
    doubled = Multigraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    assert coverage_error(doubled, Decomposition((triangle(0, 1, 2),) * 2)) is None
    assert coverage_error(doubled, Decomposition((triangle(0, 1, 2),))) == (
        "undercovered", edge(0, 1))


def test_coverage_error_reports_least_defective_edge():
    g = complete_graph(3)
    assert coverage_error(g, Decomposition((triangle(0, 1, 2),))) is None
    # nothing covered: every edge undercovered, least edge reported
    assert coverage_error(g, Decomposition(())) == ("undercovered", edge(0, 1))
    # everything covered twice
    twice = Decomposition((triangle(0, 1, 2), triangle(0, 1, 2)))
    assert coverage_error(g, twice) == ("overcovered", edge(0, 1))
    # a triangle leaning on absent edges
    h = Multigraph.from_edges(4, [(0, 2), (0, 3), (2, 3)])
    bad = Decomposition((triangle(0, 1, 2),))
    assert coverage_error(h, bad) == ("notanedge", edge(0, 1))
    # a triangle reaching past the vertex range
    tall = Decomposition((triangle(0, 1, 2), triangle(3, 4, 5)))
    assert coverage_error(g, tall) == ("notanedge", edge(3, 4))


def test_fast_reject_checks_in_fixed_order():
    assert fast_reject(complete_graph(3)) is None
    r = fast_reject(cycle_graph(4))
    assert (r.kind, r.vertex, r.edge) == ("size_not_divisible", None, None)
    r = fast_reject(complete_graph(4))
    assert (r.kind, r.vertex) == ("odd_vertex", 0)
    r = fast_reject(cycle_graph(6))
    assert (r.kind, r.edge) == ("edge_not_on_triangle", edge(0, 1))
    # odd degrees are reported before missing triangles
    path = Multigraph.from_edges(3, [(0, 1, 2), (1, 2)])
    r = fast_reject(path)
    assert (r.kind, r.vertex) == ("odd_vertex", 1)


def test_reject_reason_json_shapes():
    assert fast_reject(cycle_graph(4)).to_json_dict() == {"kind": "size_not_divisible"}
    assert fast_reject(complete_graph(4)).to_json_dict() == {"kind": "odd_vertex", "vertex": 0}
    assert fast_reject(cycle_graph(6)).to_json_dict() == {
        "kind": "edge_not_on_triangle",
        "edge": [0, 1],
    }


def test_find_decomposition_on_known_positives():
    d = find_decomposition(complete_graph(3))
    assert d == Decomposition((triangle(0, 1, 2),))
    # complete graph on 7 vertices: 21 edges, 7 triangles
    d7 = find_decomposition(complete_graph(7))
    assert d7 is not None and len(d7) == 7
    assert coverage_error(complete_graph(7), d7) is None
    # octahedron: complete graph on 6 vertices minus a perfect matching
    octa = Multigraph.from_edges(
        6,
        [
            (u, v)
            for u, v in combinations(range(6), 2)
            if (u, v) not in [(0, 1), (2, 3), (4, 5)]
        ],
    )
    do = find_decomposition(octa)
    assert do is not None and len(do) == 4
    assert coverage_error(octa, do) is None
    # complete graph on 6 vertices plus a doubled perfect matching
    k6aug = Multigraph.from_edges(
        6, [(u, v) for u, v in combinations(range(6), 2)] + [(0, 1), (2, 3), (4, 5)]
    )
    da = find_decomposition(k6aug)
    assert da is not None and len(da) == 6
    assert coverage_error(k6aug, da) is None


def test_find_decomposition_on_known_negatives():
    assert find_decomposition(complete_graph(4)) is None
    k5_minus = Multigraph.from_edges(
        5, [(u, v) for u, v in combinations(range(5), 2) if (u, v) != (0, 1)]
    )
    assert find_decomposition(k5_minus) is None
    # passes every cheap check, but the spine {0,1} needs eight covering
    # triangles while each of the only two triangles is usable just once
    book = Multigraph.from_edges(4, [(0, 1, 8), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert fast_reject(book) is None
    assert find_decomposition(book) is None


def test_complete_graphs_decompose_exactly_at_steiner_orders():
    # K_n has a triangle decomposition (a Steiner triple system) iff n = 1 or 3 mod 6.
    for n in range(3, 41):
        assert (find_decomposition(complete_graph(n)) is not None) == (n % 6 in (1, 3))


def test_find_decomposition_is_deterministic():
    g = complete_graph(7)
    assert find_decomposition(g) == find_decomposition(g)
    octa = Multigraph.from_edges(
        6,
        [
            (u, v)
            for u, v in combinations(range(6), 2)
            if (u, v) not in [(0, 1), (2, 3), (4, 5)]
        ],
    )
    assert find_decomposition(octa) == find_decomposition(octa)


def test_cover_instance_reuses_triangles_across_residuals():
    g = complete_graph(3)
    inst = CoverInstance(g)
    assert inst.solve([1, 1, 1], [1, 1, 1], 1) == [0]
    assert inst.solve([2, 2, 2], [2, 2, 2], 2) == [0, 0]
    assert inst.solve([1, 1, 2], [1, 1, 2], 1) is None
    with pytest.raises(InvariantViolation):  # no room on any edge
        inst.solve([0, 0, 0], [0, 0, 0], 0)
    assert inst.records([0, 0]) == (Augmentation([(0, 1), (0, 2), (1, 2)]),
                                    Decomposition((triangle(0, 1, 2),) * 2))


# Edges 01, 12 and 23 repeat; the triangles are 012, 123 and 234.
REPEATED = Multigraph.from_edges(5, [(0, 1, 3), (0, 2, 1), (1, 2, 2), (1, 3, 1),
                                     (2, 3, 2), (2, 4, 1), (3, 4, 1)])


def test_cover_instance_keeps_no_triangle_listing(monkeypatch):
    # Each triangle is kept only as its three edge indices, so the listing
    # is freed as soon as the build has read it.
    class Listing(list):
        pass

    listed = []

    def listing(g):
        out = Listing(enumerate_triangles(g))
        listed.append(weakref.ref(out))
        return out

    monkeypatch.setattr(decomposer, "enumerate_triangles", listing)
    for g, count in ((complete_graph(6), 20), (REPEATED, 3)):
        inst = CoverInstance(g)
        assert listed[-1]() is None
        assert len(inst.tri_edges) == count


def test_cover_instance_reads_its_records_off_every_index():
    graphs = [complete_graph(n) for n in range(4, 10)] + [REPEATED]
    graphs += [hmp_construct(10).graph, fan(12).graph, sc3_construct(9).graph]
    for g in graphs:
        inst = CoverInstance(g)
        every = range(len(inst.tri_edges))
        triangles = Decomposition(enumerate_triangles(g))
        assert inst.records(every)[1] == triangles
        assert inst.ends == [tuple(e) for e in g.edges()]
        assert all(type(e) is tuple for e in inst.ends)
        # Every triangle once is an exact cover of the graph with these
        # multiplicities, so its records add no copy.
        counts = inst.edge_counts(every)
        exact = Multigraph.from_edges(g.order, [(u, v, c) for (u, v), c in zip(inst.ends, counts)])
        assert CoverInstance(exact).records(every) == (Augmentation([]), triangles)


def test_solve_covers_each_edge_between_lo_and_hi():
    k4 = CoverInstance(complete_graph(4))
    chosen = k4.solve([1] * 6, [2] * 6, 3)
    assert chosen == [0, 1, 2]
    assert k4.edge_counts(chosen) == [2, 2, 2, 1, 1, 1]
    # two triangles of K4 share an edge, so they cover only five of six
    assert k4.solve([1] * 6, [2] * 6, 2) is None
    k5 = CoverInstance(complete_graph(5))
    counts = k5.edge_counts(k5.solve([1] * 10, [3] * 10, 4))
    assert sum(counts) == 12 and all(1 <= c <= 3 for c in counts)
    assert k5.solve([1] * 10, [3] * 10, 3) is None  # nine coverings, ten edges
    # vertex 0 pinned at degree 6 (edge {0,1} tripled) decomposes
    lo = [3, 1, 1, 1] + [1] * 6
    hi = [3, 1, 1, 1] + [3] * 6
    assert k5.edge_counts(k5.solve(lo, hi, 4)) == [3] + [1] * 9
    # pinned at odd degree 5 it cannot: a triangle covers two edges at a corner
    lo[0] = hi[0] = 2
    assert k5.solve(lo, hi, 4) is None


def test_a_call_refused_at_the_root_reads_no_triangle():
    # A set-up reads its edges; once its root tests pass it is charged one
    # step per triangle too.
    k4 = CoverInstance(complete_graph(4))
    # Every vertex is pinned at the odd degree 3, so the parity test refuses.
    assert k4.solve(k4.base, k4.base, 2) is None
    assert (k4.steps, k4.scanned) == (0, len(k4.base))
    # Three coverings for six edges: the slack is -3, which the parity
    # test refuses too, since no count of odd vertices is below 0.
    assert k4.solve(k4.base, k4.base, 1) is None
    assert (k4.steps, k4.scanned) == (0, 2 * len(k4.base))
    # Slack 1 with four odd vertices: one covering beyond lo fixes two.
    lo = [1, 1, 1, 1, 1, 3]
    assert k4.solve(lo, [a + 1 for a in lo], 3) is None
    assert (k4.steps, k4.scanned) == (0, 3 * len(k4.base))
    # A call that passes them all is charged every triangle once more.
    assert k4.solve([1] * 6, [2] * 6, 3) == [0, 1, 2]
    assert k4.scanned == 4 * len(k4.base) + len(k4.tri_edges)


def test_a_bound_that_leaves_an_edge_no_room_is_refused():
    # Every search starts with all its triangles alive, which holds once
    # each edge has room for one covering at the root.  Here edge 01 has
    # hi = 0 while the slack, room and parity tests all pass.
    k4 = CoverInstance(complete_graph(4))
    with pytest.raises(InvariantViolation, match="leaves an edge no room"):
        k4.solve([0] + [1] * 5, [0] + [2] * 5, 2)
    assert (k4.steps, k4.scanned) == (0, len(k4.base))


def _triangle_union(rng, n, count):
    """The multigraph union of count random triangles on n vertices."""
    mult = {}
    for _ in range(count):
        a, b, c = sorted(rng.sample(range(n), 3))
        for e in ((a, b), (a, c), (b, c)):
            mult[e] = mult.get(e, 0) + 1
    return Multigraph.from_edges(n, [(u, v, m) for (u, v), m in sorted(mult.items())])


def test_solve_matches_the_scan_reference(monkeypatch):
    rng = random.Random(2108)
    compared = 0
    solve = CoverInstance.solve

    def agree(inst, lo, hi, k):
        nonlocal compared
        before = inst.steps
        got = solve(inst, lo, hi, k)
        assert (got, inst.steps - before) == scan_solve(inst, lo, hi, k), (lo, hi, k)
        compared += 1
        return got

    for _ in range(50):
        g = _triangle_union(rng, rng.randint(6, 12), rng.randint(3, 14))
        inst = CoverInstance(g)
        m = inst.base
        assert agree(inst, m, m, g.size() // 3) is not None
        bumped = list(m)
        for i in rng.sample(range(len(m)), 3):
            bumped[i] += 1
        agree(inst, bumped, bumped, sum(bumped) // 3)
        # Multiplicities 1 or 2 on the same support, as epsilon sees them,
        # with k climbing one step at a time to its least value and one past it.
        lo = [rng.randint(1, 2) for _ in m]
        for cap in (1, 2, sum(lo)):
            hi = [a + cap for a in lo]
            k = -(-sum(lo) // 3)
            while agree(inst, lo, hi, k) is None and 3 * k < sum(hi):
                k += 1
            agree(inst, lo, hi, k + 1)
    for _ in range(8):
        g = _triangle_union(rng, 20, rng.randint(48, 56))
        inst = CoverInstance(g)
        m = inst.base
        assert agree(inst, m, m, g.size() // 3) is not None
    assert compared >= 300
    # Every call of epsilon's climb and witness pinning, uncapped and with
    # one copy per edge, on the nine-vertex graph and fans 13-15.
    start = compared
    monkeypatch.setattr(CoverInstance, "solve", agree)
    for g in (NINE_VERTEX, fan(13).graph, fan(14).graph, fan(15).graph):
        for cap in (None, 1):
            try:
                epsilon_exact(g, max_copies_per_edge=cap)
            except CapInfeasible:
                assert g is NINE_VERTEX and cap == 1
    assert compared - start == 99


def test_solve_keeps_no_state_between_calls():
    g = _triangle_union(random.Random(7), 12, 16)
    m = CoverInstance(g).base
    ones, twos = [1] * len(m), [2] * len(m)
    least = -(-len(m) // 3)
    while CoverInstance(g).solve(ones, twos, least) is None:
        least += 1
    k = g.size() // 3
    calls = [
        (m, m, k),  # a hit: it returns mid-search, its chosen triangles not undone
        (ones, twos, least - 1),  # a refusal after a search
        (ones, twos, least),  # lo < hi
        (m, m, k - 1),  # lo == hi, refused at the root
        (m, m, k),
    ]
    shared = CoverInstance(g)
    answers = [shared.solve(*call) for call in calls]
    assert answers == [CoverInstance(g).solve(*call) for call in calls]
    assert None not in (answers[0], answers[2]) and answers[1] is None


def test_solver_agrees_with_oracle_on_simple_graphs():
    for n in range(1, 6):
        for g in simple_graphs(n):
            d = find_decomposition(g)
            assert (d is not None) == oracle_decomposable(g)
            if d is not None:
                assert coverage_error(g, d) is None


def test_solver_agrees_with_oracle_on_doubled_variants():
    for g in simple_graphs(4):
        es = g.edges()
        if not es:
            continue
        doubled = Multigraph.from_edges(
            4, [(e.u, e.v, 2 if e == es[0] else 1) for e in es]
        )
        d = find_decomposition(doubled)
        assert (d is not None) == oracle_decomposable(doubled)
        if d is not None:
            assert coverage_error(doubled, d) is None
