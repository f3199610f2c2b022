"""Tests for exact minimum augmentation, checked against lower bounds, and the class sweeps."""

import random
import sys
from pathlib import Path

import pytest

from tridecomp import (
    AugmentNonAdjacent,
    Augmentation,
    CapInfeasible,
    DomainError,
    EdgeKey,
    EdgeNotOnTriangle,
    InvariantViolation,
    Multigraph,
    ScaleLimit,
    apply_augmentation,
    coverage_error,
    edge,
    enumerate_mops,
    epsilon_class_exact,
    epsilon_exact,
    fan,
    hmp_construct,
    intermediate,
    is_maximal_outerplanar,
    kop_construct,
    mop_construct,
    sc2_tree_construct,
    sc3_construct,
    xi_class_exact,
)
from tridecomp import families, graph_core

from oracle_helpers import (
    complete_graph,
    cycle_graph,
    every_edge_on_triangle_masks,
    fort_hedlund,
    graph_from_mask,
    milp_delta,
    milp_epsilon,
    oracle_epsilon,
    oracle_parity_bound,
    oracle_witness,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import corpus  # noqa: E402

# A 9-vertex multigraph of size 37 whose minimum needs 20 added copies.
NINE_VERTEX = Multigraph.from_edges(
    9,
    [
        (0, 2, 1), (0, 6, 1), (0, 7, 2), (1, 3, 2), (1, 4, 2), (1, 5, 2),
        (1, 7, 2), (1, 8, 2), (2, 3, 2), (2, 4, 1), (2, 5, 2), (2, 7, 2),
        (3, 6, 2), (3, 7, 1), (3, 8, 1), (4, 6, 1), (4, 7, 1), (4, 8, 1),
        (5, 6, 1), (5, 7, 2), (5, 8, 1), (6, 7, 1), (6, 8, 2), (7, 8, 2),
    ],
)


def random_multigraph(seed):
    """Order 7-14, size at most 60: the support of random triangles, each
    support edge given multiplicity 1 or 2, so every edge lies on a triangle."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(7, 14)
        support = set()
        for _ in range(rng.randint(4, 12)):
            a, b, c = rng.sample(range(n), 3)
            support.update({edge(a, b), edge(a, c), edge(b, c)})
        g = Multigraph(n, {e: rng.randint(1, 2) for e in sorted(support)})
        if g.size() <= 60:
            return g


def fan_graph(n):
    return Multigraph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)] + [(0, i) for i in range(2, n - 1)]
    )


def test_augmentation_sorts_and_serializes():
    a = Augmentation((edge(2, 3), edge(0, 1), edge(0, 1)))
    assert a.additions == (edge(0, 1), edge(0, 1), edge(2, 3))
    assert len(a) == 3
    assert a.to_json_list() == [[0, 1], [0, 1], [2, 3]]
    assert Augmentation.from_json_list([[2, 3], [0, 1], [0, 1]]) == a
    with pytest.raises(DomainError):
        Augmentation.from_json_list([[0, 1, 2]])
    with pytest.raises(DomainError):
        Augmentation.from_json_list([[0, 0]])


def test_apply_augmentation_stacks_copies():
    g = complete_graph(3)
    out = apply_augmentation(g, Augmentation((edge(0, 1), edge(0, 1))))
    assert out.multiplicity(edge(0, 1)) == 3
    assert out.multiplicity(edge(0, 2)) == 1
    assert apply_augmentation(g, Augmentation(())) == g
    with pytest.raises(DomainError):
        apply_augmentation(Multigraph.from_edges(3, [(0, 1)]), Augmentation((edge(1, 2),)))


def test_apply_augmentation_reads_plain_pairs_as_augmentation_does():
    g = complete_graph(3)
    assert apply_augmentation(g, [(1, 0)]) == apply_augmentation(g, Augmentation([(1, 0)]))
    assert apply_augmentation(g, [(1, 0)]).multiplicity(edge(0, 1)) == 2
    with pytest.raises(AugmentNonAdjacent, match=r"^cannot add copies of absent edge \(0, 5\)$"):
        apply_augmentation(g, [(0, 5)])
    with pytest.raises(DomainError, match=r"^expected an edge \(u, v\), got 5$") as info:
        apply_augmentation(g, [5])
    assert not isinstance(info.value, AugmentNonAdjacent)


def test_lower_bound_hand_values():
    assert oracle_parity_bound(complete_graph(3)) == (0, 0, 0)
    assert oracle_parity_bound(complete_graph(4)) == (2, 0, 3)
    assert oracle_parity_bound(complete_graph(5)) == (0, 2, 2)
    assert oracle_parity_bound(complete_graph(6)) == (3, 0, 3)
    # five-cycle with chords {0,2} and {0,3}: odd at 2 and 3, size 7
    assert oracle_parity_bound(fan_graph(5)) == (1, 2, 2)


def test_epsilon_exact_known_values():
    t, aug, cert = epsilon_exact(complete_graph(3))
    assert t == 0 and len(aug) == 0 and len(cert) == 1
    t, aug, cert = epsilon_exact(complete_graph(4))
    assert t == 3
    assert aug.additions == (edge(0, 1), edge(0, 2), edge(0, 3))
    t, aug, cert = epsilon_exact(complete_graph(5))
    assert t == 2
    assert aug.additions == (edge(0, 1), edge(0, 1))
    t, aug, cert = epsilon_exact(complete_graph(6))
    assert t == 3
    assert aug.additions == (edge(0, 1), edge(2, 3), edge(4, 5))


def test_epsilon_exact_certificates_check_out():
    for g in (complete_graph(4), complete_graph(5), complete_graph(6), fan_graph(6)):
        t, aug, cert = epsilon_exact(g)
        assert len(aug) == t
        assert coverage_error(apply_augmentation(g, aug), cert) is None


# (constructor, parameters, triangles chosen by epsilon's cover search,
#  its set-up charges: the edges each reads, its triangles once its root tests pass)
LARGE_MEMBERS = [
    pytest.param(hmp_construct, (1000,), 998, 4990, id="hmp 1000"),
    pytest.param(sc2_tree_construct, (999,), 665, 2992, id="sc2tree 999"),
    pytest.param(kop_construct, (10, 100), 2884, 9950, id="kop 10 100"),
    pytest.param(mop_construct, (700,), 1125, 4190, id="mop 700"),
    pytest.param(mop_construct, (800,), 2547, 7185, id="mop 800"),
    pytest.param(mop_construct, (875,), 2965, 7860, id="mop 875"),
    pytest.param(mop_construct, (901,), 1444, 5396, id="mop 901"),
    pytest.param(intermediate, (300, 10), 1323, 34310, id="intermediate 300 10"),
    pytest.param(sc3_construct, (100,), 4864, 2052, id="sc3 100"),
    pytest.param(fan, (100,), 10007, 36487, id="fan 100"),
    pytest.param(sc3_construct, (450,), 100589, 9402, id="sc3 450"),
]


@pytest.mark.parametrize("construct, args, steps, scanned", LARGE_MEMBERS)
def test_epsilon_agrees_with_the_envelope_of_large_members(construct, args, steps, scanned,
                                                           monkeypatch):
    from tridecomp import augment

    built = []

    class Kept(augment.CoverInstance):
        __slots__ = ()

        def __init__(self, g):
            super().__init__(g)
            built.append(self)

    monkeypatch.setattr(augment, "CoverInstance", Kept)
    member = construct(*args)
    t, aug, cert = epsilon_exact(member.graph)
    assert (t, aug) == (member.claimed_epsilon, member.augmentation)
    assert coverage_error(apply_augmentation(member.graph, aug), cert) is None
    # Pinned as in tests/test_golden.py, so a change to the search tree shows.
    assert [(inst.steps, inst.scanned) for inst in built] == [(steps, scanned)]


def test_epsilon_zero_searches_once(monkeypatch):
    # A graph that decomposes as it is hits at t = 0, and that search is the
    # certificate search (lo == hi == base), so nothing is pinned or searched again.
    from tridecomp import augment

    calls = []

    class Counted(augment.CoverInstance):
        __slots__ = ()

        def solve(self, lo, hi, k):
            chosen = super().solve(lo, hi, k)
            calls.append((self, lo == hi == self.base, chosen))
            return chosen

    monkeypatch.setattr(augment, "CoverInstance", Counted)
    for g in (complete_graph(7), hmp_construct(9).graph):
        calls.clear()
        t, aug, cert = epsilon_exact(g)
        [(inst, exact, chosen)] = calls
        assert (t, aug.additions, exact) == (0, (), True)
        assert (aug, cert) == inst.records(chosen)


def _root_parity_refuses(inst, lo, hi, k):
    """True when the solver's root refuses on vertex parities, before any triangle.

    Either more vertices have an odd lo total than the 2 * slack coverings
    beyond lo can fix, or an odd vertex has every edge pinned (room == lo),
    where a triangle, covering two edges at each corner, cannot even it.
    """
    slack = 3 * k - sum(lo)
    odd_at = [0] * inst.order
    free = set()
    for (u, v), a, b in zip(inst.ends, lo, hi):
        odd_at[u] ^= a & 1
        odd_at[v] ^= a & 1
        if a < min(b, a + slack):
            free.update((u, v))
    return sum(odd_at) > 2 * slack or any(o and v not in free for v, o in enumerate(odd_at))


def _pool_cases():
    """The epsilon-mix benchmark pool, capped and not, whose answers golden.json records.

    It holds fans 13-15, the nine-vertex graph and 96 random multigraphs.
    """
    pool = [corpus.fan_graph(n) for n in corpus.FAN_ORDERS] + [corpus.NINE_VERTEX]
    pool += [corpus.random_multigraph(seed) for seed in range(corpus.EPS_POOL)]
    assert len(pool) == 100
    return [(Multigraph.from_json_dict(g), cap) for g in pool for cap in (None, 1)]


def test_epsilon_asks_no_question_the_root_parities_refuse(monkeypatch):
    # A pinning question (lo above base on some edge, below hi on another)
    # that the root's parity tests refuse is answered None before any
    # triangle is read, so epsilon skips it; none has zero slack.
    from tridecomp import augment

    asked = []

    class Counted(augment.CoverInstance):
        __slots__ = ()

        def solve(self, lo, hi, k):
            if lo not in (self.base, hi):
                asked.append(3 * k - sum(lo) >= 1 and not _root_parity_refuses(self, lo, hi, k))
            return super().solve(lo, hi, k)

    monkeypatch.setattr(augment, "CoverInstance", Counted)
    graphs = (mop_construct(700).graph, mop_construct(800).graph, complete_graph(12))
    for g, cap in [(g, cap) for g in graphs for cap in (None, 1)] + _pool_cases():
        try:
            epsilon_exact(g, max_copies_per_edge=cap)
        except CapInfeasible:
            pass
    assert asked and all(asked)


def _epsilon_asking_every_question(g, cap):
    """epsilon_exact with a pinning that hands every question to the solver.

    The solver's root is given back its clause for an odd vertex with every
    edge pinned, so each question is refused or searched as before the
    pinning screened them.  Returns (t, witness, certificate, steps), or None
    when the cap leaves no augmentation.
    """
    from tridecomp import augment

    def solve(inst, lo, hi, k):
        return None if _root_parity_refuses(inst, lo, hi, k) else inst.solve(lo, hi, k)

    # The level climb, as epsilon_exact runs it.
    inst = augment.CoverInstance(g)
    size = sum(inst.base)
    ceiling = 2 * size if cap is None else cap * len(inst.base)
    for t in range((-size) % 3, ceiling + 1, 3):
        hi = [b + (t if cap is None else min(cap, t)) for b in inst.base]
        chosen = inst.solve(inst.base, hi, (size + t) // 3)
        if chosen is not None:
            break
    else:
        return None
    k = len(chosen)
    lo = list(inst.base)
    cover = inst.edge_counts(chosen)
    for i in range(len(lo)):
        while cover[i] < hi[i]:
            lo[i] = cover[i] + 1
            more = solve(inst, lo, hi, k)
            if more is None:
                break
            cover = inst.edge_counts(more)
        lo[i] = hi[i] = cover[i]
    if t:
        chosen = solve(inst, lo, hi, k)
    return (t, *inst.records(chosen), inst.steps)


def test_epsilon_pinning_matches_asking_every_question(monkeypatch):
    # Each skipped question is one the root refuses before choosing a
    # triangle, so the witness, the certificate and the steps stay the same.
    from tridecomp import augment

    built = []

    class Kept(augment.CoverInstance):
        __slots__ = ()

        def __init__(self, g):
            super().__init__(g)
            built.append(self)

    for g, cap in _pool_cases():
        expected = _epsilon_asking_every_question(g, cap)
        built.clear()
        with monkeypatch.context() as patched:
            patched.setattr(augment, "CoverInstance", Kept)
            try:
                got = epsilon_exact(g, max_copies_per_edge=cap)
            except CapInfeasible:
                assert expected is None
                continue
        [inst] = built
        assert (*got, inst.steps) == expected, (g.to_json_dict(), cap)


def test_epsilon_exact_meets_lower_bound_or_exceeds_by_steps():
    graphs = [complete_graph(4), complete_graph(5), complete_graph(6), fan_graph(5)]
    for n in range(3, 6):
        graphs += [graph_from_mask(n, mask, pairs)
                   for mask, pairs in every_edge_on_triangle_masks(n)]
    for g in graphs:
        t, _, _ = epsilon_exact(g)
        _, residue, combined = oracle_parity_bound(g)
        assert t >= combined
        assert t % 3 == residue


def test_epsilon_exact_with_per_edge_cap():
    t, aug, _ = epsilon_exact(complete_graph(5), max_copies_per_edge=2)
    assert t == 2 and aug.additions == (edge(0, 1), edge(0, 1))
    t, aug, cert = epsilon_exact(complete_graph(5), max_copies_per_edge=1)
    assert t == 5
    assert aug.additions == (edge(0, 1), edge(0, 2), edge(1, 3), edge(2, 4), edge(3, 4))
    assert coverage_error(apply_augmentation(complete_graph(5), aug), cert) is None
    with pytest.raises(CapInfeasible):
        epsilon_exact(complete_graph(5), max_copies_per_edge=0)
    t, _, _ = epsilon_exact(complete_graph(3), max_copies_per_edge=0)
    assert t == 0
    with pytest.raises(DomainError):
        epsilon_exact(complete_graph(5), max_copies_per_edge=-1)


def test_epsilon_exact_preconditions(monkeypatch):
    with pytest.raises(EdgeNotOnTriangle) as info:
        epsilon_exact(cycle_graph(5))
    assert info.value.edge == edge(0, 1)
    with pytest.raises(EdgeNotOnTriangle):
        epsilon_exact(Multigraph.from_edges(3, [(0, 1), (1, 2)]))
    # K12 (66 edges) takes 178 cover steps: a perfect matching of copies.
    t, aug, _ = epsilon_exact(complete_graph(12))
    assert (t, aug.additions) == (6, tuple(edge(i, i + 1) for i in range(0, 12, 2)))
    # Its 220 triangles are listed at a limit of 600.  Each set-up is
    # charged its 66 edges and, once the root tests pass, 220 triangles: the
    # climb's levels 0 and 3 are refused at the root and level 6 hits
    # (66 + 66 + 286), the pinning asks no question the root would pass, and
    # the certificate search's 286 pass the limit.
    monkeypatch.setattr(graph_core, "STEP_LIMIT", 600)
    with pytest.raises(ScaleLimit, match="^cover search exceeds the ceiling of 600 steps$"):
        epsilon_exact(complete_graph(12))
    monkeypatch.setattr(graph_core, "STEP_LIMIT", 219)
    with pytest.raises(ScaleLimit, match="^triangle listing exceeds the ceiling of 219 steps$"):
        epsilon_exact(complete_graph(12))


def test_epsilon_exact_matches_oracle_on_small_graphs():
    for mask, pairs in every_edge_on_triangle_masks(4):
        g = graph_from_mask(4, mask, pairs)
        t, aug, cert = epsilon_exact(g)
        assert t == oracle_epsilon(g)
        assert coverage_error(apply_augmentation(g, aug), cert) is None


def test_capped_epsilon_matches_oracle_on_small_graphs():
    for mask, pairs in every_edge_on_triangle_masks(4):
        g = graph_from_mask(4, mask, pairs)
        try:
            t, _, _ = epsilon_exact(g, max_copies_per_edge=1)
        except CapInfeasible:
            with pytest.raises(RuntimeError):
                oracle_epsilon(g, cap=1)
        else:
            assert t == oracle_epsilon(g, cap=1)


def test_epsilon_exact_returns_the_oracle_witness():
    cases = 0
    for n in range(3, 6):
        for mask, pairs in every_edge_on_triangle_masks(n):
            if mask == 0:
                continue
            g = graph_from_mask(n, mask, pairs)
            for cap in (None, 1):
                cases += 1
                try:
                    witness = oracle_witness(g, cap)
                except RuntimeError:
                    with pytest.raises(CapInfeasible):
                        epsilon_exact(g, max_copies_per_edge=cap)
                    continue
                t, aug, cert = epsilon_exact(g, max_copies_per_edge=cap)
                assert (t, aug.additions) == (len(witness), witness)
                assert coverage_error(apply_augmentation(g, aug), cert) is None
    assert cases == 396


def test_epsilon_exact_on_the_nine_vertex_graph():
    assert NINE_VERTEX.size() == 37
    t, aug, cert = epsilon_exact(NINE_VERTEX)
    assert t == 20 and len(aug) == 20
    assert coverage_error(apply_augmentation(NINE_VERTEX, aug), cert) is None
    with pytest.raises(CapInfeasible):
        epsilon_exact(NINE_VERTEX, max_copies_per_edge=1)


def test_epsilon_exact_on_large_fans():
    # The least count of a fan is n - 3 with or without the one-copy cap.
    # Any step exponential in the order before the search (such as a parity
    # BFS over vertex subsets) would make this test run for hours.
    for n in range(16, 32):
        g = fan(n).graph
        assert epsilon_exact(g)[0] == n - 3
        assert epsilon_exact(g, max_copies_per_edge=1)[0] == n - 3


def test_epsilon_exact_matches_the_integer_program():
    pytest.importorskip("scipy")
    graphs = [fan(n).graph for n in range(10, 32)] + [NINE_VERTEX]
    graphs += [random_multigraph(seed) for seed in range(50)]
    cases = [(g, cap) for g in graphs for cap in (None, 1)]
    # Sizes 66, 66 and 55; K11 with the cap runs past the step ceiling.
    cases += [(complete_graph(12), None), (complete_graph(12), 1), (complete_graph(11), None)]
    cases += _pool_cases()
    for g, cap in cases:
        expected = milp_epsilon(g, cap)
        if expected is None:
            with pytest.raises(CapInfeasible):
                epsilon_exact(g, max_copies_per_edge=cap)
            continue
        t, aug, cert = epsilon_exact(g, max_copies_per_edge=cap)
        assert t == expected, (g.to_json_dict(), cap)
        assert coverage_error(apply_augmentation(g, aug), cert) is None


def test_is_maximal_outerplanar_refuses_each_bad_chord_set_of_a_cycle():
    # A sweep's triangulation is the n-cycle plus its chords, checked by the one predicate.
    assert families._cycle_with_chords(5, (edge(0, 2), edge(0, 3))) == fan_graph(5)
    for n, chords in ((5, [(0, 2)]),  # too few chords
                      (5, [(0, 1), (0, 3)]),  # a cycle edge
                      (5, [(0, 4), (0, 2)]),  # the wrap-around cycle edge
                      (6, [(0, 2), (1, 3), (3, 5)]),  # crossing chords
                      (6, [(0, 2), (0, 2), (0, 3)])):  # a repeated chord
        assert not is_maximal_outerplanar(families._cycle_with_chords(n, chords), range(n)), chords
    with pytest.raises(DomainError, match=r"^edge \{2,7\} exceeds order 5$"):
        families._cycle_with_chords(5, [(0, 2), (2, 7)])


def test_enumerate_mops_counts_and_order():
    # triangulation counts of a convex polygon
    for n, count in [(3, 1), (4, 2), (5, 5), (6, 14), (7, 42), (8, 132), (9, 429)]:
        codes = enumerate_mops(n)
        assert len(codes) == count
        assert codes == sorted(codes)
        assert len(set(codes)) == count
    with pytest.raises(DomainError):
        enumerate_mops(2)


def test_enumerate_mops_refuses_more_codes_than_the_step_limit(monkeypatch):
    # Each code is charged its 2n - 3 edges: n = 7 lists 42 codes (462 steps);
    # n = 8, 132 codes (1,716 steps), is refused before any is built.
    monkeypatch.setattr(graph_core, "STEP_LIMIT", 1000)
    assert len(enumerate_mops(7)) == 42
    for n in (8, 10**6):  # the count stops at the first Catalan number past the limit
        with pytest.raises(ScaleLimit) as refused:
            enumerate_mops(n)
        assert str(refused.value) == "triangulation listing exceeds the ceiling of 1000 steps"


def test_enumerate_mops_yields_maximal_outerplanar_graphs():
    for n in range(3, 10):
        for code in enumerate_mops(n):
            assert all(type(e) is EdgeKey for e in code)  # the package's edge type
            g = families._cycle_with_chords(n, code)
            assert g.size() == 2 * n - 3
            assert is_maximal_outerplanar(g, tuple(range(n)))


def test_class_minimum_matches_per_graph_brute_force():
    for n in range(3, 8):
        value, witness = epsilon_class_exact(n)
        codes = enumerate_mops(n)
        per_graph = [epsilon_exact(families._cycle_with_chords(n, c))[0] for c in codes]
        assert value == min(per_graph)
        assert witness == codes[per_graph.index(value)]  # first hit in chord-set order
        assert value == n % 3


def _closed_form_witness(n):
    """W_n: the least chord set attaining n mod 3, as a sorted tuple of chords."""
    r = n % 3
    chords = [(0, i) for i in range(2, r + 3)]
    for a in range(r + 2, n - 3, 3):  # a + 2 <= n - 2
        chords += [(0, a), (0, a + 2), (a, a + 2)]
    return tuple(sorted({edge(u, v) for u, v in chords if u != 0 or v <= n - 2}))


def test_class_minimum_witness_is_the_closed_form():
    # The least triangulation at n mod 3 in chord-set order has a closed form.
    for n in range(3, 13):
        assert epsilon_class_exact(n) == (n % 3, _closed_form_witness(n)), n


def test_class_maximum_matches_per_graph_brute_force():
    # xi_class_exact answers from its proof; the per-graph climb is the reference.
    for n in range(3, 11):
        value, witness = xi_class_exact(n)
        codes = enumerate_mops(n)
        per_graph = [epsilon_exact(families._cycle_with_chords(n, c), max_copies_per_edge=1)[0]
                     for c in codes]
        assert value == max(per_graph)
        assert witness == codes[per_graph.index(value)]  # first hit in chord-set order
        assert value == n - 3


def test_class_sweeps_match_the_integer_program():
    # An oracle that shares no code with the sweeps or with epsilon_exact.
    pytest.importorskip("scipy")
    for n in (8, 9):
        codes = enumerate_mops(n)
        least = [milp_epsilon(families._cycle_with_chords(n, c)) for c in codes]
        most = [milp_epsilon(families._cycle_with_chords(n, c), 1) for c in codes]
        # the witness is the first graph in chord-set order at the extremal value
        assert epsilon_class_exact(n) == (min(least), codes[least.index(min(least))])
        assert xi_class_exact(n) == (max(most), codes[most.index(max(most))])


def test_divisibility_minimum_beside_epsilon():
    # delta, the least copies on present edges that make every degree even
    # and the size 0 mod 3, agrees with the parity search on small fans; it
    # is epsilon on the 2-trees, and the fan's epsilon runs ahead of it by a
    # multiple of 3 that grows with the order.
    pytest.importorskip("scipy")
    for n in range(4, 13):
        assert milp_delta(fan(n).graph) == oracle_parity_bound(fan(n).graph)[2], n
    for n in range(3, 41):
        g = sc2_tree_construct(n).graph
        assert epsilon_exact(g)[0] == milp_delta(g) == n % 3, n
    gaps = {n: epsilon_exact(fan(n).graph)[0] - milp_delta(fan(n).graph) for n in range(4, 21)}
    assert gaps == {n: 0 if n <= 8 else 3 if n <= 14 else 6 for n in range(4, 21)}


def test_class_sweeps_hold_one_solver_instance_at_a_time(monkeypatch):
    live = {"built": 0, "alive": 0, "peak": 0}

    class Counting(families.CoverInstance):
        __slots__ = ()

        def __init__(self, g):
            live["built"] += 1
            live["alive"] += 1
            live["peak"] = max(live["peak"], live["alive"])
            super().__init__(g)

        def __del__(self):
            live["alive"] -= 1

    monkeypatch.setattr(families, "CoverInstance", Counting)
    codes = enumerate_mops(9)
    value, witness = epsilon_class_exact(9)
    assert value == 0
    # every graph up to the first one at the class residue, and no further
    assert live["built"] == codes.index(witness) + 1 == 45
    assert live["peak"] <= 2 and live["alive"] == 0
    live.update(built=0, peak=0)
    assert xi_class_exact(9)[0] == 6
    assert live["built"] == 0  # the class maximum runs no search


def test_class_maximum_refuses_a_fan_bound_short_of_its_count(monkeypatch, capsys):
    # verify's fan rule checks the proof's lower bound; one that falls short
    # of the count fails its parameter line, and in a sweep that is a bug.
    from tridecomp import cli

    monkeypatch.setattr(graph_core, "_packing_bound", lambda g, edges: g.order - 4)
    line = "parameters {'n': 6} do not describe this fan envelope"
    with pytest.raises(InvariantViolation) as refused:
        xi_class_exact(6)
    assert str(refused.value) == line
    assert cli.main(["sweep", "xi", "6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {line}\n"


def test_class_maximum_is_the_fan_family_envelope(monkeypatch):
    # sweep xi proves its value on the envelope that construct fan n prints.
    for n in range(3, 41):
        assert xi_class_exact(n) == (n - 3, fan(n).augmentation.additions)
    real = families.fan
    monkeypatch.setattr(families, "fan",
                        lambda n: real(n)._replace(claimed_epsilon=n - 4))
    with pytest.raises(InvariantViolation, match="^augmentation lists 6 added copies, "
                                                 "the count is 5$"):
        xi_class_exact(9)
    # A sound envelope that claims fewer copies than the proof is refused too.
    monkeypatch.setattr(families, "fan", lambda n: intermediate(n, 1))
    with pytest.raises(InvariantViolation, match="^the fan claims 3 copies, not 6$"):
        xi_class_exact(9)


def test_class_maximum_runs_no_search(monkeypatch):
    from tridecomp import augment, decomposer

    def refused(*args):
        raise AssertionError("searched")

    for module, name in ((decomposer, "CoverInstance"), (augment, "CoverInstance"),
                         (families, "enumerate_mops"), (families, "CoverInstance")):
        monkeypatch.setattr(module, name, refused)
    for n in range(3, 51):
        fan = tuple(edge(0, i) for i in range(2, n - 1))
        assert xi_class_exact(n) == (n - 3, fan)


def test_class_maximum_refuses_an_order_over_the_limit_at_once():
    with pytest.raises(ScaleLimit, match="^order 1000000000 exceeds the ceiling of 100000 vertices$"):
        xi_class_exact(10**9)
    with pytest.raises(DomainError, match="^order must be >= 3, got 2$"):
        xi_class_exact(2)


def test_class_minimum_rechecks_its_witness_records(monkeypatch):
    # The witness's cover is rechecked as an answer before the value returns.
    records = families.CoverInstance.records

    def short(inst, chosen):
        aug, cert = records(inst, chosen)
        return aug, type(cert)(cert[1:])

    monkeypatch.setattr(families.CoverInstance, "records", short)
    with pytest.raises(InvariantViolation, match="undercovered$"):
        epsilon_class_exact(6)


def test_class_minimum_refuses_a_class_without_a_member_at_the_residue(monkeypatch, capsys):
    # Criterion 1 puts the class minimum at n mod 3, so a class in which no
    # member decomposes with that many copies is a bug, not a larger answer.
    from tridecomp import cli

    asked = []

    class Refusing(families.CoverInstance):
        __slots__ = ()

        def solve(self, lo, hi, k):
            asked.append((lo, hi, k))
            return None

    monkeypatch.setattr(families, "CoverInstance", Refusing)
    message = "no order-6 triangulated cycle decomposes with 0 added copies"
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        epsilon_class_exact(6)
    # one question per member, at level 0: lo == hi == the nine single edges, k = 3
    assert asked == [([1] * 9, [1] * 9, 3)] * 14
    assert cli.main(["sweep", "epsilon", "6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {message}\n"


def _greedy_packing(g):
    """Edges of g in sorted order, each kept when no triangle holds it and a kept edge."""
    adj = g.adjacency()
    kept = set()
    for e in g.edges():
        if not any(edge(e.u, w) in kept or edge(e.v, w) in kept
                   for w in set(adj[e.u]) & set(adj[e.v])):
            kept.add(e)
    return kept


def test_packing_bound_stays_below_the_least_count():
    rng = random.Random(32)
    for n in range(3, 9):  # all 196 triangulated cycles of order 3..8
        for code in enumerate_mops(n):
            g = families._cycle_with_chords(n, code)
            bound = graph_core._packing_bound(g, _greedy_packing(g))
            assert bound is not None and bound <= epsilon_exact(g)[0]
            if n <= 6:  # with multiplicities, each edge counts its copies
                heavy = Multigraph.from_edges(n, [(e.u, e.v, rng.randint(1, 3)) for e in g.edges()])
                bound = graph_core._packing_bound(heavy, _greedy_packing(heavy))
                assert bound is not None and bound <= epsilon_exact(heavy)[0]


def test_packing_bound_of_the_fan_path_is_its_count():
    for n in range(3, 41):
        fan = fan_graph(n)
        path = [edge(i, i + 1) for i in range(1, n - 1)]
        assert graph_core._packing_bound(fan, path) == n - 3
    # below zero the bound is the divisibility residue
    assert graph_core._packing_bound(complete_graph(4), [edge(0, 1)]) == 0
    assert graph_core._packing_bound(complete_graph(5), []) == 2


def test_packing_bound_refuses_two_edges_of_a_triangle_or_an_absent_edge():
    fan = fan_graph(6)
    assert graph_core._packing_bound(fan, [edge(1, 2), edge(0, 2)]) is None  # face (0, 1, 2)
    assert graph_core._packing_bound(fan, [edge(1, 2), edge(3, 4), edge(2, 4)]) is None
    assert graph_core._packing_bound(fan, [edge(1, 3)]) is None  # absent
    assert graph_core._packing_bound(fan, [edge(1, 2), edge(3, 4)]) == 0


def test_epsilon_of_complete_graphs_is_fort_hedlund():
    for n in [*range(3, 14), 15, 19, 21, 25]:
        assert epsilon_exact(complete_graph(n))[0] == fort_hedlund(n)


def test_class_sweeps_are_deterministic():
    assert epsilon_class_exact(6) == epsilon_class_exact(6)
    assert xi_class_exact(6) == xi_class_exact(6)


def test_class_sweeps_respect_ceiling():
    # Order 13's 58,786 codes at 23 steps each (1,352,078) are past STEP_LIMIT.
    for refused in (enumerate_mops, epsilon_class_exact):
        with pytest.raises(ScaleLimit, match="^triangulation listing exceeds the ceiling "
                                             "of 1000000 steps$"):
            refused(13)
    # The class maximum lists nothing, so the listing charge does not bind it.
    assert xi_class_exact(10) == (7, tuple(edge(0, i) for i in range(2, 9)))
    assert epsilon_class_exact(5)[0] == 2
