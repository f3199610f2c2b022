"""Acceptance suite: one test per published claim, asserted exactly.

Each test prints a single summary line when everything in it held; a failed
assert surfaces as the usual pytest failure for that criterion.
"""

import json
from itertools import combinations

import pytest

from tridecomp import (
    ConstructionUnavailable,
    Multigraph,
    apply_augmentation,
    coverage_error,
    degree_sequence,
    edge,
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
)
from tridecomp.cli import main

from oracle_helpers import (
    complete_graph,
    every_edge_on_triangle_masks,
    find_hamiltonian_cycle,
    graph_from_mask,
    oracle_decomposable,
    oracle_parity_bound,
)


def sweep(capsys, kind, n):
    assert main(["sweep", kind, str(n)]) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_1_class_minimum_is_n_mod_3(capsys):
    for n in range(3, 13):
        payload = sweep(capsys, "epsilon", n)
        assert payload["value"] == n % 3, f"class minimum at order {n}"
    print("criterion 1: PASS - least added-copy count over all triangulated "
          "n-cycles equals n mod 3 for n = 3..12")


def test_criterion_2_class_maximum_is_n_minus_3(capsys):
    for n in range(3, 10):
        payload = sweep(capsys, "xi", n)
        assert payload["value"] == n - 3, f"class maximum at order {n}"
        assert epsilon_exact(fan(n).graph)[0] == n - 3, f"fan witness at order {n}"
    print("criterion 2: PASS - capped added-copy maximum over triangulated "
          "n-cycles equals n - 3 for n = 3..9, witnessed by the fan")


def test_criterion_3_intermediate_values_fill_the_ladder():
    for n in range(6, 11):
        for r in range((n - 3) // 3 + 1):
            expected = (n % 3) + 3 * r
            assert expected <= n - 3
            res = intermediate(n, r)
            assert epsilon_exact(res.graph)[0] == expected, f"(n, r) = ({n}, {r})"
    print("criterion 3: PASS - intermediate triangulated cycles hit exactly "
          "(n mod 3) + 3r added copies for n = 6..10 and every valid r")


def test_criterion_4_even_triangulations_decompose_unaugmented():
    for n in [6, 8, 10, 12, 9, 11]:
        res = hmp_construct(n)
        assert res.graph.size() == 3 * n - 6, f"order {n} edge count"
        assert all(d % 2 == 0 for d in degree_sequence(res.graph)), f"order {n} parity"
        assert find_hamiltonian_cycle(res.graph) is not None, f"order {n} cycle"
        assert len(res.augmentation) == 0 and res.claimed_epsilon == 0
        assert find_decomposition(res.graph) is not None, f"order {n} decomposition"
    for n in [4, 5, 7]:
        with pytest.raises(ConstructionUnavailable):
            hmp_construct(n)
    assert find_decomposition(complete_graph(4)) is None
    k5_minus = Multigraph.from_edges(
        5, [(u, v) for u, v in combinations(range(5), 2) if (u, v) != (0, 1)]
    )
    assert find_decomposition(k5_minus) is None
    print("criterion 4: PASS - even planar triangulations of orders 6, 8..13 "
          "minus {7} decompose with zero additions and are Hamiltonian; "
          "orders 4, 5, 7 are impossible")


def test_criterion_5_three_tree_chain_needs_exactly_three():
    for n in range(4, 10):
        res = sc3_construct(n)
        validate_construction(res)
        assert len(res.augmentation) == 3, f"order {n} augmentation size"
        assert epsilon_exact(res.graph)[0] == 3, f"order {n} exact value"
        assert oracle_parity_bound(res.graph)[2] == 3, f"order {n} bound"
    print("criterion 5: PASS - the hub-chain family needs exactly three added "
          "copies for every order 4..9, matching its parity/divisibility bound")


def test_criterion_6_layered_cycles_keep_the_core_count():
    for m, k in [(6, 2), (7, 2), (5, 2), (6, 3)]:
        res = kop_construct(m, k)
        validate_construction(res)
        assert res.claimed_epsilon == m % 3, f"(m, k) = ({m}, {k}) count"
        assert epsilon_exact(res.graph)[0] == m % 3, f"(m, k) = ({m}, {k}) exact"
        inner = kop_construct(m, k - 1)
        cutoff = (k - 1) * m
        kept = [(e.u, e.v, mult) for e, mult in res.graph.items() if e.v < cutoff]
        assert kept == [(e.u, e.v, mult) for e, mult in inner.graph.items()], (
            f"(m, k) = ({m}, {k}) peel"
        )
    print("criterion 6: PASS - concentric layered cycles need m mod 3 added "
          "copies regardless of depth, and peeling the outer layer recovers "
          "the shallower construction")


def test_criterion_7_toroidal_fixtures():
    values = {}
    for n, size, drawn in [(7, 17, 4), (8, 19, 2), (9, 21, 6)]:
        res = sf_fixture(n)
        validate_construction(res)
        assert res.graph.size() == size, f"order {n} edge count"
        assert len(res.augmentation) == drawn, f"order {n} drawn additions"
        tr = trace_faces(res.rotation)
        assert tr.genus == 1, f"order {n} genus"
        assert any(set(face) == set(range(n)) for face in tr.faces), f"order {n} face"
        values[n] = epsilon_exact(res.graph)[0]
    assert values[8] == 2
    assert values[7] <= 4 and values[7] % 3 == 1
    assert values[9] <= 6 and values[9] % 3 == 0
    assert values[7] == 4
    assert values[9] == 3
    print(f"criterion 7: PASS - stored toroidal fixtures check out; exact "
          f"added-copy counts: order 7 = {values[7]} (drawn 4), order 8 = "
          f"{values[8]} (drawn 2), order 9 = {values[9]} (drawn 6)")


def test_criterion_8_solver_agrees_with_oracle():
    graphs = 0
    decomposable = 0
    for n in range(1, 7):
        for mask, pairs in every_edge_on_triangle_masks(n):
            g = graph_from_mask(n, mask, pairs)
            cert = find_decomposition(g)
            assert (cert is not None) == oracle_decomposable(g), (n, mask)
            graphs += 1
            if cert is not None:
                decomposable += 1
                assert coverage_error(g, cert) is None, (n, mask)
    assert graphs == 6318
    for g, expected in [
        (complete_graph(3), 0),
        (complete_graph(5), 2),
        (complete_graph(4), 3),
        (complete_graph(6), 3),
    ]:
        t, aug, cert = epsilon_exact(g)
        assert t == expected
        assert coverage_error(apply_augmentation(g, aug), cert) is None
    d7 = find_decomposition(complete_graph(7))
    assert d7 is not None and len(d7) == 7
    assert coverage_error(complete_graph(7), d7) is None
    print(f"criterion 8: PASS - solver agrees with the exhaustive oracle on "
          f"all {graphs} simple graphs of order <= 6 with every edge on a "
          f"triangle ({decomposable} decomposable), and the complete-graph "
          f"values 0, 2, 3, 3 and the 7-triangle partition of K7 hold")


def test_criterion_9_every_construction_self_validates():
    catalog = []
    catalog.extend(mop_construct(n) for n in range(3, 16))
    catalog.extend(fan(n) for n in range(3, 10))
    catalog.extend(
        intermediate(n, r)
        for n in range(6, 11)
        for r in range((n - 3) // 3 + 1)
    )
    catalog.extend(kop_construct(m, k) for m, k in [(3, 2), (5, 2), (6, 2), (6, 3), (7, 2)])
    catalog.extend(hmp_construct(n) for n in [6, 8, 9, 10, 11, 12, 13])
    catalog.extend(sc2_tree_construct(n) for n in [3, 6, 9, 12, 15, 18])
    catalog.extend(sc2_tree_construct(n) for n in (4, 5))
    catalog.extend(sc3_construct(n) for n in range(4, 10))
    catalog.extend(sf_fixture(n) for n in (7, 8, 9))
    mop_like = {"mop", "fan", "intermediate", "sc2tree"}
    checked_mops = 0
    for res in catalog:
        validate_construction(res)
        if res.family in mop_like:
            n = res.graph.order
            assert res.graph.size() == 2 * n - 3, (res.family, res.parameters)
            assert is_maximal_outerplanar(res.graph, res.outer_cycle), (
                res.family,
                res.parameters,
            )
            checked_mops += 1
    print(f"criterion 9: PASS - all {len(catalog)} constructed results satisfy "
          f"the count, residue, and coverage invariants; {checked_mops} "
          f"triangulated-cycle outputs are maximal outerplanar with 2n-3 edges")
