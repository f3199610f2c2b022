"""Property tests: relabelling invariance of epsilon, its additivity over a
disjoint union, its fall under an added triangle, its zero once the witness
is added, its order over copy caps, Multigraph JSON round-trips and the
CLI's JSON writer.

Skipped when Hypothesis is not installed.  The examples are derandomized,
so every run checks the same graphs.
"""

import gc
import io
import json
from contextlib import redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tridecomp import (  # noqa: E402
    Augmentation,
    CapInfeasible,
    Multigraph,
    apply_augmentation,
    coverage_error,
    edge,
    enumerate_triangles,
    epsilon_exact,
    fan,
    intermediate,
    mop_construct,
    sc3_construct,
)
from tridecomp.cli import _print_json  # noqa: E402

from oracle_helpers import complete_graph, fort_hedlund  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module", autouse=True)
def _restore_gc_callbacks():
    """Hypothesis adds a gc callback for the rest of the process.  An
    exception raised by a signal handler while that callback runs is
    dropped as unraisable, so later tests that time out by SIGALRM (the
    benchmark's own) would run on; put gc.callbacks back after this module."""
    saved = list(gc.callbacks)
    yield
    gc.callbacks[:] = saved


@st.composite
def triangle_supported(draw):
    """Order at most 7, every edge on a triangle: the support of a few
    random triangles, each support edge given multiplicity 1 to 3."""
    n = draw(st.integers(3, 7))
    corner = st.integers(0, n - 1)
    triples = draw(st.lists(st.lists(corner, min_size=3, max_size=3, unique=True),
                            min_size=1, max_size=6))
    support = sorted({edge(u, v) for a, b, c in triples for u, v in ((a, b), (a, c), (b, c))})
    return Multigraph(n, {e: draw(st.integers(1, 3)) for e in support})


def relabel(g: Multigraph, perm) -> Multigraph:
    return Multigraph.from_edges(g.order, [(perm[e.u], perm[e.v], m) for e, m in g.items()])


def capped_epsilon(g: Multigraph, cap: int = 1):
    try:
        return epsilon_exact(g, max_copies_per_edge=cap)[0]
    except CapInfeasible:
        return None


@SETTINGS
@given(st.data())
def test_epsilon_is_invariant_under_relabelling(data):
    g = data.draw(triangle_supported())
    perm = data.draw(st.permutations(range(g.order)))
    h = relabel(g, perm)
    t, aug, cert = epsilon_exact(h)
    assert t == epsilon_exact(g)[0]
    assert coverage_error(apply_augmentation(h, aug), cert) is None
    assert capped_epsilon(h) == capped_epsilon(g)


def shifted(e, s: int):
    return edge(e.u + s, e.v + s)


def disjoint_union(g: Multigraph, h: Multigraph) -> Multigraph:
    """g, then h with its vertices moved above g's."""
    mult = dict(g.items())
    mult.update((shifted(e, g.order), m) for e, m in h.items())
    return Multigraph(g.order + h.order, mult)


@SETTINGS
@given(triangle_supported(), triangle_supported())
def test_epsilon_adds_over_a_disjoint_union(g, h):
    # Every triangle lies in one part, so the least count is the sum; and
    # g's edges sort first, so the least witness is g's, then h's shifted.
    t, aug, _ = epsilon_exact(disjoint_union(g, h))
    tg, aug_g, _ = epsilon_exact(g)
    th, aug_h, _ = epsilon_exact(h)
    assert t == tg + th
    assert list(aug) == list(aug_g) + [shifted(e, g.order) for e in aug_h]


@pytest.mark.parametrize("m, n", [(5, 8), (6, 8), (8, 10), (5, 11), (10, 12)])
def test_epsilon_of_two_complete_graphs_is_the_fort_hedlund_sum(m, n):
    assert epsilon_exact(disjoint_union(complete_graph(m), complete_graph(n)))[0] == (
        fort_hedlund(m) + fort_hedlund(n))


# Two family members of hundreds of vertices each, in both orders for sc3
# 100 and mop 700 or 901, and (fan 100, intermediate 300 10).
@pytest.mark.parametrize("parts, t", [
    pytest.param(lambda: (sc3_construct(100), mop_construct(700)), 4, id="sc3-100+mop-700"),
    pytest.param(lambda: (sc3_construct(100), mop_construct(901)), 4, id="sc3-100+mop-901"),
    pytest.param(lambda: (mop_construct(700), sc3_construct(100)), 4, id="mop-700+sc3-100"),
    pytest.param(lambda: (mop_construct(901), sc3_construct(100)), 4, id="mop-901+sc3-100"),
    pytest.param(lambda: (fan(100), intermediate(300, 10)), 127, id="fan-100+intermediate-300-10"),
])
def test_epsilon_adds_over_a_union_of_family_members(parts, t):
    g, h = (member.graph for member in parts())
    got, aug, _ = epsilon_exact(disjoint_union(g, h))
    _, aug_g, _ = epsilon_exact(g)
    _, aug_h, _ = epsilon_exact(h)
    assert got == t == len(aug_g) + len(aug_h)
    assert list(aug) == list(aug_g) + [shifted(e, g.order) for e in aug_h]


@SETTINGS
@given(st.data())
def test_an_added_triangle_never_raises_epsilon(data):
    # T joins any decomposition of G's augmentation, so G + T needs no more.
    g = data.draw(triangle_supported())
    t = data.draw(st.sampled_from(enumerate_triangles(g)))
    assert epsilon_exact(apply_augmentation(g, Augmentation(t.edges())))[0] <= epsilon_exact(g)[0]


@SETTINGS
@given(triangle_supported())
def test_the_witness_added_leaves_nothing_to_add(g):
    _, aug, _ = epsilon_exact(g)
    assert epsilon_exact(apply_augmentation(g, aug))[0] == 0


@SETTINGS
@given(triangle_supported())
def test_epsilon_falls_as_the_cap_rises(g):
    # A cover under one cap is a cover under every higher one, so the count
    # never rises with the cap and a feasible cap stays feasible; uncapped,
    # every graph with each edge on a triangle is feasible.
    counts = [capped_epsilon(g, cap) for cap in (0, 1, 2)] + [epsilon_exact(g)[0]]
    assert counts == sorted(counts, key=lambda c: (c is None, c), reverse=True)
    assert counts[-1] is not None


@SETTINGS
@given(triangle_supported())
def test_multigraph_json_round_trips(g):
    assert Multigraph.from_json_dict(json.loads(json.dumps(g.to_json_dict()))) == g


_TEXT = st.text() | st.sampled_from(["", "quote \" slash \\ tab \t nl \n", "\x00\x1f\x7f",
                                      "\u00e9\u2603\U0001f600", "\ud800"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(_TEXT, inner, max_size=5)
                   | st.lists(st.lists(st.integers(), min_size=2, max_size=2), max_size=4)),
    max_leaves=30,
)


@SETTINGS
@given(_JSON_VALUES)
def test_cli_writer_prints_the_bytes_of_json_dumps(value):
    out = io.StringIO()
    with redirect_stdout(out):
        _print_json(value)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"
