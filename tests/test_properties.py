"""Property tests: relabelling invariance of epsilon, Multigraph JSON round-trips
and the CLI's JSON writer.

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
    CapInfeasible,
    Multigraph,
    apply_augmentation,
    coverage_error,
    edge,
    epsilon_exact,
)
from tridecomp.cli import _print_json  # noqa: E402

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


def capped_epsilon(g: Multigraph):
    try:
        return epsilon_exact(g, max_copies_per_edge=1)[0]
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
