"""Class extremes: extremal augmentation counts over all triangulated cycles.

A maximal outerplanar graph of order n is a triangulation of the n-cycle
0, 1, ..., n - 1, given by its sorted tuple of EdgeKey chords;
enumerate_mops lists all Catalan(n - 2) chord tuples in order, charged
2n - 3 steps each against STEP_LIMIT, the one bound on the epsilon sweep's
order.  epsilon_class_exact asks each member in turn, in that order, the
one question the paper's first criterion leaves: whether it decomposes
with n mod 3 added copies.  So at most two cover solver instances are
alive at once, no level climb runs and ``augment`` is never loaded; the
first member that decomposes is rechecked as an answer.  xi_class_exact
runs no search: it checks the paper's proof of its value on the envelope
that ``construct fan n`` prints, through that command's answer checks and
``graph_core``'s packing bound.  Both return their witness's chords only
once ``analysis.is_maximal_outerplanar``, the package's one chord-set
check, accepts the graph the sweep holds, the cycle plus them.  Only the
``sweep`` subcommand loads this module.
"""

from __future__ import annotations

from . import analysis, graph_core
from .decomposer import CoverInstance
from .graph_core import EdgeKey, InvariantViolation, Multigraph, _check_int, _packing_bound


def _mop(n: int, chords: tuple[EdgeKey, ...]) -> Multigraph:
    """The n-cycle 0, 1, ..., n - 1 plus the chords."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs.extend(chords)
    return Multigraph.from_edges(n, pairs)


def _witness(g: Multigraph, chords: tuple[EdgeKey, ...]) -> tuple[EdgeKey, ...]:
    """g's chords, once g, the n-cycle plus them, triangulates it; InvariantViolation if not."""
    n = g.order
    if not analysis.is_maximal_outerplanar(g, range(n)):
        raise InvariantViolation(f"sweep witness is no triangulation of the {n}-cycle")
    return chords


def enumerate_mops(n: int) -> list[tuple[EdgeKey, ...]]:
    """Every triangulation of the labelled n-cycle as its sorted chords, in order.

    Each is charged its 2n - 3 edges against STEP_LIMIT, so past the limit
    ScaleLimit is raised before anything is listed; the Catalan recurrence
    counts the triangulations only up to the limit.  At the default
    limit orders 3..12 list (352,716 steps at 12); 13 would take 1,352,078.
    """
    _check_int(n, least=3)
    count = 1
    for k in range(1, n - 1):  # count = Catalan(k)
        count = count * (4 * k - 2) // (k + 1)
        if (2 * n - 3) * count > graph_core.STEP_LIMIT:
            raise graph_core._step_limit("triangulation listing")

    def fill(i: int, j: int) -> list[list[tuple[int, int]]]:
        # All chord sets triangulating the polygon arc i..j (j - i >= 2).
        if j - i == 1:
            return [[]]
        out = []
        for k in range(i + 1, j):
            left = fill(i, k)
            right = fill(k, j)
            extra = []
            if k - i > 1:
                extra.append((i, k))
            if j - k > 1:
                extra.append((k, j))
            for ls in left:
                for rs in right:
                    out.append(ls + rs + extra)
        return out

    # fill yields n - 3 distinct non-crossing chords (u, v), u < v: skip the checks.
    new = tuple.__new__
    codes = [tuple(new(EdgeKey, c) for c in sorted(chordset)) for chordset in fill(0, n - 1)]
    codes.sort()
    return codes


def epsilon_class_exact(n: int) -> tuple[int, tuple[EdgeKey, ...]]:
    """Least augmentation count over all order-n triangulated cycles, with its witness.

    The paper's first criterion puts the class minimum at t = n mod 3, the
    residue of the shared size 2n - 3.  So each member, in chord-set order,
    is asked one question, whether it decomposes with t added copies, and
    the first that does is the witness, its cover rechecked as an answer;
    if none does, the criterion fails: InvariantViolation.
    """
    mops = enumerate_mops(n)
    t = n % 3
    for chords in mops:
        g = _mop(n, chords)
        inst = CoverInstance(g)
        chosen = inst.solve(inst.base, [b + t for b in inst.base], (2 * n - 3 + t) // 3)
        if chosen is not None:
            graph_core._recheck(g, *inst.records(chosen), t)
            return t, _witness(g, chords)
    raise InvariantViolation(f"no order-{n} triangulated cycle decomposes with {t} added copies")


def xi_class_exact(n: int) -> tuple[int, tuple[EdgeKey, ...]]:
    """Largest augmentation count over order-n triangulated cycles, one copy cap.

    The count is n - 3, and the fan at vertex 0, the first triangulation in
    chord-set order, is the witness; nothing is searched or listed.  Upper
    bound: a member with its n - 3 chords doubled decomposes into its n - 2
    faces.  Lower bound: no face of the fan holds two of its path edges
    (i, i + 1), 1 <= i <= n - 2, so its decompositions take n - 2
    triangles and add 3(n - 2) - (2n - 3) = n - 3 copies.  Both halves are
    checked on families.fan(n), which ``construct fan n`` prints, through
    its answer checks and count and _packing_bound; a failure is a bug.
    """
    from . import families  # only the xi sweep builds a family

    fan = families.fan(n)
    families.validate_construction(fan)
    if fan.claimed_epsilon != n - 3:
        raise InvariantViolation(f"the fan claims {fan.claimed_epsilon} copies, not {n - 3}")
    bound = _packing_bound(fan.graph, [EdgeKey(i, i + 1) for i in range(1, n - 1)])
    if bound != n - 3:
        raise InvariantViolation(f"the fan's path edges bound its count by {bound}, not {n - 3}")
    return n - 3, _witness(fan.graph, fan.augmentation.additions)
