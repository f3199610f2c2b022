"""Independent brute-force baselines used to cross-check the solvers.

Deliberately naive: triangles come from a triple loop, the cover search
always branches on the first uncovered edge with no ordering heuristics or
parity shortcuts, and the minimum-additions search tries every total from
zero upward with no residue stepping.  milp_epsilon answers the same
question as an integer program through scipy, which only the tests need,
and milp_delta the divisibility minimum beside it.
oracle_parity_bound is the least count that degree parity and the
divisibility residue allow, by a breadth-first search over vertex parities.
The outerplanarity test compares every pair of chords, and the 2-tree
builder rescans its boundary list every round: the quadratic originals of
the production code.  scan_solve is the cover search with every node's
tests recomputed in full; it reads the triangle tables of a
CoverInstance.  find_hamiltonian_cycle is a depth-first search for a
Hamiltonian cycle, stopped at STEP_LIMIT passes; ``verify`` checks the
cycle that an hmp envelope's order determines instead.  complete_graph and
cycle_graph are the test fixtures K_n and C_n, and fort_hedlund is the
known least count for K_n, which needs no scipy.  Otherwise only the
Multigraph container is shared with the production code.
"""

import itertools
from collections import deque
from typing import List, Optional, Sequence, Tuple

from tridecomp import DomainError, EdgeKey, Multigraph, degree_sequence, edge, graph_core


def complete_graph(n: int) -> Multigraph:
    return Multigraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def fort_hedlund(n: int) -> int:
    """Least added copies that make K_n decomposable, from its covering number.

    Fort and Hedlund (1958): the fewest triangles covering every edge of
    K_n, n >= 3, is ceil((n / 3) * ceil((n - 1) / 2)); the count is three
    times that less the n(n - 1) / 2 edges.
    """
    half = -(-(n - 1) // 2)
    return 3 * -(-(n * half) // 3) - n * (n - 1) // 2


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise DomainError(f"a cycle needs at least 3 vertices, got {n}")
    return Multigraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def oracle_triangles(g: Multigraph) -> List[Tuple[int, int, int]]:
    adj = [set(ns) for ns in g.adjacency()]
    out = []
    for a, b, c in itertools.combinations(range(g.order), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            out.append((a, b, c))
    return out


def oracle_decomposable(g: Multigraph) -> bool:
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    residual = [g.multiplicity(e) for e in edges]
    triangles = [
        (index[edge(a, b)], index[edge(a, c)], index[edge(b, c)])
        for a, b, c in oracle_triangles(g)
    ]
    failed = set()

    def search() -> bool:
        target = None
        for i, r in enumerate(residual):
            if r > 0:
                target = i
                break
        if target is None:
            return True
        state = tuple(residual)
        if state in failed:
            return False
        for tri in triangles:
            if target in tri and all(residual[i] > 0 for i in tri):
                for i in tri:
                    residual[i] -= 1
                if search():
                    return True
                for i in tri:
                    residual[i] += 1
        failed.add(state)
        return False

    return search()


def oracle_witness(g: Multigraph, cap: Optional[int] = None) -> Tuple[EdgeKey, ...]:
    """The first decomposable multiset of added edge copies.

    Totals are tried from zero upward and, within a total, multisets in
    itertools.combinations_with_replacement order, which is ascending
    lexicographic order of the sorted edge lists.
    """
    edges = g.edges()
    ceiling = 2 * g.size() + 3
    if cap is not None:
        ceiling = min(ceiling, cap * len(edges))
    total = 0
    while total <= ceiling:
        for combo in itertools.combinations_with_replacement(
            range(len(edges)), total
        ):
            if cap is not None and any(
                combo.count(i) > cap for i in set(combo)
            ):
                continue
            mult = {e: m for e, m in g.items()}
            for i in combo:
                mult[edges[i]] += 1
            if oracle_decomposable(Multigraph(g.order, mult)):
                return tuple(edges[i] for i in combo)
        total += 1
    raise RuntimeError("oracle search ran past its ceiling")


def oracle_epsilon(g: Multigraph, cap: Optional[int] = None) -> int:
    """Least number of added parallel copies making g decomposable."""
    return len(oracle_witness(g, cap))


def milp_epsilon(g: Multigraph, cap: Optional[int] = None) -> Optional[int]:
    """Least added copies by integer programming; None when no capped augmentation works.

    Minimises the triangle count sum x_T over integers x_T >= 0 subject to
    m_e <= sum of x_T over triangles T through e <= m_e + cap for every
    edge e (no upper bound uncapped); epsilon is 3 * min - size.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    tris = oracle_triangles(g)
    a = np.zeros((len(edges), len(tris)))
    for j, (x, y, z) in enumerate(tris):
        for e in (edge(x, y), edge(x, z), edge(y, z)):
            a[index[e], j] = 1
    m = np.array([g.multiplicity(e) for e in edges], dtype=float)
    upper = np.full(len(edges), np.inf) if cap is None else m + cap
    res = milp(
        c=np.ones(len(tris)),
        constraints=LinearConstraint(a, m, upper),
        integrality=np.ones(len(tris)),
        bounds=Bounds(0, np.inf),
    )
    if res.status == 2:  # infeasible
        return None
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return 3 * round(res.fun) - g.size()


def milp_delta(g: Multigraph) -> int:
    """Least added copies on present edges that make g divisible, by integer programming.

    Divisible means every degree even and the size 0 mod 3.  Minimises
    sum x_e over integers x_e >= 0 subject to deg(v) + sum of x_e over the
    edges e at v = 2 y_v for every vertex v and size + sum x_e = 3 z, with
    y and z free integers.  delta <= epsilon, as every decomposable graph
    is divisible.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    edges, n = g.edges(), g.order
    # Columns: x_e for each edge, then y_v for each vertex, then z.
    a = np.zeros((n + 1, len(edges) + n + 1))
    for j, e in enumerate(edges):
        a[e.u, j] = a[e.v, j] = a[n, j] = 1
    for v in range(n):
        a[v, len(edges) + v] = -2
    a[n, -1] = -3
    rhs = -np.array([*degree_sequence(g), g.size()], dtype=float)
    res = milp(
        c=np.concatenate([np.ones(len(edges)), np.zeros(n + 1)]),
        constraints=LinearConstraint(a, rhs, rhs),
        integrality=np.ones(len(edges) + n + 1),
        bounds=Bounds(np.concatenate([np.zeros(len(edges)), np.full(n + 1, -np.inf)]), np.inf),
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return round(res.fun)


def oracle_parity_bound(g: Multigraph) -> Tuple[int, int, int]:
    """(parity_bound, residue, combined): lower bounds on the added copies.

    parity_bound is the fewest added copies that make every degree even,
    residue is (-size) mod 3, and combined is the least count t that is
    congruent to residue and can fix every parity with t copies.  Breadth
    first over (odd-vertex mask, count mod 2) states, one copy per step:
    a copy of {u, v} flips the parities of u and v.  2**n states at worst.
    """
    target = sum(1 << v for v, d in enumerate(degree_sequence(g)) if d % 2)
    masks = sorted({(1 << e.u) | (1 << e.v) for e in g.edges()})
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        pmask, cpar = state = queue.popleft()
        d = dist[state] + 1
        for em in masks:
            nxt = (pmask ^ em, cpar ^ 1)
            if nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    # Doubling every edge makes every degree even, so one of these is reached.
    fix = [dist.get((target, 0)), dist.get((target, 1))]
    residue = (-g.size()) % 3
    t = residue
    while fix[t % 2] is None or t < fix[t % 2]:
        t += 3
    return min(p for p in fix if p is not None), residue, t


def simple_graphs(n: int):
    """Every labeled simple graph on n vertices, as a Multigraph."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Multigraph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )


def every_edge_on_triangle_masks(n: int):
    """Bitmasks over the edges of K_n whose graphs keep every edge on a triangle."""
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    for mask in range(1 << m):
        adj = [0] * n
        for i in range(m):
            if mask >> i & 1:
                u, v = pairs[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        ok = True
        for i in range(m):
            if mask >> i & 1:
                u, v = pairs[i]
                if not (adj[u] & adj[v]):
                    ok = False
                    break
        if ok:
            yield mask, pairs


def graph_from_mask(n: int, mask: int, pairs) -> Multigraph:
    return Multigraph.from_edges(
        n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    )


def oracle_chords_cross(p: Tuple[int, int], q: Tuple[int, int]) -> bool:
    """Whether chords (a, b) and (c, d), a < b and c < d, of a convex polygon cross."""
    (a, b), (c, d) = p, q
    return a < c < b < d or c < a < d < b


def oracle_is_maximal_outerplanar(g: Multigraph, outer: Sequence[int]) -> Optional[bool]:
    """Whether g triangulates the cycle outer; None where outer is no permutation
    of at least three vertices.  Every pair of chords is tested for a crossing."""
    n = g.order
    if sorted(outer) != list(range(n)) or n < 3:
        return None
    if any(g.multiplicity(e) > 1 for e in g.edges()):
        return False
    pos = {v: i for i, v in enumerate(outer)}
    cycle = {frozenset((outer[i], outer[(i + 1) % n])) for i in range(n)}
    if any(not g.has_edge(edge(*pair)) for pair in cycle) or g.size() != 2 * n - 3:
        return False
    chords = [tuple(sorted((pos[e.u], pos[e.v]))) for e in g.edges()
              if frozenset((e.u, e.v)) not in cycle]
    return not any(oracle_chords_cross(p, q) for p, q in itertools.combinations(chords, 2))


# Each residue's seed: its boundary cycle and the triangles that certify it.
ORACLE_SC2_SEEDS = [
    ([0, 1, 2], [(0, 1, 2)]),
    ([0, 1, 3, 2], [(0, 1, 3), (0, 2, 3)]),
    ([0, 1, 3, 4, 2], [(0, 1, 3), (0, 2, 3), (2, 3, 4)]),
]


def oracle_sc2_tree_envelopes(limit: int):
    """(n, envelope of construct sc2tree n) for every n from 3 up to limit.

    One growth per residue r serves its orders, since order n + 3 is order
    n plus one round: it starts from the seed of order 3 + r, whose r
    doubled chords are its additions.  Each round puts a new vertex w over
    the least boundary edge (a, b) not yet used, then x over (a, w) and y
    over (w, b), inserting each new vertex into the boundary list next to
    the pair it splits.
    """
    def insert_between(boundary, u, v, w):
        for i in range(len(boundary)):
            if {boundary[i], boundary[(i + 1) % len(boundary)]} == {u, v}:
                boundary.insert(i + 1, w)
                return
        raise AssertionError(f"{u} and {v} are not adjacent on the boundary")

    for boundary, cert in ORACLE_SC2_SEEDS:
        boundary, cert = list(boundary), list(cert)
        covered = [edge(*p) for t in cert for p in itertools.combinations(t, 2)]
        pairs = sorted(set(covered))
        doubled = sorted(e for e in pairs if covered.count(e) == 2)
        used = set()
        for n in range(len(boundary), limit + 1, 3):
            yield n, {
                "family": "sc2tree",
                "parameters": {"n": n},
                "epsilon": len(doubled),
                "graph": Multigraph.from_edges(n, pairs).to_json_dict(),
                "augmentation": [list(e) for e in doubled],
                "certificate": {"triangles": [list(t) for t in sorted(cert)]},
                "outer_cycle": list(boundary),
            }
            w, x, y = n, n + 1, n + 2
            size = len(boundary)
            a, b = min(e for e in (tuple(sorted((boundary[i], boundary[(i + 1) % size])))
                                   for i in range(size)) if e not in used)
            pairs += [(a, w), (b, w), (a, x), (w, x), (b, y), (w, y)]
            cert += [tuple(sorted((a, w, x))), tuple(sorted((b, w, y)))]
            used.update({(a, b), (a, w), (b, w)})
            insert_between(boundary, a, b, w)
            insert_between(boundary, a, w, x)
            insert_between(boundary, w, b, y)


def scan_solve(inst, lo: List[int], hi: List[int], k: int) -> Tuple[Optional[List[int]], int]:
    """(inst.solve(lo, hi, k), triangles chosen), computed by rescanning at every node.

    The same branch order, tie-breaks, prunes and sibling bans as
    CoverInstance.solve, but each node rescans every short edge and every
    triangle through it and recounts the per-vertex odd shortfall, where
    the production solver keeps that state up to date.  Both must return
    exactly the same index list, or None, after choosing the same number
    of triangles: the count by which that call raises inst.steps.
    """
    # k triangles cover 3k edge copies, so no edge can exceed lo by
    # more than the slack 3k - sum(lo).
    slack = 3 * k - sum(lo)
    short = list(lo)  # lo[i] minus the coverage so far
    room = [min(b, a + slack) for a, b in zip(lo, hi)]  # hi[i] minus the coverage
    ends = inst.ends
    order = max((v for _, v in ends), default=-1) + 1
    degree = [0] * order
    for (u, v), a in zip(ends, lo):
        degree[u] += a
        degree[v] += a
    if sum(d % 2 for d in degree) > 2 * slack:  # also any negative slack
        return None, 0
    tri_edges = inst.tri_edges
    tris_of_edge = inst.tris_of_edge
    m = len(short)
    banned = [False] * len(tri_edges)
    chosen: List[int] = []
    steps = 0

    def branch(left: int, shortfall: int) -> Optional[List[int]]:
        """The triangles to try at this node: None on success, [] at a dead end."""
        spare = 3 * left - shortfall  # coverings beyond lo still to place
        if spare < 0:
            return []
        if spare > 0:
            # A vertex still short by an odd amount needs a covering
            # beyond lo on one of its edges, and each such covering
            # serves two vertices.
            need_at = [0] * order
            for (u, v), s in zip(ends, short):
                if s > 0:
                    need_at[u] += s
                    need_at[v] += s
            if sum(d & 1 for d in need_at) > 2 * spare:
                return []
        best: Optional[List[int]] = None
        for ei in range(m):
            need = short[ei]
            if need <= 0:
                continue
            fits: List[int] = []
            capacity = 0
            for ti in tris_of_edge[ei]:
                e1, e2, e3 = tri_edges[ti]
                r = room[e1]
                if room[e2] < r:
                    r = room[e2]
                if room[e3] < r:
                    r = room[e3]
                if r > 0:
                    fits.append(ti)
                    capacity += r
            if capacity < need:
                return []  # this edge cannot reach lo even with full reuse
            if best is None or len(fits) < len(best):
                best = fits
                if len(fits) == 1:
                    break  # a forced move: no later edge can beat it
        if best is None:
            # No slack triangles, as the docstring explains.
            return None if left == 0 else []
        return best

    # One frame per open node: [fits, next index, failed, left, shortfall].
    # chosen[d] is the triangle frame d is trying, so popping frame d + 1
    # takes chosen[d] back.
    fits = branch(k, sum(lo))
    if fits is None:
        return chosen, steps
    frames = [[fits, 0, [], k, sum(lo)]]
    while frames:
        frame = frames[-1]
        fits, i, failed, left, shortfall = frame
        while i < len(fits) and banned[fits[i]]:
            i += 1
        if i == len(fits):
            for ti in failed:
                banned[ti] = False
            frames.pop()
            if frames:
                ti = chosen.pop()
                e1, e2, e3 = tri_edges[ti]
                short[e1] += 1
                short[e2] += 1
                short[e3] += 1
                room[e1] += 1
                room[e2] += 1
                room[e3] += 1
                banned[ti] = True
                frames[-1][2].append(ti)
            continue
        ti = fits[i]
        frame[1] = i + 1
        steps += 1
        e1, e2, e3 = tri_edges[ti]
        gain = (short[e1] > 0) + (short[e2] > 0) + (short[e3] > 0)
        short[e1] -= 1
        short[e2] -= 1
        short[e3] -= 1
        room[e1] -= 1
        room[e2] -= 1
        room[e3] -= 1
        chosen.append(ti)
        fits = branch(left - 1, shortfall - gain)
        if fits is None:
            return chosen, steps
        frames.append([fits, 0, [], left - 1, shortfall - gain])
    return None, steps


def find_hamiltonian_cycle(g: Multigraph) -> Optional[Tuple[int, ...]]:
    """A Hamiltonian cycle starting at 0, or None; lex-first by neighbor order.

    Depth-first over paths from 0 with an explicit stack: tried[i] is how
    many neighbors of path[i] have been tried as path[i + 1].  ScaleLimit
    past STEP_LIMIT passes of the loop: an hmp graph needs about order + 12,
    but a cut vertex can make them exponential.
    """
    n = g.order
    if n < 3:
        return None
    adj = g.adjacency()
    path = [0]
    tried = [0]
    on_path = [False] * n
    on_path[0] = True
    steps = 0
    limit = graph_core.STEP_LIMIT
    while path:
        steps += 1
        if steps > limit:
            raise graph_core._step_limit("hamiltonian cycle search")
        nbrs = adj[path[-1]]
        if len(path) == n:
            if 0 in nbrs:
                return tuple(path)
            i = len(nbrs)
        else:
            i = tried[-1]
            while i < len(nbrs) and on_path[nbrs[i]]:
                i += 1
        if i < len(nbrs):
            tried[-1] = i + 1
            path.append(nbrs[i])
            tried.append(0)
            on_path[nbrs[i]] = True
        else:
            on_path[path.pop()] = False
            tried.pop()
    return None
