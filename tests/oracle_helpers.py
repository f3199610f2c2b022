"""Independent brute-force baselines used to cross-check the solvers.

Deliberately naive: triangles come from a triple loop, the cover search
always branches on the first uncovered edge with no ordering heuristics or
parity shortcuts, and the minimum-additions search tries every total from
zero upward with no residue stepping.  milp_epsilon answers the same
question as an integer program through scipy, which only the tests need.
Only the Multigraph container is shared with the production code.
"""

import itertools
from typing import List, Optional, Tuple

from tridecomp import EdgeKey, Multigraph, edge


def oracle_triangles(g: Multigraph) -> List[Tuple[int, int, int]]:
    adj = [set(g.neighbors(v)) for v in range(g.order)]
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
