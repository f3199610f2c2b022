"""Exact triangle-decomposition search over edge multiplicities.

The one search primitive is a bounded triangle multicover: pick k triangles
(repeats allowed) so that every edge i is covered between lo[i] and hi[i]
times.  A decomposition is the case lo = hi = multiplicity; ``augment``'s
minimum augmentation search and ``sweep epsilon``'s one question per
triangulated cycle widen hi, and every caller reads a cover off through
CoverInstance.records.  The branch rule picks the edge still short of lo
with the fewest triangles fitting under hi (ties broken by lexicographic
edge order) and tries those triangles in lexicographic order, so the
returned certificate is a pure function of the input.  Before it reads a
triangle, a search refuses a k past the ceiling, vertex parities that the
coverings beyond lo cannot fix (which also refuses every negative slack)
and, as a broken invariant, an edge with no room under hi.  It keeps its
node state incrementally: per edge, its room under hi, with the shortfall
below lo read as room minus a gap fixed at the root; a triangle is live
while each of its edges has room for one more covering, every triangle is
live at the root, and a choose or undo that empties or refills an edge
flips the triangles through it, so a node reads its prunes and its branch
edge from per-edge counts instead of rescanning every triangle.  Each
solver instance keeps each edge once, as a vertex pair, and each triangle
once, as three edge indices.  It counts the triangles it chooses, and the
edges its set-ups read plus the triangles of each set-up whose root tests
pass, over all its searches, and gives up with ScaleLimit past STEP_LIMIT
of either; listing more than STEP_LIMIT triangles is refused the same way.
The certificate record, the screen fast_reject and the answer checks live
in ``graph_core``, so ``verify``, ``faces`` and a ``decompose`` that the
screen refuses never compile this module.  ``construct`` compiles it
through ``families``, whose one search is ``sweep epsilon``'s.
"""

from __future__ import annotations

from bisect import insort

from . import graph_core
from .graph_core import ORDER_LIMIT, InvariantViolation, Multigraph, ScaleLimit, Triangle


def enumerate_triangles(g: Multigraph) -> list[Triangle]:
    """All triangles of the underlying simple graph, lexicographic, each once.

    ScaleLimit past STEP_LIMIT of them, before the list takes memory
    without bound: a dense graph of order n has about n**3 / 6.
    """
    adj = [set(ns) for ns in g.adjacency()]
    limit = graph_core.STEP_LIMIT
    out: list[Triangle] = []
    # The loops give a < b < c: skip the Triangle checks, as enumerate_mops does.
    new = tuple.__new__
    for a in range(g.order):
        for b in sorted(adj[a]):
            if b <= a:
                continue
            for c in sorted(adj[a] & adj[b]):
                if c > b:
                    out.append(new(Triangle, (a, b, c)))
            if len(out) > limit:
                raise graph_core._step_limit("triangle listing")
    return out


class CoverInstance:
    """Reusable triangle-cover structure for one underlying simple graph.

    Augmenting a graph never changes which triples form triangles, so a
    single instance serves every query on the same graph: only the bounds
    and the triangle count vary between solve() calls.  steps counts the
    triangles chosen by every solve() call so far, and scanned the set-up
    charges: the edges each set-up reads, plus one per triangle once its
    root tests pass, so a climb of many levels that are refused before a
    triangle is chosen is counted too.  Past STEP_LIMIT of either the
    search gives up with ScaleLimit, so the limit bounds all the searches
    on one graph together.  Edge i is the pair ends[i] and triangle t the
    indices tri_edges[t] of its edges ab, ac and bc.
    """

    __slots__ = ("ends", "base", "tri_edges", "tris_of_edge", "order", "steps", "scanned")

    def __init__(self, g: Multigraph):
        edges = g.edges()
        self.ends: list[tuple[int, int]] = [tuple(e) for e in edges]
        self.base: list[int] = [g.multiplicity(e) for e in edges]
        edge_index = {e: i for i, e in enumerate(edges)}
        # The listing is not kept, so it is freed before tris_of_edge is built.
        self.tri_edges = [tuple(edge_index[e] for e in t.edges()) for t in enumerate_triangles(g)]
        self.tris_of_edge: list[list[int]] = [[] for _ in edges]
        for ti, (e1, e2, e3) in enumerate(self.tri_edges):
            self.tris_of_edge[e1].append(ti)
            self.tris_of_edge[e2].append(ti)
            self.tris_of_edge[e3].append(ti)
        self.order = max((v for _, v in self.ends), default=-1) + 1
        self.steps = 0
        self.scanned = 0

    def edge_counts(self, chosen: list[int]) -> list[int]:
        """How many of the chosen triangles cover each edge."""
        counts = [0] * len(self.ends)
        for ti in chosen:
            for ei in self.tri_edges[ti]:
                counts[ei] += 1
        return counts

    def solve(self, lo: list[int], hi: list[int], k: int) -> list[int] | None:
        """k triangle indices (repeats allowed) covering edge i between lo[i] and hi[i] times.

        None when no such multiset exists.  With lo == hi this is an exact
        cover.  With lo < hi the caller must reach the least k one step at
        a time: k - 1 must already be refused or impossible.  Then no
        solution holds a triangle whose removal keeps every edge at or
        above lo, so the search only adds triangles through an edge still
        short of lo, and a node with no short edge succeeds only at k.

        The root tests refuse, in this order:
        - k above ORDER_LIMIT, with ScaleLimit: a stack that deep would
          take memory and time without bound;
        - more vertices with an odd lo total than the 2 * slack that the
          coverings beyond lo can fix, the slack 3k - sum(lo) counting
          those coverings, each serving two vertices, since a triangle
          covers two edges at each of its corners; no count is below 0,
          so this also refuses every negative slack;
        - an edge with no room, hi[i] capped at lo[i] + slack, with
          InvariantViolation (see below).
        All of them come before any triangle is read, so only a call that
        passes them is charged its triangles.  A call with fewer than 3k
        coverings of room in all passes them and fails in its search.

        The search branches on the short edge with the fewest triangles
        fitting under hi (the first such edge; one fitting triangle ends
        the scan) and tries them in order.  A node is pruned when a short
        edge cannot reach lo, when the triangles left cannot cover the
        total shortfall, or when more vertices are short by an odd amount
        than the coverings beyond lo can serve.  A triangle
        whose branch failed is banned from its later siblings' subtrees,
        since a solution there holding it would also solve the failed
        branch.  Prunes and bans cut only subtrees without a solution, so
        with lo == hi the certificate is the one the plain exact-cover
        search finds first.

        Once the root tests pass, slack >= 0, so a bound with 1 <= lo <= hi
        on every edge, as every caller passes, leaves each edge room for a
        covering: no triangle is dead at the root.  A bound that leaves an
        edge no room there is refused with InvariantViolation.

        A node reads its tests from state that each choose and undo keeps
        up to date, rather than rescanning every triangle: per edge, its
        room (hi minus coverage) and the number of live triangles through
        it, at the root its number of triangles; per triangle, whether it
        is dead, true exactly when one of its edges has no room left, so a
        live triangle fits; the short edges in ascending order; and the
        parity of each vertex's total shortfall, with the count of odd
        ones, kept only while coverings beyond lo remain to place (never in
        an exact cover).  A covering takes one from an edge's room and its
        shortfall (lo minus coverage) alike, so the shortfall is room minus
        gap, a per-edge difference fixed at the root, and a choose or undo
        writes one count per edge.  A choose that takes an edge's room to 0
        kills the live triangles through it, and the undo that gives the
        room back revives each of them whose three edges all have room
        again.  Each live triangle can cover its edges at least once more,
        so only a short edge with fewer live triangles than it needs sums
        their least rooms for the reach test, and only the edge the node
        branches on has its live triangles listed.

        The open nodes live on an explicit stack, the root's frame and one
        more per chosen triangle, so a search hundreds of triangles deep
        (the 998 of ``construct hmp 1000``) needs no interpreter recursion.
        A frame holds three fields: its fits, the index of the next one to
        try, and its spare coverings (beyond lo, still to place), which
        start at the slack and change by gain - 3 per chosen triangle that
        takes gain edges closer to lo.  The fits leave out the triangles
        banned when the frame opens.  No ancestor bans a triangle while a
        frame is open, and every descendant lifts its bans before it
        closes, so a frame's own bans are exactly the fits it has tried,
        and it lifts them all when it closes.

        A search that chooses more than STEP_LIMIT triangles, counted on
        from the instance's earlier calls in ``steps``, raises ScaleLimit,
        and so does a call whose set-up would take ``scanned`` past
        STEP_LIMIT: one step per edge, and one per triangle once the root
        tests above pass, so a call refused at the root is charged no
        triangle.
        """
        if k > ORDER_LIMIT:
            raise ScaleLimit(f"a cover of {k} triangles exceeds the ceiling of "
                             f"{ORDER_LIMIT} triangles")
        limit = graph_core.STEP_LIMIT
        self.scanned += len(lo)
        if self.scanned > limit:
            raise graph_core._step_limit("cover search")
        # k triangles cover 3k edge copies, so no edge can exceed lo by
        # more than the slack 3k - sum(lo).
        slack = 3 * k - sum(lo)
        room = [min(b, a + slack) for a, b in zip(lo, hi)]  # hi[i] minus the coverage
        ends = self.ends
        odd_at = [0] * self.order  # the parity of the vertex's total shortfall, here lo
        for (u, v), a in zip(ends, lo):
            odd_at[u] ^= a & 1
            odd_at[v] ^= a & 1
        # branch()'s parity prune, run at the root ahead of the triangle
        # reads; odd >= 0, so it also refuses a negative slack.
        odd = sum(odd_at)
        if odd > 2 * slack:
            return None
        if 0 in room:
            raise InvariantViolation("a cover search bound leaves an edge no room at the root")
        tri_edges = self.tri_edges
        tris_of_edge = self.tris_of_edge
        self.scanned += len(tri_edges)
        if self.scanned > limit:
            raise graph_core._step_limit("cover search")
        # Coverage lowers room and shortfall together, so an edge's
        # shortfall (lo[i] minus the coverage) is room[i] - gap[i].
        gap = [r - a for r, a in zip(room, lo)]
        dead = [False] * len(tri_edges)
        fitting = [len(ts) for ts in tris_of_edge]  # live triangles through the edge
        shorts = [ei for ei, a in enumerate(lo) if a > 0]  # ascending
        banned = [False] * len(tri_edges)
        chosen: list[int] = []
        steps = self.steps

        def branch(spare: int) -> list[int] | None:
            """The triangles to try at this node: None on success, [] at a dead end."""
            if spare < 0:
                return []
            # A vertex still short by an odd amount needs a covering beyond
            # lo on one of its edges, and each such covering serves two
            # vertices.
            if spare > 0 and odd > 2 * spare:
                return []
            best = -1
            fewest = len(tri_edges) + 1
            for ei in shorts:
                need = room[ei] - gap[ei]
                count = fitting[ei]
                if count < need:
                    reach = 0
                    for t in tris_of_edge[ei]:
                        if not dead[t]:
                            e1, e2, e3 = tri_edges[t]
                            reach += min(room[e1], room[e2], room[e3])
                    if reach < need:
                        return []  # this edge cannot reach lo even with full reuse
                if count < fewest:
                    best = ei
                    fewest = count
                    if fewest == 1:
                        break  # a forced move: no later edge can beat it
            if best < 0:
                # No slack triangles, as the docstring explains.
                return None if len(chosen) == k else []
            return [ti for ti in tris_of_edge[best] if not (dead[ti] or banned[ti])]

        # One frame per open node: [fits, next index, spare], spare being
        # 3 * (k - len(chosen)) minus the total shortfall.  fits leaves out
        # the triangles banned when the frame opens, so the frame's bans are
        # the fits it has tried, lifted when it closes.  chosen[d] is the
        # triangle frame d is trying, so popping frame d + 1 takes chosen[d]
        # back.
        fits = branch(slack)
        if fits is None:
            return chosen
        frames = [[fits, 0, slack]]
        while frames:
            frame = frames[-1]
            fits, i, spare = frame
            if i == len(fits):
                for ti in fits:
                    banned[ti] = False
                frames.pop()
                if frames:
                    ti = chosen.pop()
                    keep_parity = frames[-1][2] > 0
                    for e in tri_edges[ti]:
                        r = room[e] + 1
                        room[e] = r
                        if r == 1:  # every triangle through e was dead
                            for t in tris_of_edge[e]:
                                e1, e2, e3 = tri_edges[t]
                                if room[e1] and room[e2] and room[e3]:
                                    dead[t] = False
                                    fitting[e1] += 1
                                    fitting[e2] += 1
                                    fitting[e3] += 1
                        s = r - gap[e]
                        if s > 0:
                            if s == 1:
                                insort(shorts, e)
                            if keep_parity:
                                u, v = ends[e]
                                odd += 2 - 2 * (odd_at[u] + odd_at[v])
                                odd_at[u] ^= 1
                                odd_at[v] ^= 1
                    banned[ti] = True
                continue
            steps += 1
            if steps > limit:
                break
            ti = fits[i]
            frame[1] = i + 1
            # Spare coverings never grow down the tree, so below a node
            # without them no node reads the parities.
            keep_parity = spare > 0
            for e in tri_edges[ti]:
                r = room[e]
                room[e] = r - 1
                s = r - gap[e]  # the shortfall before this covering
                if s > 0:
                    spare += 1
                    if s == 1:
                        shorts.remove(e)
                    if keep_parity:
                        u, v = ends[e]
                        odd += 2 - 2 * (odd_at[u] + odd_at[v])
                        odd_at[u] ^= 1
                        odd_at[v] ^= 1
                if r == 1:  # this covering takes e's last room
                    for t in tris_of_edge[e]:
                        if not dead[t]:
                            dead[t] = True
                            e1, e2, e3 = tri_edges[t]
                            fitting[e1] -= 1
                            fitting[e2] -= 1
                            fitting[e3] -= 1
            chosen.append(ti)
            spare -= 3
            fits = branch(spare)
            if fits is None:
                break
            frames.append([fits, 0, spare])
        self.steps = steps
        if steps > limit:
            raise graph_core._step_limit("cover search")
        return chosen if frames else None  # only a solution leaves frames open

    def records(
        self, chosen: list[int]
    ) -> tuple[graph_core.Augmentation, graph_core.Decomposition]:
        """A cover as records: c - base copies of each edge it covers c times; its triangles."""
        additions: list[graph_core.EdgeKey] = []
        for (u, v), c, b in zip(self.ends, self.edge_counts(chosen), self.base):
            additions.extend([graph_core.EdgeKey(u, v)] * (c - b))
        ends, new = self.ends, tuple.__new__  # (a, b, c) off ab and ac: a < b < c, as listed
        return graph_core.Augmentation(additions), graph_core.Decomposition(
            new(Triangle, (*ends[ab], ends[ac][1]))
            for ab, ac, _bc in (self.tri_edges[t] for t in chosen))


def find_decomposition(g: Multigraph) -> graph_core.Decomposition | None:
    """A triangle decomposition of g, or None; deterministic certificate."""
    if graph_core.fast_reject(g) is not None:
        return None
    inst = CoverInstance(g)
    chosen = inst.solve(inst.base, inst.base, g.size() // 3)
    return None if chosen is None else inst.records(chosen)[1]
