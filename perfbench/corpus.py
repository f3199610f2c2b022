"""Seeded command corpora for the three benchmark workloads.

Every input is a pure function of an integer: the graph generators take a
graph seed, and a run seed picks graph seeds out of a fixed pool.  The pool
is what makes byte-exact golden outputs possible for seeded inputs: every
pool member was run once at the commit that recorded ``golden.json``, and a
run draws its random inputs only from recorded pool members.

The draw is stratified by the time each pool member took when it was
recorded (one member from each of ``strata`` equal slices of the sorted
pool), so different run seeds get different inputs of the same cost profile
and the end-to-end times do not swing with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

GOLDEN_PATH = Path(__file__).with_name("golden.json")

WORKLOADS = ("epsilon-mix", "class-sweep", "certify")

# Per-command wall-time limit, seconds.  Each is at least twice the
# slowest time seen for a command of the workload that is expected to finish.
LIMIT_S = {"epsilon-mix": 8.0, "class-sweep": 30.0, "certify": 5.0}

# Wall time of one pass over the corpus at the recording commit, seconds
# (2-core container, Python 3.11).  A run of --seconds S makes
# max(1, S // PASS_S) passes, so the same benchmark settings always do the
# same work, however fast the program under test has become.
PASS_S = {"epsilon-mix": 22.0, "class-sweep": 13.0, "certify": 13.0}

# Pool sizes and how many pool members one pass draws.
EPS_POOL = 96
EPS_DRAWS = 24
UNION_POOL = 96
UNION_DRAWS = 8

# Only pool members whose every command took at most DRAW_MAX_S seconds
# when recorded are drawn.  Heavier members would make wall_s and cmd_tail_s
# depend on which seed drew them; the heavy tail is carried by the fixed
# inputs instead (fans and the 9-vertex graph, hmp and a known-timeout
# union).  A member that did not finish within SLOW_FACTOR times the limit
# is a known timeout.
DRAW_MAX_S = {"epsilon-mix": 0.05, "certify": 0.1}
SLOW_FACTOR = 3.0

FAN_ORDERS = (13, 14, 15)

# The 9-vertex graph of size 37 from the roadmap; its epsilon is 20.  At the
# recording commit the uncapped search does not finish in 240 s.
NINE_VERTEX = {
    "order": 9,
    "edges": [
        [0, 2, 1], [0, 6, 1], [0, 7, 2], [1, 3, 2], [1, 4, 2], [1, 5, 2],
        [1, 7, 2], [1, 8, 2], [2, 3, 2], [2, 4, 1], [2, 5, 2], [2, 7, 2],
        [3, 6, 2], [3, 7, 1], [3, 8, 1], [4, 6, 1], [4, 7, 1], [4, 8, 1],
        [5, 6, 1], [5, 7, 2], [5, 8, 1], [6, 7, 1], [6, 8, 2], [7, 8, 2],
    ],
}
NINE_VERTEX_EPSILON = 20

SWEEPS = (("epsilon", 11), ("epsilon", 12), ("xi", 10), ("xi", 11))

FAMILIES = (
    ("hmp", 800),
    ("hmp", 1000),
    ("kop", 30, 30),
    ("mop", 900),
    ("sc3", 300),
    ("sc2tree", 300),
    ("intermediate", 300, 10),
    ("sf", 8),
    ("sf", 9),
)

SETUP_ARGV = ["construct", "mop", "3"]

PERTURBATIONS = ("size_not_divisible", "odd_vertex", "edge_not_on_triangle")


@dataclass
class Command:
    """One CLI invocation of a corpus.

    ``key`` names the command in ``golden.json``.  ``argv`` may hold the
    placeholder ``{input}``, replaced by the path of a file holding
    ``graph`` (written by the runner) or, for ``verify``, the stdout of the
    command named ``source``.  ``recheck`` names the benchmark's own check,
    used where no golden output exists.
    """

    key: str
    argv: List[str]
    graph: Optional[dict] = None
    source: Optional[str] = None
    recheck: Optional[str] = None


def graph_json(order: int, mult: Dict[Tuple[int, int], int]) -> dict:
    return {"order": order, "edges": [[u, v, m] for (u, v), m in sorted(mult.items())]}


def edges_off_triangles(graph: dict) -> List[Tuple[int, int]]:
    """Edges of a graph JSON that lie on no triangle of its support."""
    adj: Dict[int, set] = {}
    for u, v, _m in graph["edges"]:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return [(u, v) for u, v, _m in graph["edges"] if not (adj[u] & adj[v])]


def _add_triangle(mult: Dict[Tuple[int, int], int], tri, copies: int) -> None:
    a, b, c = sorted(tri)
    for e in ((a, b), (a, c), (b, c)):
        mult[e] = mult.get(e, 0) + copies


def random_multigraph(graph_seed: int) -> dict:
    """Order 7-9, size at most 36: the support of random triangles, each
    support edge given multiplicity 1 or 2."""
    rng = random.Random(f"epsilon-mix/{graph_seed}")
    while True:
        n = rng.randint(7, 9)
        target = rng.randint(12, 20)
        support: Dict[Tuple[int, int], int] = {}
        while len(support) < target:
            _add_triangle(support, rng.sample(range(n), 3), 1)
        mult = {e: rng.randint(1, 2) for e in sorted(support)}
        g = graph_json(n, mult)
        if sum(mult.values()) <= 36 and not edges_off_triangles(g):
            return g


def triangle_union(graph_seed: int) -> dict:
    """Order 20: a multiset union of 48-56 random triangles, so decomposable."""
    rng = random.Random(f"certify/{graph_seed}")
    while True:
        mult: Dict[Tuple[int, int], int] = {}
        for _ in range(rng.randint(48, 56)):
            _add_triangle(mult, rng.sample(range(20), 3), 1)
        g = graph_json(20, mult)
        if not edges_off_triangles(g):
            return g


def perturb(graph: dict, graph_seed: int, kind: str) -> dict:
    """A one-edge change of a triangle union that fast_reject refuses with ``kind``.

    size_not_divisible: one more copy of an edge.  odd_vertex: three more
    copies (size stays divisible, two degrees turn odd).
    edge_not_on_triangle: six copies of an edge to a new vertex (size stays
    divisible, degrees stay even, the new edge has no triangle).
    """
    rng = random.Random(f"perturb/{graph_seed}/{kind}")
    order = graph["order"]
    mult = {(u, v): m for u, v, m in graph["edges"]}
    e = rng.choice(sorted(mult))
    if kind == "size_not_divisible":
        mult[e] += 1
    elif kind == "odd_vertex":
        mult[e] += 3
    elif kind == "edge_not_on_triangle":
        mult[(rng.randrange(order), order)] = 6
        order += 1
    else:
        raise ValueError(f"unknown perturbation {kind!r}")
    return graph_json(order, mult)


def setup_command() -> Command:
    return Command("construct mop 3", list(SETUP_ARGV))


def _epsilon_commands(name: str, graph: dict, recheck: str = "epsilon") -> List[Command]:
    return [
        Command(f"epsilon {name}", ["epsilon", "{input}"], graph=graph, recheck=recheck),
        Command(f"epsilon {name} --cap 1", ["epsilon", "{input}", "--cap", "1"], graph=graph,
                recheck="epsilon"),
    ]


def _union_commands(graph_seed: int) -> List[Command]:
    g = triangle_union(graph_seed)
    cmds = [Command(f"decompose union{graph_seed}", ["decompose", "{input}"], graph=g,
                    recheck="decompose")]
    for kind in PERTURBATIONS:
        cmds.append(Command(f"decompose union{graph_seed}-{kind}", ["decompose", "{input}"],
                            graph=perturb(g, graph_seed, kind)))
    return cmds


def _family_commands(spec: tuple) -> List[Command]:
    family, *params = spec
    name = " ".join(str(x) for x in spec)
    return [
        Command(f"construct {name}", ["construct", family] + [str(p) for p in params],
                recheck="envelope"),
        Command(f"verify {name}", ["verify", "{input}"], source=f"construct {name}",
                recheck="verify"),
    ]


def pool_units(workload: str) -> List[List[Command]]:
    """Every command golden.json holds for a workload, in recording order.

    A unit is a group of commands that stay together and in order: a graph
    with its variants, or a construct with its verify.
    """
    if workload == "epsilon-mix":
        units = [_epsilon_commands(f"fan{n}", fan_graph(n)) for n in FAN_ORDERS]
        units.append(_epsilon_commands("nine-vertex", NINE_VERTEX, recheck="nine-vertex"))
        units += [_epsilon_commands(f"random{s}", random_multigraph(s)) for s in range(EPS_POOL)]
        return units
    if workload == "class-sweep":
        return [[Command(f"sweep {kind} {n}", ["sweep", kind, str(n)])] for kind, n in SWEEPS]
    if workload == "certify":
        units = [_family_commands(spec) for spec in FAMILIES]
        units += [_union_commands(s) for s in range(UNION_POOL)]
        return units
    raise ValueError(f"unknown workload {workload!r}")


def fan_graph(n: int) -> dict:
    """The graph of ``construct fan n``: the n-cycle with chords 0-2 .. 0-(n-2)."""
    mult = {(i, i + 1): 1 for i in range(n - 1)}
    mult[(0, n - 1)] = 1
    for i in range(2, n - 1):
        mult[(0, i)] = 1
    return graph_json(n, mult)


def load_golden() -> Tuple[Dict[str, dict], Dict[str, float]]:
    """(finished commands: exit code, stdout digest, recorded seconds;
    unfinished commands: the time limit they ran into)."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["commands"], data["unfinished"]


def _stratified(units: List[List[Command]], golden: Dict[str, dict],
                unfinished: Dict[str, float], workload: str, strata: int,
                rng: random.Random) -> Tuple[List[List[Command]], List[List[Command]]]:
    """(one light unit drawn from each cost stratum, the known-timeout units)."""
    limit, draw_max = LIMIT_S[workload], DRAW_MAX_S[workload]
    fast, slow = [], []
    for unit in units:
        if all(c.key in golden for c in unit):
            times = [golden[c.key]["seconds"] for c in unit]
            if max(times) <= draw_max:
                fast.append((sum(times), unit[0].key, unit))
        elif all(c.key in golden or unfinished.get(c.key, 0.0) >= SLOW_FACTOR * limit
                 for c in unit):
            slow.append(unit)
    fast.sort(key=lambda t: (t[0], t[1]))
    picks = []
    for i in range(strata):
        lo, hi = i * len(fast) // strata, (i + 1) * len(fast) // strata
        picks.append(fast[rng.randrange(lo, hi)][2])
    return picks, slow


def build_corpus(workload: str, seed: int, golden: Dict[str, dict],
                 unfinished: Dict[str, float]) -> List[Command]:
    """The command list of one pass, a pure function of (workload, seed).

    ``unfinished`` maps the key of each pool command that did not finish
    when recorded to the time limit it was given.
    """
    rng = random.Random(f"{workload}/{seed}")
    units = pool_units(workload)
    if workload == "epsilon-mix":
        fixed, pool = units[: len(FAN_ORDERS) + 1], units[len(FAN_ORDERS) + 1:]
        picks, _slow = _stratified(pool, golden, unfinished, workload, EPS_DRAWS, rng)
        chosen = fixed + picks
    elif workload == "certify":
        fixed, pool = units[: len(FAMILIES)], units[len(FAMILIES):]
        picks, slow = _stratified(pool, golden, unfinished, workload, UNION_DRAWS, rng)
        chosen = fixed + picks + [rng.choice(slow)]
    else:
        chosen = units
    rng.shuffle(chosen)
    return [c for unit in chosen for c in unit]
