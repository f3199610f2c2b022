"""The construction envelope and the one verifier of constructions.

ConstructionResult bundles a family member: the base graph, the parallel
copies to add, a triangle certificate for the augmented graph, the claimed
augmentation count and the structure field of its family.
ConstructionResult.to_json_dict writes the JSON that ``construct`` prints
and from_json_dict reads it back.  verify_construction rechecks a result
from scratch as an ordered list of (ok, message) lines: first the count,
residue and coverage lines of ``graph_core._answer_checks``, then the
structure checks of its family.

The constructors live in ``families`` and the search in ``decomposer``;
``verify`` loads neither, only this module over ``graph_core``.
``analysis`` is imported inside the structure checks that use it and when a
rotation system is read, so verifying a family without them never compiles
it.  The core checks, coverage and the structure predicates are called
through their module objects, so a rebound module attribute (a test
double, a tracing wrapper) is the one that runs.
"""

from __future__ import annotations

from collections import namedtuple

from . import graph_core
from .graph_core import (
    Augmentation,
    Decomposition,
    DomainError,
    Multigraph,
    _check,
    _json_rows,
    _shown,
    edge,
)

# One verifier line: True "ok", False "fail", None informational.
Check = tuple[bool | None, str]

_CYCLE_FAMILIES = ("mop", "fan", "intermediate", "sc2tree", "sc2seed")


class ConstructionResult(
    namedtuple(
        "ConstructionResult",
        "family parameters graph augmentation certificate claimed_epsilon"
        " outer_cycle faces rotation",
        defaults=(None, None, None),
    )
):
    """A constructed graph together with its decomposability witness data.

    Fields: family (str), parameters (name -> int), graph (Multigraph),
    augmentation (Augmentation), certificate (Decomposition), claimed_epsilon
    (int), and the optional structure fields outer_cycle (vertex tuple),
    faces (Triangle tuple) and rotation (RotationSystem).
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The envelope that construct prints; absent structure fields are left out."""
        out = {
            "family": self.family,
            "parameters": dict(self.parameters),
            "epsilon": self.claimed_epsilon,
            "graph": self.graph.to_json_dict(),
            "augmentation": self.augmentation.to_json_list(),
            "certificate": self.certificate.to_json_dict(),
        }
        if self.outer_cycle is not None:
            out["outer_cycle"] = list(self.outer_cycle)
        if self.faces is not None:
            out["faces"] = [list(t) for t in self.faces]
        if self.rotation is not None:
            out["rotation"] = self.rotation.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstructionResult":
        """Read an envelope back; DomainError on a missing or malformed field."""
        if not isinstance(data, dict):
            raise DomainError("envelope JSON must be an object")
        for key in ("family", "epsilon", "graph", "augmentation", "certificate"):
            if key not in data:
                raise DomainError(f"envelope is missing the '{key}' field")
        graph = Multigraph.from_json_dict(data["graph"])
        augmentation = Augmentation.from_json_list(data["augmentation"])
        certificate = Decomposition.from_json_dict(data["certificate"])
        family, eps, params = data["family"], data["epsilon"], data.get("parameters", {})
        outer, faces, rotation = (data.get(k) for k in ("outer_cycle", "faces", "rotation"))
        if not isinstance(family, str):
            raise DomainError(f"'family' must be a string, got {_shown(family)}")
        if type(eps) is not int:
            raise DomainError(f"'epsilon' must be an integer, got {_shown(eps)}")
        if not isinstance(params, dict):
            raise DomainError(f"'parameters' must map names to integers, got {_shown(params)}")
        _json_rows(list(params.values()), None, "'parameters' values")
        if rotation is not None:
            from .analysis import RotationSystem

            rotation = RotationSystem.from_json_dict(rotation)
        return cls(
            family, params, graph, augmentation, certificate, eps,
            outer_cycle=None if outer is None else tuple(_json_rows(outer, None, "'outer_cycle'")),
            faces=None if faces is None else graph_core._triangles_from_json(faces, "'faces'"),
            rotation=rotation,
        )


def _hmp_cycle(n: int) -> list[int] | None:
    """The Hamiltonian cycle that ``hmp_construct(n)`` builds, or None if it builds none.

    The cycle runs 0, 1, ..., n - 3 with the apexes n - 2 and n - 1 spliced
    in: after 0 and at the end for even n, around 3 for odd n.
    """
    if n < 6 or n == 7:
        return None
    if n % 2 == 0:
        return [0, n - 2, *range(1, n - 2), n - 1]
    return [0, 1, 2, n - 2, 3, n - 1, *range(4, n - 2)]


def verify_construction(result: ConstructionResult) -> list[Check]:
    """Recheck a construction from scratch: the core checks, then its family's.

    A structure field that the checks cannot use, such as an outer cycle
    that is not a permutation of the vertices, raises DomainError.
    """
    g, family = result.graph, result.family
    checks = graph_core._answer_checks(result.graph, result.augmentation, result.certificate,
                                       result.claimed_epsilon)
    if family in _CYCLE_FAMILIES:
        if result.outer_cycle is None:
            checks.append((False, "triangulated-cycle envelope has no outer cycle"))
        else:
            from . import analysis

            checks.append(_check(analysis.is_maximal_outerplanar(g, result.outer_cycle),
                                 "maximal outerplanar on the given outer cycle",
                                 "not maximal outerplanar on the given outer cycle"))
    elif family == "hmp":
        from . import analysis

        if result.faces is None:
            checks.append((False, "triangulation envelope has no face list"))
        else:
            doubled = Multigraph(g.order, {e: 2 for e in g.edges()})
            chi = g.order - g.size() + len(result.faces)
            checks += [
                _check(graph_core.coverage_error(doubled, Decomposition(result.faces)) is None,
                       "every edge lies on exactly two faces",
                       "face list does not cover every edge exactly twice"),
                _check(chi == 2, "V - E + F = 2", f"V - E + F = {chi}, expected 2"),
            ]
        cycle = _hmp_cycle(g.order)
        if cycle is None:
            checks.append((False, f"no hmp member has order {g.order}"))
        else:
            gap = next((p for p in zip(cycle, cycle[1:] + cycle[:1])
                        if not g.has_edge(edge(*p))), None)
            checks.append(_check(gap is None, "hamiltonian cycle found",
                                 f"hamiltonian cycle edge {gap} missing"))
        checks.append(_check(analysis.is_eulerian(g), "all degrees even and the graph is connected",
                             "graph is not eulerian"))
    elif family == "sf":
        if result.rotation is None:
            checks.append((False, "fixture envelope has no rotation system"))
        else:
            from . import analysis

            trace = analysis.trace_faces(result.rotation)
            rotation_edges = {edge(v, u) for v, rot in enumerate(result.rotation.rotations)
                              for u, _c in rot}
            checks += [
                (None, f"genus: {trace.genus}"),
                _check(trace.genus == 1, "rotation system embeds the graph on the torus",
                       f"rotation system has genus {trace.genus}, expected 1"),
                _check(any(set(face) == set(range(g.order)) for face in trace.faces),
                       "one face visits every vertex", "no face visits every vertex"),
                _check(rotation_edges == set(g.edges()),
                       "rotation system covers exactly the graph edges",
                       "rotation system edges differ from the graph edges"),
            ]
    elif family == "kop":
        m, k = result.parameters.get("m"), result.parameters.get("k")
        if not (isinstance(m, int) and isinstance(k, int) and m >= 3 and k >= 1
                and m * k == g.order):
            checks.append((False, "layered envelope has no usable m, k parameters"))
        else:
            ring = ((j * m + i, j * m + (i + 1) % m) for j in range(k) for i in range(m))
            gap = next((p for p in ring if not g.has_edge(edge(*p))), None)
            checks.append(_check(gap is None, f"all {k} layer rings present",
                                 f"ring edge {gap} missing"))
    return checks
