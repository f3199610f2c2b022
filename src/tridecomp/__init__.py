"""Triangle decompositions of multigraphs with minimum added parallel copies.

The package constructs graph families that need a known number of added
parallel copies to become triangle decomposable, emits machine-checkable
certificates, and verifies minimality with an exact search.

Every public name is re-exported here but loaded on first use: ``_EXPORTS``
maps each name to the module that defines it, and the module-level
``__getattr__`` (PEP 562) imports that module when the name is asked for.
So ``import tridecomp`` loads no layer, and a program that uses only the
solver never loads the families or the analysis code.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "ConstructionResult": "analysis",
    "FaceTrace": "analysis",
    "RotationSystem": "analysis",
    "is_eulerian": "analysis",
    "is_maximal_outerplanar": "analysis",
    "trace_faces": "analysis",
    "verify_construction": "analysis",
    "epsilon_exact": "augment",
    "enumerate_triangles": "decomposer",
    "find_decomposition": "decomposer",
    "enumerate_mops": "families",
    "epsilon_class_exact": "families",
    "fan": "families",
    "hmp_construct": "families",
    "intermediate": "families",
    "kop_construct": "families",
    "mop_construct": "families",
    "sc2_tree_construct": "families",
    "sc3_construct": "families",
    "sf_fixture": "families",
    "validate_construction": "families",
    "xi_class_exact": "families",
    "AugmentNonAdjacent": "graph_core",
    "Augmentation": "graph_core",
    "CapInfeasible": "graph_core",
    "ConstructionUnavailable": "graph_core",
    "Decomposition": "graph_core",
    "DomainError": "graph_core",
    "EdgeKey": "graph_core",
    "EdgeNotOnTriangle": "graph_core",
    "InvariantViolation": "graph_core",
    "Multigraph": "graph_core",
    "NotAFixture": "graph_core",
    "ORDER_LIMIT": "graph_core",
    "RejectReason": "graph_core",
    "STEP_LIMIT": "graph_core",
    "ScaleLimit": "graph_core",
    "Triangle": "graph_core",
    "TridecompError": "graph_core",
    "apply_augmentation": "graph_core",
    "coverage_error": "graph_core",
    "degree_sequence": "graph_core",
    "edge": "graph_core",
    "fast_reject": "graph_core",
    "triangle": "graph_core",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Looked up on every access, never cached here, so that a rebound module
    # attribute (a test double, a tracing wrapper) is what the root returns.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
