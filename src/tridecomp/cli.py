"""Command-line front end.

Exit codes: 0 success; 1 bad input, failed verification, or infeasible
request; 2 internal invariant breach; 3 problem too large for exact search.
All output is deterministic for a given command line.

Each subcommand imports the layers it runs when it runs, so that a process
answering one command loads only those: ``decompose`` loads ``decomposer``,
``epsilon`` and ``sweep`` load ``augment``, ``construct`` and ``verify``
load ``families`` and ``faces`` loads ``analysis``.  At module level there is
only what ``main`` itself needs, ``graph_core`` for the error classes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from . import graph_core

if TYPE_CHECKING:
    from .families import ConstructionResult

# Family name -> (name of its constructor in ``families``, parameter names).
# The constructor is looked up on the module when the command runs.
FAMILY_SPECS = {
    "mop": ("mop_construct", ("n",)),
    "sc2tree": ("sc2_tree_construct", ("n",)),
    "fan": ("fan", ("n",)),
    "intermediate": ("intermediate", ("n", "r")),
    "kop": ("kop_construct", ("m", "k")),
    "hmp": ("hmp_construct", ("n",)),
    "sc3": ("sc3_construct", ("n",)),
    "sf": ("sf_fixture", ("n",)),
}

_DOT_PALETTE = (
    "red",
    "blue",
    "forestgreen",
    "darkorange",
    "purple",
    "brown",
    "deeppink",
    "teal",
    "goldenrod",
    "navy",
    "crimson",
    "darkcyan",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tridecomp",
        description="Triangle decompositions of multigraphs with minimum "
        "added parallel copies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a stored family member")
    p.add_argument("family", choices=sorted(FAMILY_SPECS))
    p.add_argument("params", nargs="+", type=int, help="family parameters")
    p.add_argument("--out", choices=("json", "dot"), default="json")
    p.set_defaults(func=run_construct)

    p = sub.add_parser("epsilon", help="minimum added copies for a graph file")
    p.add_argument("file", help="graph JSON file")
    p.add_argument("--cap", type=int, default=None, help="max extra copies per edge")
    p.set_defaults(func=run_epsilon)

    p = sub.add_parser("decompose", help="search a graph file for a decomposition")
    p.add_argument("file", help="graph JSON file")
    p.set_defaults(func=run_decompose)

    p = sub.add_parser("verify", help="recheck a construct envelope from scratch")
    p.add_argument("file", help="envelope JSON file")
    p.set_defaults(func=run_verify)

    p = sub.add_parser("sweep", help="extremal added-copy count over triangulated cycles")
    p.add_argument("kind", choices=("epsilon", "xi"))
    p.add_argument("n", type=int)
    p.set_defaults(func=run_sweep)

    p = sub.add_parser("faces", help="trace the faces of a rotation system file")
    p.add_argument("file", help="rotation JSON file")
    p.set_defaults(func=run_faces)

    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise graph_core.DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise graph_core.DomainError(f"{path} is not valid JSON: {exc}") from exc


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def render_dot(result: ConstructionResult) -> str:
    """One edge line per certificate use, colored by certificate triangle."""
    lines = [f"graph {result.family} {{", "  node [shape=circle];"]
    for v in range(result.graph.order):
        lines.append(f"  {v};")
    for ti, t in enumerate(result.certificate.triangles):
        color = _DOT_PALETTE[ti % len(_DOT_PALETTE)]
        for e in t.edges():
            lines.append(f'  {e.u} -- {e.v} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_construct(args: argparse.Namespace) -> int:
    from . import families

    constructor, names = FAMILY_SPECS[args.family]
    if len(args.params) != len(names):
        print(
            f"error: {args.family} takes {len(names)} parameter(s) "
            f"({', '.join(names)}), got {len(args.params)}",
            file=sys.stderr,
        )
        return 1
    result = getattr(families, constructor)(*args.params)
    families.validate_construction(result)
    if args.out == "dot":
        sys.stdout.write(render_dot(result))
    else:
        _print_json(result.to_json_dict())
    return 0


def run_epsilon(args: argparse.Namespace) -> int:
    from . import augment

    g = graph_core.Multigraph.from_json_dict(_load_json(args.file))
    value, aug, cert = augment.epsilon_exact(g, args.cap)
    _print_json(
        {
            "epsilon": value,
            "augmentation": aug.to_json_list(),
            "certificate": cert.to_json_dict(),
        }
    )
    return 0


def run_decompose(args: argparse.Namespace) -> int:
    from . import decomposer

    g = graph_core.Multigraph.from_json_dict(_load_json(args.file))
    reject = decomposer.fast_reject(g)
    if reject is not None:
        _print_json({"decomposable": False, "reason": reject.to_json_dict()})
        return 0
    cert = decomposer.find_decomposition(g)
    if cert is None:
        _print_json({"decomposable": False, "reason": {"kind": "search_exhausted"}})
        return 0
    _print_json({"decomposable": True, "certificate": cert.to_json_dict()})
    return 0


def run_verify(args: argparse.Namespace) -> int:
    from . import families

    data = _load_json(args.file)
    checks = families.verify_construction(families.ConstructionResult.from_json_dict(data))
    for ok, message in checks:
        print(message if ok is None else f"{'ok' if ok else 'fail'}: {message}")
    failures = sum(ok is False for ok, _ in checks)
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    return 0


def run_sweep(args: argparse.Namespace) -> int:
    from . import augment

    env = os.environ.get("TRIDECOMP_SWEEP_CEILING")
    if env is None:
        ceiling = augment.DEFAULT_SWEEP_CEILING
    else:
        try:
            ceiling = int(env)
        except ValueError:
            raise graph_core.DomainError(
                f"TRIDECOMP_SWEEP_CEILING must be an integer, got {env!r}"
            ) from None
    if args.kind == "epsilon":
        value, witness = augment.epsilon_class_exact(args.n, ceiling)
    else:
        value, witness = augment.xi_class_exact(args.n, ceiling)
    _print_json(
        {
            "kind": args.kind,
            "n": args.n,
            "value": value,
            "witness": witness.to_json_dict(),
        }
    )
    return 0


def run_faces(args: argparse.Namespace) -> int:
    from . import analysis

    rotation = analysis.RotationSystem.from_json_dict(_load_json(args.file))
    trace = analysis.trace_faces(rotation)
    _print_json(trace.to_json_dict())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except graph_core.ScaleLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except graph_core.InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except graph_core.TridecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
