"""Command-line front end.

Exit codes: 0 success; 1 bad input, failed verification, infeasible request,
or output that cannot be written; 2 internal invariant breach; 3 problem too
large for exact search.
All output is deterministic for a given command line.

``COMMANDS`` is the whole grammar: ``parse_args`` walks it, and the usage,
help and usage errors are printed from it.  Each subcommand imports only the
layers it runs, when it runs; at module level there is only ``graph_core``.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import graph_core

TYPE_CHECKING = False  # true only to a type checker; spares importing ``typing``
if TYPE_CHECKING:
    from .envelope import ConstructionResult

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

_FILE = ("file", str, None)

# Subcommand -> (help line, positionals, options), run by run_<subcommand>.
# A positional is (name, converter, choices or None); one named "x..." takes
# every value left, at least one.  Options map --name to (converter, choices, default).
COMMANDS = {
    "construct": ("emit a stored family member",
                  (("family", str, tuple(sorted(FAMILY_SPECS))), ("params...", int, None)),
                  {"out": (str, ("json", "dot"), "json")}),
    "epsilon": ("minimum added copies for a graph file", (_FILE,), {"cap": (int, None, None)}),
    "decompose": ("search a graph file for a decomposition", (_FILE,), {}),
    "verify": ("recheck a construct envelope from scratch", (_FILE,), {}),
    "sweep": ("extremal added-copy count over triangulated cycles",
              (("kind", str, ("epsilon", "xi")), ("n", int, None)), {}),
    "faces": ("trace the faces of a rotation system file", (_FILE,), {}),
}

_DESCRIPTION = "Triangle decompositions of multigraphs with minimum added parallel copies."

_DOT_PALETTE = ("red", "blue", "forestgreen", "darkorange", "purple", "brown", "deeppink",
                "teal", "goldenrod", "navy", "crimson", "darkcyan")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: tridecomp [-h] {{{','.join(COMMANDS)}}} ..."
    _, positionals, options = COMMANDS[command]
    words = [f"usage: tridecomp {command} [-h]"]
    words += ("{" + ",".join(c) + "}" if c else name for name, _, c in positionals)
    words += (f"[--{name} " + ("{" + ",".join(c) + "}" if c else name.upper()) + "]"
              for name, (_, c, _) in options.items())
    return " ".join(words)


def _exit(command: str | None, error: str | None = None):
    """Help on stdout and exit 0, or with an error, usage and error on stderr and exit 1."""
    if error is not None:
        print(f"{_usage(command)}\ntridecomp: error: {error}", file=sys.stderr)
        raise SystemExit(1)
    lines = [_usage(command), "", COMMANDS[command][0] if command else _DESCRIPTION]
    if command is None:
        lines += ["", "commands:"] + [f"  {name:<10} {spec[0]}" for name, spec in COMMANDS.items()]
    print("\n".join(lines))
    raise SystemExit(0)


def _convert(command: str, name: str, word: str, convert, choices):
    try:
        value = convert(word)
    except ValueError:  # int() also refuses a literal over the digit limit
        _exit(command, f"argument {name}: invalid {convert.__name__} value: {word!r}")
    if choices is not None and value not in choices:
        _exit(command, f"argument {name}: invalid choice: {word!r} (choose {'|'.join(choices)})")
    return value


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace run_<command> reads; help and usage errors raise SystemExit.

    Options go anywhere after the subcommand, as ``--cap 1`` or ``--cap=1``.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _exit(None)
    if command not in COMMANDS:
        _exit(None, f"unknown subcommand {command!r}" if argv else "a subcommand is required")
    _, positionals, options = COMMANDS[command]
    values = {name: default for name, (_, _, default) in options.items()}
    given, words = [], iter(argv[1:])
    for word in words:
        name, eq, value = word[2:].partition("=")
        if word in ("-h", "--help"):
            _exit(command)
        elif not word.startswith("-") or word[1:].isdigit():  # as in argparse, "-5" is a value
            given.append(word)
        elif not word.startswith("--") or name not in options:
            _exit(command, f"unrecognized arguments: {word}")
        else:
            value = value if eq else next(words, None)
            if value is None:
                _exit(command, f"argument --{name}: expected one argument")
            values[name] = _convert(command, f"--{name}", value, *options[name][:2])
    for name, convert, choices in positionals:
        rest = name.endswith("...")
        taken, given = (given, []) if rest else (given[:1], given[1:])
        name = name.rstrip(".")
        if not taken:
            _exit(command, f"the following arguments are required: {name}")
        taken = [_convert(command, name, word, convert, choices) for word in taken]
        values[name] = taken if rest else taken[0]
    if given:
        _exit(command, f"unrecognized arguments: {' '.join(given)}")
    return SimpleNamespace(command=command, **values)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise graph_core.DomainError(f"cannot read {path}: {exc}") from exc
    # ValueError covers bad syntax, bytes that are not UTF-8 and an integer
    # literal over the digit limit; RecursionError, nesting too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise graph_core.DomainError(f"{path} is not valid JSON: {exc}") from exc


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, indent=2) writes it at this indent.

    json.dumps with an indent runs json's pure-Python encoder, one call per
    value.  Here a list of ints, or of int lists of one length, is one row
    template filled from a flat tuple; strings, bools, None and other
    scalars go through json's own encoders.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not isinstance(value, (dict, list, tuple)):
        return str(value) if type(value) is int else json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        items = (f"{encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_json_text(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    head = value[0]
    width = len(head) if isinstance(head, (list, tuple)) else 0
    flat = [x for row in value if isinstance(row, (list, tuple)) and len(row) == width
            for x in row] if width else value
    if len(flat) == len(value) * max(width, 1) and set(map(type, flat)) == {int}:
        row = "%d"
        if width:
            deeper = inner + "  "
            row = f"[\n{deeper}" + f",\n{deeper}".join(["%d"] * width) + f"\n{inner}]"
        body = f",\n{inner}".join([row] * len(value)) % tuple(flat)
    else:
        body = f",\n{inner}".join(_json_text(v, inner) for v in value)
    return f"[\n{inner}{body}\n{indent}]"


def _print_json(payload: dict) -> None:
    """Write exactly the bytes of print(json.dumps(payload, indent=2))."""
    sys.stdout.write(_json_text(payload, "") + "\n")


def render_dot(result: ConstructionResult) -> str:
    """One edge line per certificate use, colored by certificate triangle."""
    lines = [f"graph {result.family} {{", "  node [shape=circle];"]
    lines += (f"  {v};" for v in range(result.graph.order))
    for ti, t in enumerate(result.certificate):
        color = _DOT_PALETTE[ti % len(_DOT_PALETTE)]
        for e in t.edges():
            lines.append(f'  {e.u} -- {e.v} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_construct(args: SimpleNamespace) -> int:
    from . import families

    constructor, names = FAMILY_SPECS[args.family]
    if len(args.params) != len(names):
        raise graph_core.DomainError(f"{args.family} takes {len(names)} parameter(s) "
                                     f"({', '.join(names)}), got {len(args.params)}")
    result = getattr(families, constructor)(*args.params)
    families.validate_construction(result)
    if args.out == "dot":
        sys.stdout.write(render_dot(result))
    else:
        _print_json(result.to_json_dict())
    return 0


def run_epsilon(args: SimpleNamespace) -> int:
    from . import augment

    g = graph_core.Multigraph.from_json_dict(_load_json(args.file))
    value, aug, cert = augment.epsilon_exact(g, args.cap)
    graph_core._recheck(g, aug, cert, value)
    _print_json({"epsilon": value, "augmentation": aug.to_json_list(),
                 "certificate": cert.to_json_dict()})
    return 0


def run_decompose(args: SimpleNamespace) -> int:
    g = graph_core.Multigraph.from_json_dict(_load_json(args.file))
    reject = graph_core.fast_reject(g)
    cert = None
    if reject is None:  # only a graph that passes the screen loads the search
        from . import decomposer

        cert = decomposer._exact_cover(g)
    if cert is not None:
        graph_core._recheck(g, graph_core.Augmentation(()), cert, 0)
        _print_json({"decomposable": True, "certificate": cert.to_json_dict()})
    else:
        reason = {"kind": "search_exhausted"} if reject is None else reject.to_json_dict()
        _print_json({"decomposable": False, "reason": reason})
    return 0


def run_verify(args: SimpleNamespace) -> int:
    from . import envelope

    data = _load_json(args.file)
    checks = envelope.verify_construction(envelope.ConstructionResult.from_json_dict(data))
    for ok, message in checks:
        print(message if ok is None else f"{'ok' if ok else 'fail'}: {message}")
    failures = sum(ok is False for ok, _ in checks)
    if failures:
        print(f"{failures} check(s) failed")
    return 1 if failures else 0


def run_sweep(args: SimpleNamespace) -> int:
    from . import sweep

    extremum = sweep.epsilon_class_exact if args.kind == "epsilon" else sweep.xi_class_exact
    value, witness = extremum(args.n)
    _print_json({"kind": args.kind, "n": args.n, "value": value,
                 "witness": witness.to_json_dict()})
    return 0


def run_faces(args: SimpleNamespace) -> int:
    from . import analysis

    rotation = analysis.RotationSystem.from_json_dict(_load_json(args.file))
    _print_json(analysis.trace_faces(rotation).to_json_dict())
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        return globals()[f"run_{args.command}"](args)
    except graph_core.InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except graph_core.TridecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, graph_core.ScaleLimit) else 1


class _ClosedOutput:
    """sys.stdout when descriptor 1 was closed at start-up: every write fails."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, "standard output was closed at start-up")

    def flush(self) -> None:
        pass


def console_main() -> None:
    """Entry point of ``python -m tridecomp`` and of the ``tridecomp`` script.

    After main() returns, stdout and stderr are flushed and the process ends
    with os._exit, skipping interpreter teardown: atexit handlers and
    finalizers do not run.  Callers of main() are unaffected.  An OSError
    from main() or from the flush can only come from writing the output
    (``_load_json`` turns read errors into DomainError): it becomes one
    ``error: cannot write output`` line on stderr and exit 1, silently if
    stderr cannot be written either.  Where stdout was closed at start-up,
    its first write raises such an OSError; a command that writes nothing
    there keeps its exit code.  Any other exception ends the process as
    usual.
    """
    if sys.stdout is None:
        sys.stdout = _ClosedOutput()
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None where the descriptor was closed at start-up
                stream.flush()
    except OSError as exc:
        code = 1
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
    os._exit(code)
