"""Correctness of one command's result, decided without tridecomp's own checkers.

A command whose output was recorded in ``golden.json`` must exit with the
recorded code and print the recorded stdout bytes.  A command with no
recorded output (it did not finish at the recording commit) is rechecked
here from first principles instead: the printed certificate, with the
printed augmentation, must cover the graph edge by edge exactly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from corpus import NINE_VERTEX_EPSILON, Command

# Outcome statuses.  Everything but OK counts as a failed command.
OK = "ok"
TIMEOUT = "timeout"  # hit the per-command time limit
CRASH = "crash"  # ended with a Python traceback
EXIT = "exit"  # exit code other than the expected one
WRONG = "wrong"  # stdout failed the correctness check
SKIPPED = "skipped"  # its input was the output of a command that failed


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cover_defect(graph: dict, additions: List[list], triangles: List[list]) -> Optional[str]:
    """Why triangles do not cover graph plus additions exactly, or None."""
    need: Dict[Tuple[int, int], int] = {}
    for u, v, m in graph["edges"]:
        need[(min(u, v), max(u, v))] = m
    for u, v in additions:
        e = (min(u, v), max(u, v))
        if e not in need:
            return f"augmentation adds absent edge {e}"
        need[e] += 1
    for tri in triangles:
        if len(tri) != 3 or len(set(tri)) != 3:
            return f"bad triangle {tri}"
        a, b, c = sorted(tri)
        for e in ((a, b), (a, c), (b, c)):
            if need.get(e, 0) <= 0:
                return f"edge {e} overcovered or absent"
            need[e] -= 1
    left = sorted(e for e, m in need.items() if m)
    return f"edge {left[0]} undercovered" if left else None


def recheck(kind: str, stdout: bytes, graph: Optional[dict]) -> Optional[str]:
    """The benchmark's own check of a command's stdout; None if it passes."""
    try:
        if kind == "verify":
            lines = stdout.decode().splitlines()
            bad = [ln for ln in lines if not ln.startswith(("ok: ", "genus: "))]
            return f"verify printed {bad[0]!r}" if bad else (None if lines else "no output")
        data = json.loads(stdout)
        if kind in ("epsilon", "nine-vertex"):
            if len(data["augmentation"]) != data["epsilon"]:
                return "augmentation size differs from epsilon"
            if kind == "nine-vertex" and data["epsilon"] != NINE_VERTEX_EPSILON:
                return f"epsilon {data['epsilon']}, expected {NINE_VERTEX_EPSILON}"
            return cover_defect(graph, data["augmentation"], data["certificate"]["triangles"])
        if kind == "decompose":
            if data.get("decomposable") is not True:
                return "a union of triangles reported not decomposable"
            return cover_defect(graph, [], data["certificate"]["triangles"])
        if kind == "envelope":
            if len(data["augmentation"]) != data["epsilon"]:
                return "augmentation size differs from epsilon"
            return cover_defect(data["graph"], data["augmentation"],
                                data["certificate"]["triangles"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return f"no recheck named {kind!r}"


def classify(cmd: Command, golden: Optional[dict], returncode: Optional[int],
             stdout: bytes, stderr: bytes, timed_out: bool) -> Tuple[str, str]:
    """(status, detail) of one finished or timed-out command."""
    if timed_out:
        return TIMEOUT, "hit the time limit"
    if b"Traceback (most recent call last)" in stderr:
        return CRASH, stderr.decode(errors="replace").strip().splitlines()[-1]
    expected_exit = golden["exit"] if golden else 0
    if returncode != expected_exit:
        return EXIT, f"exit {returncode}, expected {expected_exit}"
    if golden:
        if len(stdout) != golden["bytes"] or digest(stdout) != golden["sha256"]:
            return WRONG, "stdout differs from the golden output"
        return OK, ""
    problem = recheck(cmd.recheck, stdout, cmd.graph) if cmd.recheck else "no golden output"
    return (WRONG, problem) if problem else (OK, "")
