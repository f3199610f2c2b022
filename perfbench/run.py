"""End-to-end and per-layer benchmark of the tridecomp command line.

    python3 perfbench/run.py --workload epsilon-mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client sends one command at a time and
waits for it (a closed loop).  With ``--trace 0`` every command is a
``python -m tridecomp`` child process and the end-to-end metrics are
reported; with ``--trace 1`` the same corpus runs in this process through
``tridecomp.cli.main``, once plainly and once with spans around every
public function, and the per-layer metrics are reported.  Every command's
output is checked (see check.py).  The full record goes to
``perfbench/results/BENCH_<workload>_seed<seed>_trace<trace>.json``; the last
line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import check
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# construct mop 3 runs this many times per run, spread evenly between the
# corpus commands so that the samples span the whole run; setup_s is their
# median.
SETUP_SAMPLES = 15

# A tail percentile is reported only where this many samples lie beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "in_time_share": "ratio",
    "setup_s": "s",
}

# (returncode or None, stdout, stderr, seconds, timed out)
Result = Tuple[Optional[int], bytes, bytes, float, bool]


class CommandTimeout(BaseException):
    """Raised by SIGALRM in an in-process command; BaseException so that no
    ``except Exception`` in the program under test can swallow it."""


def run_child(argv: List[str], limit: float) -> Result:
    """One ``python -m tridecomp`` child; killed and reaped at the limit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "tridecomp", *argv], capture_output=True,
                              timeout=limit, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or b"", exc.stderr or b"", time.perf_counter() - start, True
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start, False


def _alarm(_signum, _frame):
    raise CommandTimeout()


def run_in_process(argv: List[str], limit: float) -> Result:
    """``tridecomp.cli.main(argv)`` in this process, stopped by SIGALRM at the limit."""
    from tridecomp import cli

    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    timed_out = False
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CommandTimeout:
        timed_out = True
    except Exception:  # the command crashed; record it as a child would print it
        err.write(traceback.format_exc())
        code = 1
    seconds = time.perf_counter() - start
    signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue().encode(), err.getvalue().encode(), seconds, timed_out


class Pass:
    """Outcomes of one pass over a command list.

    ``wall_s`` sums the wall time of the commands themselves, leaving out
    the benchmark's own work between them (input files, output checks).
    """

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self.wall_s = 0.0
        self.stdout_bytes = 0


def run_pass(commands: List[corpus.Command], runner: Callable[[List[str], float], Result],
             limit: float, golden: Dict[str, dict], workdir: Path,
             before: Optional[Callable[[], None]] = None) -> Pass:
    """Run commands in order; ``before`` is called ahead of each one."""
    result = Pass()
    envelopes: Dict[str, bytes] = {}
    for i, cmd in enumerate(commands):
        if before is not None:
            before()
        path = workdir / f"input{i}.json"
        if cmd.source is not None:
            if cmd.source not in envelopes:
                result.rows.append({"key": cmd.key, "status": check.SKIPPED, "seconds": None,
                                    "detail": f"{cmd.source} failed"})
                continue
            path.write_bytes(envelopes[cmd.source])
        elif cmd.graph is not None:
            path.write_text(json.dumps(cmd.graph), encoding="utf-8")
        argv = [str(path) if a == "{input}" else a for a in cmd.argv]
        code, out, err, seconds, timed_out = runner(argv, limit)
        status, detail = check.classify(cmd, golden.get(cmd.key), code, out, err, timed_out)
        if status == check.OK and cmd.key.startswith("construct "):
            envelopes[cmd.key] = out
        result.wall_s += seconds
        result.stdout_bytes += len(out)
        result.rows.append({"key": cmd.key, "status": status, "seconds": seconds,
                            "detail": detail, "exit": code, "bytes": len(out),
                            "sha256": check.digest(out)})
    return result


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum and percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tally(rows: List[dict]) -> Dict[str, int]:
    counts = {"attempted": len(rows), "failed": 0, "timeouts": 0, "wrong": 0}
    for row in rows:
        if row["status"] != check.OK:
            counts["failed"] += 1
        if row["status"] == check.TIMEOUT:
            counts["timeouts"] += 1
        if row["status"] == check.WRONG:
            counts["wrong"] += 1
    return counts


def end_to_end(passes: List[Pass], setup: Pass) -> Tuple[Dict[str, float], dict]:
    samples = [r["seconds"] for p in passes for r in p.rows if r["seconds"] is not None]
    tail_value, tail_pct = tail(samples)
    counts = tally([r for p in passes + [setup] for r in p.rows])
    fail_share = counts["failed"] / counts["attempted"]
    timeout_share = counts["timeouts"] / counts["attempted"]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cmd_p50_s": statistics.median(samples),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_share": 1.0 - fail_share,
        "in_time_share": 1.0 - timeout_share,
        "setup_s": statistics.median(r["seconds"] for r in setup.rows),
    }
    extra = {
        "fail_share": fail_share,
        "timeout_share": timeout_share,
        "cmd_tail_percentile": tail_pct,
        "cmd_samples": len(samples),
        "cmd_tail_samples_beyond": sum(x > tail_value for x in samples),
        "setup_samples": len(setup.rows),
        "counts": counts,
    }
    return metrics, extra


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tridecomp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="BENCH json path")
    args = parser.parse_args(argv)

    if not (SRC / "tridecomp" / "cli.py").is_file():
        print(f"error: no tridecomp sources under {SRC}", file=sys.stderr)
        return 2
    golden, unfinished = corpus.load_golden()
    commands = corpus.build_corpus(args.workload, args.seed, golden, unfinished)
    limit = corpus.LIMIT_S[args.workload]
    passes = max(1, int(args.seconds // corpus.PASS_S[args.workload]))
    out_path = args.out or HERE / "results" / (
        f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "command_limit_s": limit,
        "passes": passes if args.trace == 0 else 1,
        "commands": [c.key for c in commands],
    }

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace == 0:
            setup = Pass()
            total = passes * len(commands)
            due = [k * total // SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
            position = itertools.count()

            def setup_probe() -> None:
                for _ in range(due.count(next(position))):
                    setup.rows += run_pass([corpus.setup_command()], run_child, limit, golden,
                                           workdir).rows

            runs = [run_pass(commands, run_child, limit, golden, workdir, setup_probe)
                    for _ in range(passes)]
            values, extra = end_to_end(runs, setup)
            units = END_TO_END_UNITS
            rows = [r for p in [setup] + runs for r in p.rows]
            record.update(extra)
            record["pass_wall_s"] = [p.wall_s for p in runs]
        else:
            import tracer

            sys.path.insert(0, str(SRC))
            plain = run_pass(commands, run_in_process, limit, golden, workdir)
            spans = tracer.Tracer()
            spans.install()
            try:
                traced = run_pass(commands, run_in_process, limit, golden, workdir)
            finally:
                spans.uninstall()
            table = tracer.per_layer(spans, traced.wall_s, plain.wall_s, traced.stdout_bytes)
            values = {name: v for name, (v, _u) in table.items()}
            units = {name: u for name, (_v, u) in table.items()}
            rows = plain.rows + traced.rows
            record["untraced_wall_s"] = plain.wall_s
            record["traced_wall_s"] = traced.wall_s
            record["span_names"] = spans.names
            record["spans"] = [[s[0], round(s[1] - spans.spans[0][1], 7),
                                round(s[2] - spans.spans[0][1], 7), s[3]]
                               for s in spans.spans] if spans.spans else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = tally(rows)
    record["rows"] = rows
    record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    for name in units:
        print(f"{name:40s} {values[name]:14.6g} {units[name]}", file=sys.stderr)
    for row in rows:
        if row["status"] != check.OK:
            print(f"failed: {row['key']}: {row['status']} {row['detail']}", file=sys.stderr)
    summary = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
