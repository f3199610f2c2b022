"""Record golden.json: the exit code and stdout digest of every pool command.

    python3 perfbench/record_golden.py

Run from the repository root, once, at the commit whose outputs define
correct.  Each command runs in process with a limit of SLOW_FACTOR times
its workload's limit; the time it took is kept, because the corpus draws
pool members by it.  A command that hits the limit is listed as
unfinished; one that crashes is listed nowhere and is rechecked when run.
Re-recording replaces the reference every later run is checked against,
so do it only for a deliberate change of output.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys

import check
import corpus
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workdir = run.HERE / "work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    commands, unfinished = {}, {}
    try:
        for workload in corpus.WORKLOADS:
            limit = corpus.SLOW_FACTOR * corpus.LIMIT_S[workload]
            units = corpus.pool_units(workload)
            if workload == corpus.WORKLOADS[0]:
                units.insert(0, [corpus.setup_command()])
            for unit in units:
                for row in run.run_pass(unit, run.run_in_process, limit, {}, workdir).rows:
                    if row["status"] == check.TIMEOUT:
                        unfinished[row["key"]] = limit
                        note = f"unfinished after {limit:g} s"
                    elif row["status"] in (check.CRASH, check.SKIPPED):
                        note = f"{row['status']}: {row['detail']}"
                    else:
                        commands[row["key"]] = {k: row[k] for k in ("exit", "bytes", "sha256")}
                        commands[row["key"]]["seconds"] = round(row["seconds"], 4)
                        note = f"exit {row['exit']} in {row['seconds']:.3f} s"
                    print(f"{row['key']}: {note}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = {
        "python": platform.python_version(),
        "source_sha256": run.source_digest(),
        "commit": run.git_commit(),
        "commands": commands,
        "unfinished": unfinished,
    }
    corpus.GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
