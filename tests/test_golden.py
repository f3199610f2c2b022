"""The benchmark corpora, run in process against their recorded outputs.

``perfbench/golden.json`` holds the exit code and stdout digest of every
benchmark command that finished when it was recorded.  A benchmark run
draws only some of them, so here every command of a fully recorded unit
runs once.  The deep searches the file has no bytes for are pinned below,
with the number of triangles their cover searches choose, so a change to
the search tree shows even where the certificate stays the same, and so
is the search work of each workload's seed-1 pass.  The benchmark's
tracer must see the verifier and the predicates it calls.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from tridecomp.decomposer import CoverInstance
from tridecomp.families import hmp_construct

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

RECORDED = {"epsilon-mix": 198, "class-sweep": 4, "certify": 384}

# Per workload, the work of its seed-1 pass summed over the commands: solve
# calls, triangles chosen, set-up reads and triangles listed by the cover
# instances that were solved; then the status of each row, tallied.
WORK = {
    "epsilon-mix": ((441, 20445, 13520, 850), {check.OK: 56}),
    "class-sweep": ((1573, 173, 33313, 15155), {check.OK: 4}),
    "certify": ((11, 77794, 3052, 2054), {check.OK: 54}),
}

# key: (stdout bytes, stdout sha256, triangles chosen by the command's cover
# searches).  Exit code 0 for each.
PINNED = {
    "decompose union7": (
        2650, "bea4a48cad9c1c0b6e7badaa85197ec01f0390ead4ed80583bbd3df6ef231f14", 92208),
    "decompose union19": (
        2801, "c761c15a7bdaecae033d19cfa3979f6634a86909566b6850524e93ee1d4ee9db", 17882),
    "decompose union39": (
        2860, "ec8a704ed6ea52b5edc2a70a2cf80ccb78a60686cd18af382111567baeef1aeb", 75525),
    "decompose union53": (
        2852, "b3696b3aaa6ae58c2a79635936dc4fde892fd5d006ec5ea95e8f08d3132eebc4", 22110),
    "construct hmp 1000": (
        302511, "535b41a03147917c3665adad746b5251724f4ccfba45d741e289118465e761a1", 0),
    "verify hmp 1000": (
        258, "cc00707d772da700a8d398da562ca85a06f70f3442d09e310f0c5bb12730b470", 0),
    "decompose hmp 1000 graph": (
        54745, "698ce4b79b222a466e99e2fa257bc1097ae8883719b0d6ea5309045c84d00e52", 998),
    "epsilon nine-vertex": (
        1623, "97394c5679c1959a1b73a5b7dbf2b306bf00a7e22cf4aee9bee1efc21014f9e1", 11644),
}


def _failures(rows):
    return [(r["key"], r["status"], r["detail"]) for r in rows if r["status"] != check.OK]


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_every_recorded_command_prints_its_recorded_bytes(workload, tmp_path):
    golden, _unfinished = corpus.load_golden()
    commands = [c for unit in corpus.pool_units(workload)
                if all(c.key in golden for c in unit) for c in unit]
    done = run.run_pass(commands, run.run_in_process, corpus.LIMIT_S[workload], golden, tmp_path)
    assert len(done.rows) == RECORDED[workload]
    assert _failures(done.rows) == []


def test_deep_searches_keep_their_bytes_and_steps(monkeypatch, tmp_path):
    golden, _unfinished = corpus.load_golden()
    units = [unit for w in RECORDED for unit in corpus.pool_units(w)
             if not all(c.key in golden for c in unit)]
    commands = [c for unit in units for c in unit]
    # With the pins, every command of both pools is checked byte for byte.
    unrecorded = {c.key for c in commands if c.key not in golden}
    assert unrecorded | {"decompose hmp 1000 graph"} == set(PINNED)
    commands.append(corpus.Command("decompose hmp 1000 graph", ["decompose", "{input}"],
                                   graph=hmp_construct(1000).graph.to_json_dict()))
    expected = dict(golden)
    for key, (size, sha256, _steps) in PINNED.items():
        expected[key] = {"exit": 0, "bytes": size, "sha256": sha256}

    searched = set()  # the cover instances of the running command
    solve = CoverInstance.solve

    def counted(inst, lo, hi, k):
        searched.add(inst)
        return solve(inst, lo, hi, k)

    steps = []

    def runner(argv, limit):
        searched.clear()
        result = run.run_in_process(argv, limit)
        steps.append(sum(inst.steps for inst in searched))
        return result

    monkeypatch.setattr(CoverInstance, "solve", counted)
    done = run.run_pass(commands, runner, 60.0, expected, tmp_path)
    assert _failures(done.rows) == []
    chosen = {r["key"]: n for r, n in zip(done.rows, steps)}
    assert {key: chosen[key] for key in PINNED} == {key: p[2] for key, p in PINNED.items()}


@pytest.mark.parametrize("workload", sorted(WORK))
def test_each_workload_pass_does_its_recorded_work(workload, monkeypatch, tmp_path):
    golden, unfinished = corpus.load_golden()
    commands = corpus.build_corpus(workload, 1, golden, unfinished)
    searched = set()  # the cover instances of the running command
    work = [0, 0, 0, 0]
    solve = CoverInstance.solve

    def counted(inst, lo, hi, k):
        searched.add(inst)
        work[0] += 1
        return solve(inst, lo, hi, k)

    def runner(argv, limit):
        searched.clear()
        result = run.run_in_process(argv, limit)
        for inst in searched:
            work[1] += inst.steps
            work[2] += inst.scanned
            work[3] += len(inst.tri_edges)
        return result

    monkeypatch.setattr(CoverInstance, "solve", counted)
    done = run.run_pass(commands, runner, corpus.LIMIT_S[workload], golden, tmp_path)
    assert (tuple(work), Counter(r["status"] for r in done.rows)) == WORK[workload]


def test_the_tracer_spans_verify_and_the_predicates_it_calls(tmp_path):
    envelope = tmp_path / "hmp8.json"
    envelope.write_text(json.dumps(hmp_construct(8).to_json_dict()), encoding="utf-8")
    spans = tracer.Tracer()
    spans.install()
    try:
        code, _out, err, _s, timed_out = run.run_in_process(["verify", str(envelope)], 60.0)
    finally:
        spans.uninstall()
    assert (code, timed_out) == (0, False), err
    names = [spans.names[s[tracer.NAME]] for s in spans.spans]
    verify = names.index("analysis.verify_construction")
    # is_eulerian is called by its global name, so the rebound wrapper runs.
    assert spans.spans[names.index("analysis.is_eulerian")][tracer.PARENT] == verify
