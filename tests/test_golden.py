"""The benchmark corpora, run in process against their recorded outputs.

``perfbench/golden.json`` holds the exit code and stdout digest of every
benchmark command that finished when it was recorded.  A benchmark run
draws only some of them, so here every command of a fully recorded unit
runs once.  The deep searches the file has no bytes for are pinned below,
with the number of triangles their cover searches choose, so a change to
the search tree shows even where the certificate stays the same.
"""

import sys
from pathlib import Path

import pytest

from tridecomp.decomposer import CoverInstance
from tridecomp.families import hmp_construct

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

RECORDED = {"epsilon-mix": 198, "certify": 384}

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
