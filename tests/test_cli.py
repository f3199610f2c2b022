"""End-to-end tests of the command line driver via main(argv)."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tridecomp
from tridecomp import analysis, augment, cli, decomposer, families, graph_core
from tridecomp.cli import main

from test_augment import NINE_VERTEX
from test_decomposer import _triangle_union


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_construct_emits_envelope(capsys):
    code, out, _ = run_cli(capsys, "construct", "mop", "6")
    assert code == 0
    env = json.loads(out)
    assert env["family"] == "mop"
    assert env["parameters"] == {"n": 6}
    assert env["epsilon"] == 0
    assert env["graph"]["order"] == 6
    assert env["augmentation"] == []
    assert len(env["certificate"]["triangles"]) == 3
    assert env["outer_cycle"] == [0, 1, 2, 3, 4, 5]


def test_construct_then_verify_round_trips(capsys, tmp_path):
    for argv in (
        ["construct", "mop", "7"],
        ["construct", "fan", "5"],
        ["construct", "intermediate", "8", "1"],
        ["construct", "sc2tree", "9"],
        ["construct", "kop", "6", "2"],
        ["construct", "hmp", "8"],
        ["construct", "sc3", "5"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / ("-".join(argv[1:]) + ".json")
        path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0, argv
        assert "fail:" not in out
        assert "ok: augmentation lists" in out
        assert "ok: count matches the divisibility residue" in out
        assert "ok: certificate covers every edge exactly" in out


def test_construct_then_verify_hmp_1000(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "hmp", "1000")
    assert code == 0
    path = tmp_path / "hmp1000.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert out.count("ok: ") == 7 and "fail:" not in out


def test_verify_checks_fixture_rotation(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "sf", "8")
    assert code == 0
    path = tmp_path / "sf8.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "genus: 1" in out
    assert "ok: rotation system embeds the graph on the torus" in out
    assert "ok: one face visits every vertex" in out
    assert "ok: rotation system covers exactly the graph edges" in out


def test_verify_checks_outerplanarity_and_rings(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "fan", "6")
    path = tmp_path / "fan6.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "ok: maximal outerplanar on the given outer cycle" in out
    code, out, _ = run_cli(capsys, "construct", "kop", "5", "3")
    path = tmp_path / "kop53.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "ok: all 3 layer rings present" in out


def test_verify_flags_tampered_certificate(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "mop", "7")
    env = json.loads(out)
    env["certificate"]["triangles"] = env["certificate"]["triangles"][1:]
    path = write_json(tmp_path, "tampered.json", env)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    assert "fail: edge" in out
    assert "undercovered" in out
    assert "1 check(s) failed" in out


def test_verify_flags_wrong_count(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "mop", "6")
    env = json.loads(out)
    env["epsilon"] = 1
    path = write_json(tmp_path, "wrong-count.json", env)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    assert "fail: augmentation lists 0 added copies, the count is 1" in out
    assert "fail: count 1 cannot make size 9 divisible by 3" in out


def test_verify_rejects_incomplete_envelope(capsys, tmp_path):
    path = write_json(tmp_path, "empty.json", {})
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 1
    assert "missing" in err


def test_epsilon_command(capsys, tmp_path):
    k5 = {
        "order": 5,
        "edges": [[u, v, 1] for u in range(5) for v in range(u + 1, 5)],
    }
    path = write_json(tmp_path, "k5.json", k5)
    code, out, _ = run_cli(capsys, "epsilon", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == 2
    assert payload["augmentation"] == [[0, 1], [0, 1]]
    code, out, _ = run_cli(capsys, "epsilon", path, "--cap", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == 5
    code, _, err = run_cli(capsys, "epsilon", path, "--cap", "0")
    assert code == 1
    assert "error:" in err


def test_epsilon_scale_limit_exit_code(capsys, tmp_path, monkeypatch):
    # K12 takes 178 cover steps, so it is answered at the default ceiling.
    k12 = {
        "order": 12,
        "edges": [[u, v, 1] for u in range(12) for v in range(u + 1, 12)],
    }
    path = write_json(tmp_path, "k12.json", k12)
    code, out, _ = run_cli(capsys, "epsilon", path)
    assert code == 0 and json.loads(out)["epsilon"] == 6
    # Its set-ups are charged 704 steps: 66 edges each, and 220 triangles
    # each for the climb's hit and the certificate search.
    monkeypatch.setattr(graph_core, "STEP_LIMIT", 600)
    code, out, err = run_cli(capsys, "epsilon", path)
    assert (code, out) == (3, "")
    assert err == "error: cover search exceeds the ceiling of 600 steps\n"
    monkeypatch.setattr(graph_core, "STEP_LIMIT", 100)
    code, out, err = run_cli(capsys, "epsilon", path)
    assert (code, out) == (3, "")
    assert err == "error: triangle listing exceeds the ceiling of 100 steps\n"


@pytest.mark.parametrize("limit", [1000, 5000])
def test_step_ceiling_counts_every_search_of_a_command(capsys, tmp_path, monkeypatch, limit):
    # The nine-vertex graph takes 11 644 cover steps over its climb, witness
    # pinning and certificate search, at most 2 100 of them in one call: a
    # limit of 5 000 refuses it only if the count runs across the calls.
    path = write_json(tmp_path, "nine.json", NINE_VERTEX.to_json_dict())
    monkeypatch.setattr(graph_core, "STEP_LIMIT", limit)
    code, out, err = run_cli(capsys, "epsilon", path)
    assert (code, out) == (3, "")
    assert err == f"error: cover search exceeds the ceiling of {limit} steps\n"


def test_decompose_step_ceiling_exit_code(capsys, tmp_path, monkeypatch):
    # A union of 50 triangles on 20 vertices: its search chooses 1 243
    # triangles, and its set-up is charged 296 edges and triangles.
    g = _triangle_union(random.Random(1), 20, 50)
    path = write_json(tmp_path, "union.json", g.to_json_dict())
    monkeypatch.setattr(graph_core, "STEP_LIMIT", 1243)
    assert run_cli(capsys, "decompose", path)[0] == 0
    monkeypatch.setattr(graph_core, "STEP_LIMIT", 1242)
    code, out, err = run_cli(capsys, "decompose", path)
    assert (code, out) == (3, "")
    assert err == "error: cover search exceeds the ceiling of 1242 steps\n"


@pytest.mark.parametrize("command", ["epsilon", "decompose"])
def test_a_cover_of_more_triangles_than_the_order_limit_is_refused(capsys, tmp_path, command):
    # K3 with 100 001 copies of each edge needs 100 001 triangles: more than ORDER_LIMIT.
    big = {"order": 3, "edges": [[0, 1, 100001], [0, 2, 100001], [1, 2, 100001]]}
    code, out, err = run_cli(capsys, command, write_json(tmp_path, "big.json", big))
    assert (code, out) == (3, "")
    assert err == "error: a cover of 100001 triangles exceeds the ceiling of 100000 triangles\n"


def test_epsilon_climb_set_ups_count_toward_the_ceiling(capsys, tmp_path):
    # On a fan, every level of the climb below about half the order is
    # refused without a triangle chosen, but each set-up still reads its
    # 3 997 edges and, once its root tests pass, is charged its 1 998
    # triangles: 5 995 steps, so the 167th passes the ceiling.
    path = write_json(tmp_path, "fan.json", tridecomp.fan(2000).graph.to_json_dict())
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "epsilon", path)
    assert (code, out) == (3, "")
    assert err == "error: cover search exceeds the ceiling of 1000000 steps\n"
    assert time.perf_counter() - start < 20


def test_cut_vertex_hmp_envelope_fails_without_search(capsys, tmp_path):
    # Two copies of K_12 sharing vertex 0: a cut vertex, so no Hamiltonian
    # cycle.  verify checks only the cycle that hmp_construct builds at this
    # order, so the envelope fails at once instead of exhausting a search.
    k = 12
    side = [(u, v) for u in range(k) for v in range(u + 1, k)]
    other = [(0 if u == 0 else u + k - 1, v + k - 1) for u, v in side]
    envelope = {
        "family": "hmp",
        "parameters": {},
        "epsilon": 0,
        "graph": {"order": 2 * k - 1, "edges": [[u, v, 1] for u, v in side + other]},
        "augmentation": [],
        "certificate": {"triangles": []},
    }
    path = write_json(tmp_path, "cut-vertex.json", envelope)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", path)
    assert (code, err) == (1, "")
    assert "fail: hamiltonian cycle edge (2, 21) missing\n" in out
    assert time.perf_counter() - start < 1.0


def test_order_above_ceiling_exit_code(capsys, tmp_path):
    huge = {"order": 10**12, "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]}
    path = write_json(tmp_path, "huge.json", huge)
    # construct refuses the order before it lists an edge; kop's order is m * k.
    for argv in (
        ("decompose", path),
        ("epsilon", path),
        ("construct", "fan", str(10**12)),
        ("construct", "kop", str(10**6), str(10**6)),
        ("construct", "sc2tree", "999999999999"),
        ("construct", "sc2tree", "100001"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == "" and "exceeds the ceiling" in err
        assert time.perf_counter() - start < 1.0, argv


def test_decompose_certificate_length_ceiling_exit_code(capsys, tmp_path):
    # A triangle of 10**18 copies passes every cheap test; its certificate
    # would need 10**18 triangles, one search frame each.
    m = 10**18
    triangle = {"order": 3, "edges": [[0, 1, m], [1, 2, m], [0, 2, m]]}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "decompose", write_json(tmp_path, "t.json", triangle))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "exceeds the ceiling" in err
    assert time.perf_counter() - start < 1.0


def test_large_family_commands_run_in_bounded_time(capsys, tmp_path):
    # Both take about 0.5 s; a step quadratic in n would miss the bound by far.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "construct", "sc2tree", "30000")
    assert code == 0 and json.loads(out)["parameters"] == {"n": 30000}
    assert time.perf_counter() - start < 5.0
    path = tmp_path / "mop30000.json"
    path.write_text(json.dumps(tridecomp.mop_construct(30000).to_json_dict()), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "ok: maximal outerplanar on the given outer cycle" in out
    assert time.perf_counter() - start < 5.0


def test_decompose_hmp_1000_needs_no_recursion(capsys, tmp_path):
    # 998 triangles deep: one search frame per chosen triangle.
    code, out, _ = run_cli(capsys, "construct", "hmp", "1000")
    assert code == 0
    graph = json.loads(out)["graph"]
    code, out, _ = run_cli(capsys, "decompose", write_json(tmp_path, "hmp.json", graph))
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposable"] is True
    assert tridecomp.coverage_error(
        tridecomp.Multigraph.from_json_dict(graph),
        tridecomp.Decomposition.from_json_dict(payload["certificate"]),
    ) is None


def test_decompose_command(capsys, tmp_path):
    k4 = {"order": 4, "edges": [[u, v, 1] for u in range(4) for v in range(u + 1, 4)]}
    path = write_json(tmp_path, "k4.json", k4)
    code, out, _ = run_cli(capsys, "decompose", path)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "decomposable": False,
        "reason": {"kind": "odd_vertex", "vertex": 0},
    }
    k7 = {"order": 7, "edges": [[u, v, 1] for u in range(7) for v in range(u + 1, 7)]}
    path = write_json(tmp_path, "k7.json", k7)
    code, out, _ = run_cli(capsys, "decompose", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposable"] is True
    assert len(payload["certificate"]["triangles"]) == 7
    book = {
        "order": 4,
        "edges": [[0, 1, 8], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1]],
    }
    path = write_json(tmp_path, "book.json", book)
    code, out, _ = run_cli(capsys, "decompose", path)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"decomposable": False, "reason": {"kind": "search_exhausted"}}


def test_sweep_epsilon(capsys):
    code, out, _ = run_cli(capsys, "sweep", "epsilon", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "epsilon",
        "n": 4,
        "value": 1,
        "witness": {"order": 4, "chords": [[0, 2]]},
    }


def test_sweep_xi(capsys):
    code, out, _ = run_cli(capsys, "sweep", "xi", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert payload["witness"] == {"order": 5, "chords": [[0, 2], [0, 3]]}


def test_sweep_xi_answers_every_order_up_to_the_order_limit(capsys):
    # sweep xi lists nothing, so the listing charge does not bind it; the order limit does.
    code, out, _ = run_cli(capsys, "sweep", "xi", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 10
    assert payload["witness"] == {"order": 13, "chords": [[0, i] for i in range(2, 12)]}
    code, out, err = run_cli(capsys, "sweep", "xi", "100001")
    assert (code, out) == (3, "")
    assert err == "error: order 100001 exceeds the ceiling of 100000 vertices\n"


def test_sweep_epsilon_ceiling_is_the_step_limit(capsys):
    # Each listed triangulation is charged its 2n - 3 edges against STEP_LIMIT:
    # 352,716 steps at order 12, 1,352,078 at 13.
    code, out, err = run_cli(capsys, "sweep", "epsilon", "13")
    assert (code, out) == (3, "")
    assert err == "error: triangulation listing exceeds the ceiling of 1000000 steps\n"
    code, out, _ = run_cli(capsys, "sweep", "epsilon", "12")
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_sweep_rechecks_its_witness(capsys, monkeypatch):
    # The listing skips every chord check, so the printed witness goes through
    # validate_construction as a mop envelope: a crossing chord set there is
    # an internal error, with verify's failure line.
    chords = tuple(graph_core.edge(*c) for c in ((0, 2), (1, 6), (2, 4), (4, 6)))
    monkeypatch.setattr(families, "enumerate_mops", lambda n: [chords])
    code, out, err = run_cli(capsys, "sweep", "epsilon", "7")
    assert (code, out) == (2, "")
    assert err == "internal error: not maximal outerplanar on the given outer cycle\n"


def test_sweep_xi_checks_the_fan_it_holds(capsys, monkeypatch):
    # The witness check reads the fan's own graph; nothing rebuilds it.
    def rebuilt(n, chords):
        raise AssertionError("sweep xi rebuilt its witness graph")

    monkeypatch.setattr(families, "_cycle_with_chords", rebuilt)
    code, out, _ = run_cli(capsys, "sweep", "xi", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 7
    assert payload["witness"] == {"order": 10, "chords": [[0, i] for i in range(2, 9)]}


def test_faces_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "sf", "8")
    rotation = json.loads(out)["rotation"]
    path = write_json(tmp_path, "rot8.json", rotation)
    code, out, _ = run_cli(capsys, "faces", path)
    assert code == 0
    payload = json.loads(out)
    assert (payload["V"], payload["E"], payload["F"]) == (8, 19, 11)
    assert payload["euler_characteristic"] == 0
    assert payload["genus"] == 1
    assert len(payload["faces"]) == 11


def test_dot_output(capsys):
    code, out, _ = run_cli(capsys, "construct", "mop", "4", "--out", "dot")
    assert code == 0
    assert out.startswith("graph mop {")
    assert out.rstrip().endswith("}")
    assert "node [shape=circle];" in out
    edge_lines = [line for line in out.splitlines() if "--" in line]
    assert len(edge_lines) == 6  # two triangles, three edges each
    assert '  0 -- 1 [color="red"];' in out
    assert '  0 -- 3 [color="blue"];' in out


def test_usage_errors_exit_one(capsys, tmp_path):
    assert run_cli(capsys)[0] == 1  # no subcommand
    assert run_cli(capsys, "bogus")[0] == 1  # unknown subcommand
    assert run_cli(capsys, "construct", "nope", "3")[0] == 1  # unknown family
    assert run_cli(capsys, "sweep", "epsilon", "x")[0] == 1  # non-integer order
    code, _, err = run_cli(capsys, "construct", "kop", "5")
    assert code == 1
    assert "kop takes 2 parameter(s)" in err
    code, _, err = run_cli(capsys, "epsilon", str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "epsilon", str(bad))
    assert code == 1
    assert "not valid JSON" in err
    code, _, err = run_cli(capsys, "construct", "hmp", "7")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param((), id="no-subcommand"),
        pytest.param(("bogus",), id="unknown-subcommand"),
        pytest.param(("decompose",), id="missing-positional"),
        pytest.param(("construct", "mop"), id="missing-parameters"),
        pytest.param(("decompose", "a.json", "b.json"), id="extra-positional"),
        pytest.param(("sweep", "epsilon", "5", "6"), id="extra-integer"),
        pytest.param(("sweep", "epsilon", "x"), id="non-integer"),
        pytest.param(("sweep", "epsilon", "1" * 5000), id="integer-over-digit-limit"),
        pytest.param(("construct", "mop", "4x"), id="non-integer-parameter"),
        pytest.param(("epsilon", "g.json", "--cap", "one"), id="non-integer-option"),
        pytest.param(("sweep", "zeta", "5"), id="bad-choice"),
        pytest.param(("construct", "mop", "4", "--out=svg"), id="bad-option-choice"),
        pytest.param(("decompose", "g.json", "--cap", "1"), id="unknown-option"),
        pytest.param(("epsilon", "g.json", "-q"), id="unknown-short-option"),
        pytest.param(("epsilon", "g.json", "--cap"), id="option-missing-value"),
        pytest.param(("epsilon", "g.json", "--cap", "--cap", "1"), id="option-value-is-option"),
    ],
)
def test_malformed_command_line_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "error:" in err and "Traceback" not in err


SUBCOMMANDS = ("construct", "epsilon", "decompose", "verify", "sweep", "faces")


def test_help_exits_zero_and_names_every_subcommand(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run_cli(capsys, flag)
        assert (code, err) == (0, "")
        assert all(name in out for name in SUBCOMMANDS)
    for name in SUBCOMMANDS:
        code, out, err = run_cli(capsys, name, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: ") and f"tridecomp {name}" in out


def test_option_forms_print_the_same_bytes(capsys, tmp_path):
    k5 = {"order": 5, "edges": [[u, v, 1] for u in range(5) for v in range(u + 1, 5)]}
    path = write_json(tmp_path, "k5.json", k5)
    separate = run_cli(capsys, "epsilon", path, "--cap", "1")
    assert separate[0] == 0
    assert run_cli(capsys, "epsilon", path, "--cap=1") == separate
    assert run_cli(capsys, "epsilon", "--cap", "1", path) == separate
    dot = run_cli(capsys, "construct", "mop", "5", "--out", "dot")
    assert run_cli(capsys, "construct", "--out=dot", "mop", "5") == dot


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b'{"order": 3, "edges": []}\xff', id="not-utf-8"),
        pytest.param(b"[" * 100000, id="nested-too-deep"),
        pytest.param(b"1" * 5000, id="integer-over-digit-limit"),
    ],
)
def test_unreadable_json_is_refused_without_traceback(capsys, tmp_path, raw):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "construct", "mop", "9")
    second = run_cli(capsys, "construct", "mop", "9")
    assert first == second
    first = run_cli(capsys, "construct", "sf", "9")
    second = run_cli(capsys, "construct", "sf", "9")
    assert first == second


def _assert_printed_like_json_dumps(out):
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_every_printed_payload_has_the_bytes_of_json_dumps(capsys, tmp_path):
    k4 = {"order": 4, "edges": [[u, v, 1] for u in range(4) for v in range(u + 1, 4)]}
    k7 = {"order": 7, "edges": [[u, v, 1] for u in range(7) for v in range(u + 1, 7)]}
    book = {"order": 4, "edges": [[0, 1, 8], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1]]}
    path = {
        "k4": write_json(tmp_path, "k4.json", k4),
        "k7": write_json(tmp_path, "k7.json", k7),
        "book": write_json(tmp_path, "book.json", book),
        "short": write_json(tmp_path, "short.json", {"order": 3, "edges": [[0, 1, 1]]}),
        "bare": write_json(tmp_path, "bare.json", {"order": 2, "edges": [[0, 1, 6]]}),
    }
    reasons = set()
    for argv in (
        ("construct", "mop", "3"),
        ("construct", "mop", "40"),
        ("construct", "fan", "9"),
        ("construct", "intermediate", "10", "2"),
        ("construct", "sc2tree", "12"),
        ("construct", "kop", "5", "3"),
        ("construct", "hmp", "11"),  # faces
        ("construct", "sc3", "7"),
        ("construct", "sf", "9"),  # rotation
        ("epsilon", path["k4"]),
        ("epsilon", path["k4"], "--cap", "1"),
        ("decompose", path["k7"]),
        ("decompose", path["k4"]),
        ("decompose", path["book"]),
        ("decompose", path["short"]),
        ("decompose", path["bare"]),
        ("sweep", "epsilon", "6"),
        ("sweep", "xi", "5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        _assert_printed_like_json_dumps(out)
        reasons.add(json.loads(out).get("reason", {}).get("kind"))
        if argv[:2] == ("construct", "sf"):
            rotation = write_json(tmp_path, "rotation.json", json.loads(out)["rotation"])
    assert reasons == {None, "odd_vertex", "search_exhausted", "size_not_divisible",
                       "edge_not_on_triangle"}
    code, out, _ = run_cli(capsys, "faces", rotation)
    assert code == 0
    _assert_printed_like_json_dumps(out)


@pytest.mark.parametrize("payload", [
    {}, [], {"a": [], "b": {}}, [[]], [[], [1]], [[1], [2, 3]], [[1, 2], [3, True]],
    [1, None], {"s": "tab\t quote\" slash\\ \u00e9 \u2603 \U0001f600"}, [[[1, 2]], [[3, 4]]],
    (1, 2), [(1, 2), (3, 4)], [-1, 10 ** 30, 0],
])
def test_writer_matches_json_dumps_on_edge_cases(capsys, payload):
    cli._print_json(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_epsilon_and_decompose_recheck_the_certificate(capsys, tmp_path, monkeypatch):
    k7 = {"order": 7, "edges": [[u, v, 1] for u in range(7) for v in range(u + 1, 7)]}
    k7_path = write_json(tmp_path, "k7.json", k7)
    real_cover = decomposer.find_decomposition

    def short_cover(g):
        cert = real_cover(g)
        return tridecomp.Decomposition(cert.triangles[1:])

    monkeypatch.setattr(decomposer, "find_decomposition", short_cover)
    code, out, err = run_cli(capsys, "decompose", k7_path)
    assert (code, out) == (2, "")
    assert err.startswith("internal error: edge {0, 1} undercovered")

    k4 = {"order": 4, "edges": [[u, v, 1] for u in range(4) for v in range(u + 1, 4)]}
    k4_path = write_json(tmp_path, "k4.json", k4)
    real_epsilon = augment.epsilon_exact

    def extra_triangle(g, cap=None):
        value, aug, cert = real_epsilon(g, cap)
        return value, aug, tridecomp.Decomposition(cert.triangles + (tridecomp.triangle(1, 2, 3),))

    monkeypatch.setattr(augment, "epsilon_exact", extra_triangle)
    code, out, err = run_cli(capsys, "epsilon", k4_path)
    assert (code, out) == (2, "")
    assert err.startswith("internal error: edge")

    def inflated_count(g, cap=None):
        value, aug, cert = real_epsilon(g, cap)
        return value + 3, aug, cert

    value = real_epsilon(graph_core.Multigraph.from_json_dict(k4))[0]
    monkeypatch.setattr(augment, "epsilon_exact", inflated_count)
    code, out, err = run_cli(capsys, "epsilon", k4_path)
    assert (code, out) == (2, "")
    assert err == (f"internal error: augmentation lists {value} added copies, "
                   f"the count is {value + 3}\n")


def _child(argv, unbuffered=False, **kwargs):
    """``python -m tridecomp argv``, with PYTHONUNBUFFERED set only if asked.

    Run from the directory holding the package under test, so that the
    child imports it even when it is not installed.  PYTHONUNBUFFERED
    would hide an output that is never flushed.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "tridecomp", *argv], env=env,
                          cwd=Path(tridecomp.__file__).resolve().parents[1], **kwargs)


def _close_stdout():
    """Run in a child before exec: it starts with descriptor 1 closed, as by ">&-"."""
    os.close(1)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("construct", "hmp", "1000"), id="construct"),  # more than a pipe buffer
        pytest.param(("verify", "{envelope}"), id="verify"),
        pytest.param(("epsilon", "{graph}"), id="epsilon"),
        pytest.param(("decompose", "{graph}"), id="decompose"),
        pytest.param(("faces", "{rotation}"), id="faces"),
        pytest.param(("sweep", "epsilon", "6"), id="sweep"),
        pytest.param(("--help",), id="help"),
        pytest.param(("construct", "nope", "3"), id="usage-error"),
        pytest.param(("epsilon", "{missing}"), id="unreadable-file"),
        pytest.param(("sweep", "epsilon", "13"), id="over-ceiling"),
    ],
)
def test_module_entry_point(capsys, tmp_path, hmp_1000_envelope, argv):
    """The child's exit code, stdout and stderr bytes are those of cli.main in process."""
    envelope = tmp_path / "hmp1000.json"
    envelope.write_text(hmp_1000_envelope, encoding="utf-8")
    rotation = tridecomp.sf_fixture(8).rotation.to_json_dict()
    paths = {"envelope": str(envelope), "missing": str(tmp_path / "missing.json"),
             "graph": write_json(tmp_path, "nine.json", NINE_VERTEX.to_json_dict()),
             "rotation": write_json(tmp_path, "rot8.json", rotation)}
    argv = [word.format(**paths) for word in argv]
    code, out, err = run_cli(capsys, *argv)
    proc = _child(argv, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["dev-full", "closed-pipe", "closed-stdout",
                                    "closed-stdout-help"])
def test_write_failure_is_one_error_line(target, unbuffered):
    argv, stdout, pre = ("construct", "mop", "3"), None, None
    if target == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = open("/dev/full", "wb")
    elif target == "closed-pipe":
        read, write = os.pipe()
        os.close(read)
        argv, stdout = ("construct", "hmp", "1000"), os.fdopen(write, "wb")
    else:
        argv, pre = (("--help",) if target.endswith("help") else argv), _close_stdout
    with stdout or contextlib.nullcontext():
        proc = _child(argv, unbuffered, stdout=stdout, preexec_fn=pre,
                      stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "argv, code, err",
    [
        pytest.param(("construct", "nope", "3"), 1, "tridecomp: error: argument family",
                     id="usage-error"),
        pytest.param(("sweep", "epsilon", "13"), 3, "error: triangulation listing exceeds the ceiling",
                     id="over-ceiling"),
    ],
)
def test_closed_stdout_keeps_the_code_of_a_command_that_writes_none(argv, code, err):
    proc = _child(argv, preexec_fn=_close_stdout, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == code
    assert err in proc.stderr and "cannot write output" not in proc.stderr


def _drop_ring_edge(env):
    env["graph"]["edges"] = [e for e in env["graph"]["edges"] if e[:2] != [5, 6]]


def _drop_cycle_edge(env):
    # hmp 8's cycle is 0, 6, 1, 2, 3, 4, 5, 7.
    env["graph"]["edges"] = [e for e in env["graph"]["edges"] if e[:2] != [1, 2]]


def _drop_first_face(env):
    env["faces"] = env["faces"][1:]


def _swap_outer_cycle(env):
    env["outer_cycle"] = [0, 2, 1, 3, 4, 5]


CORE_OK = (
    "ok: augmentation lists {eps} added copies\n"
    "ok: count matches the divisibility residue\n"
    "ok: certificate covers every edge exactly\n"
)
HMP_TAIL = "ok: hamiltonian cycle found\nok: all degrees even and the graph is connected\n"


@pytest.mark.parametrize(
    "argv, tamper, expected",
    [
        pytest.param(
            ("hmp", "8"),
            lambda env: env.pop("faces"),
            CORE_OK.format(eps=0)
            + "fail: triangulation envelope has no face list\n"
            + HMP_TAIL
            + "1 check(s) failed\n",
            id="hmp-no-faces",
        ),
        pytest.param(
            ("hmp", "8"),
            _drop_first_face,
            CORE_OK.format(eps=0)
            + "fail: face list does not cover every edge exactly twice\n"
            "fail: V - E + F = 1, expected 2\n"
            + HMP_TAIL
            + "2 check(s) failed\n",
            id="hmp-face-dropped",
        ),
        pytest.param(
            ("hmp", "8"),
            _drop_cycle_edge,
            "ok: augmentation lists 0 added copies\n"
            "fail: count 0 cannot make size 17 divisible by 3\n"
            "fail: edge {1, 2} notanedge\n"
            "fail: face list does not cover every edge exactly twice\n"
            "fail: V - E + F = 3, expected 2\n"
            "fail: hamiltonian cycle edge (1, 2) missing\n"
            "fail: graph is not eulerian\n"
            "6 check(s) failed\n",
            id="hmp-cycle-edge-missing",
        ),
        pytest.param(
            ("sf", "8"),
            lambda env: env.pop("rotation"),
            CORE_OK.format(eps=2)
            + "fail: fixture envelope has no rotation system\n1 check(s) failed\n",
            id="sf-no-rotation",
        ),
        pytest.param(
            ("kop", "5", "2"),
            _drop_ring_edge,
            "ok: augmentation lists 2 added copies\n"
            "fail: count 2 cannot make size 21 divisible by 3\n"
            "fail: edge {5, 6} notanedge\n"
            "fail: ring edge (5, 6) missing\n"
            "3 check(s) failed\n",
            id="kop-ring-edge-missing",
        ),
        # kop's m and k follow every family's parameter rule; when they do
        # not describe the envelope, the ring line that reads them is not run.
        pytest.param(
            ("kop", "3", "2"),
            lambda env: env.update(parameters={"m": 10**12, "k": 10**12}),
            CORE_OK.format(eps=0)
            + "fail: parameters {'m': 1000000000000, 'k': 1000000000000} do not describe"
            " this kop envelope\n1 check(s) failed\n",
            id="kop-huge-parameters",
        ),
        pytest.param(
            ("kop", "5", "3"),
            lambda env: env.update(parameters={"m": 5, "k": 2}),
            CORE_OK.format(eps=2)
            + "fail: parameters {'m': 5, 'k': 2} do not describe this kop envelope\n"
            "1 check(s) failed\n",
            id="kop-parameters-not-the-order",
        ),
        pytest.param(
            ("kop", "5", "2"),
            lambda env: env.pop("parameters"),
            CORE_OK.format(eps=2)
            + "fail: parameters {} do not describe this kop envelope\n1 check(s) failed\n",
            id="kop-no-parameters",
        ),
        pytest.param(
            ("mop", "6"),
            lambda env: env.pop("outer_cycle"),
            CORE_OK.format(eps=0)
            + "fail: triangulated-cycle envelope has no outer cycle\n1 check(s) failed\n",
            id="mop-no-outer-cycle",
        ),
        pytest.param(
            ("mop", "6"),
            _swap_outer_cycle,
            CORE_OK.format(eps=0)
            + "fail: not maximal outerplanar on the given outer cycle\n1 check(s) failed\n",
            id="mop-outer-cycle-not-outerplanar",
        ),
        # Every family's parameters must describe the envelope they label.
        pytest.param(
            ("mop", "6"),
            lambda env: env.update(parameters={"n": 99}),
            CORE_OK.format(eps=0) + "ok: maximal outerplanar on the given outer cycle\n"
            "fail: parameters {'n': 99} do not describe this mop envelope\n1 check(s) failed\n",
            id="mop-parameters-not-the-order",
        ),
        pytest.param(
            ("mop", "6"),
            lambda env: env.pop("parameters"),
            CORE_OK.format(eps=0) + "ok: maximal outerplanar on the given outer cycle\n"
            "fail: parameters {} do not describe this mop envelope\n1 check(s) failed\n",
            id="mop-no-parameters",
        ),
        pytest.param(
            ("intermediate", "12", "2"),
            lambda env: env.update(parameters={"n": 12, "r": 0}),
            CORE_OK.format(eps=6) + "ok: maximal outerplanar on the given outer cycle\n"
            "fail: parameters {'n': 12, 'r': 0} do not describe this intermediate envelope\n"
            "1 check(s) failed\n",
            id="intermediate-rounds-not-the-count",
        ),
        # A family no constructor makes cannot be checked, so it fails.
        pytest.param(
            ("mop", "6"),
            lambda env: env.update(family="zzz"),
            CORE_OK.format(eps=0) + "fail: no family is named 'zzz'\n1 check(s) failed\n",
            id="unknown-family",
        ),
        # kop 5 2's outer cycle must be its outermost ring, 5..9.
        *(pytest.param(("kop", "5", "2"), tamper, CORE_OK.format(eps=2)
                       + "fail: outer cycle is not the outermost ring 5..9\n1 check(s) failed\n",
                       id=f"kop-outer-cycle-{name}")
          for name, tamper in (("repeated", lambda env: env.update(outer_cycle=[9, 9, 9])),
                               ("inner-ring", lambda env: env.update(outer_cycle=[0, 1, 2, 3, 4])),
                               ("missing", lambda env: env.pop("outer_cycle")))),
    ],
)
def test_verify_structure_check_failure_lines(capsys, tmp_path, argv, tamper, expected):
    code, out, _ = run_cli(capsys, "construct", *argv)
    assert code == 0
    env = json.loads(out)
    tamper(env)
    code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "tampered.json", env))
    assert (code, out, err) == (1, expected, "")
    # construct's check is verify's checker: it raises verify's first fail line.
    first = next(line for line in expected.splitlines() if line.startswith("fail: "))
    with pytest.raises(graph_core.InvariantViolation) as caught:
        families.validate_construction(analysis.ConstructionResult.from_json_dict(env))
    assert f"fail: {caught.value}" == first


@pytest.mark.parametrize("residue", [1, 2])
def test_verify_reads_the_residue_of_an_sc2_seed(capsys, tmp_path, residue):
    # The seed of residue r is sc2tree's member of order 3 + r.
    n = 3 + residue
    code, out, _ = run_cli(capsys, "construct", "sc2tree", str(n))
    assert code == 0
    env = json.loads(out)
    assert env["epsilon"] == residue
    code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "seed.json", env))
    assert (code, "fail:" in out) == (0, False)
    env["parameters"] = {"n": n - 1}
    code, out, _ = run_cli(capsys, "verify", write_json(tmp_path, "seed.json", env))
    assert code == 1
    assert out.endswith(f"fail: parameters {{'n': {n - 1}}} do not describe"
                        " this sc2tree envelope\n1 check(s) failed\n")


def test_a_stored_sf_triangle_off_the_rotation_graph_exits_2(capsys, monkeypatch):
    # sf 7's certificate with (0, 2, 3) moved onto the absent edge {3, 4}:
    # verify's rotation line refuses it, so construct prints nothing.
    certs = dict(families._SF_CERTS)
    certs[7] = [(0, 3, 4) if t == (0, 2, 3) else t for t in certs[7]]
    monkeypatch.setattr(families, "_SF_CERTS", certs)
    assert run_cli(capsys, "construct", "sf", "7") == (
        2, "", "internal error: rotation system edges differ from the graph edges\n")


@pytest.mark.parametrize(
    "outer, message",
    [
        pytest.param((0, 2, 1, 3, 4, 5), "not maximal outerplanar on the given outer cycle",
                     id="not-outerplanar"),
        pytest.param((0, 0, 1, 2, 3, 4), "outer cycle must be a permutation of the vertices",
                     id="not-a-permutation"),
    ],
)
def test_a_constructor_bug_in_a_structure_field_exits_2(capsys, monkeypatch, outer, message):
    # A field verify refuses as bad input (exit 1) is construct's own bug (exit 2).
    real = families.mop_construct
    monkeypatch.setattr(families, "mop_construct", lambda n: real(n)._replace(outer_cycle=outer))
    assert run_cli(capsys, "construct", "mop", "6") == (2, "", f"internal error: {message}\n")


def _tampered(argv, path, value):
    """A construct envelope with the field at path replaced by value."""

    def make(construct):
        env = construct(*argv)
        target = env
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return env

    return make


BOOL_K3_ROTATION = {"rotations": [[[True, 0], [2, 0]], [[2, 0], [0, 0]], [[0, 0], [1, 0]]]}


@pytest.mark.parametrize(
    "command, make",
    [
        pytest.param("verify", _tampered(("hmp", "8"), ("faces", 0), [1, 2]), id="face-pair"),
        pytest.param("verify", _tampered(("hmp", "8"), ("faces",), 7), id="faces-int"),
        pytest.param("verify", _tampered(("mop", "6"), ("outer_cycle",), 5), id="outer-int"),
        pytest.param("verify", _tampered(("mop", "6"), ("parameters",), [6]), id="params-list"),
        pytest.param("verify", _tampered(("mop", "6"), ("graph", "edges"), 5), id="edges-int"),
        pytest.param("verify", _tampered(("mop", "6"), ("augmentation",), 5), id="aug-int"),
        pytest.param(
            "verify", _tampered(("mop", "6"), ("certificate", "triangles"), 5), id="triangles-int"
        ),
        pytest.param(
            "verify", _tampered(("mop", "3"), ("graph", "edges", 0, 2), True), id="bool-mult"
        ),
        pytest.param("verify", _tampered(("mop", "3"), ("outer_cycle", 1), True), id="bool-outer"),
        pytest.param("verify", _tampered(("kop", "5", "2"), ("parameters", "k"), True), id="bool-k"),
        pytest.param("epsilon", lambda _: {"order": 3, "edges": 5}, id="epsilon-edges-int"),
        pytest.param("decompose", lambda _: {"order": 3, "edges": 5}, id="decompose-edges-int"),
        pytest.param(
            "decompose",
            lambda _: {"order": 3, "edges": [[0, 1, True], [0, 2, 1], [1, 2, 1]]},
            id="decompose-bool-mult",
        ),
        pytest.param("decompose", lambda _: {"order": True, "edges": []}, id="decompose-bool-order"),
        pytest.param("faces", lambda _: BOOL_K3_ROTATION, id="faces-bool-neighbor"),
    ],
)
def test_malformed_json_is_refused_without_traceback(capsys, tmp_path, command, make):
    def construct(*argv):
        code, out, _ = run_cli(capsys, "construct", *argv)
        assert code == 0
        return json.loads(out)

    path = write_json(tmp_path, "input.json", make(construct))
    code, out, err = run_cli(capsys, command, path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


K3_GRAPH = {"order": 3, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}
K3_ROTATION = {"rotations": [[[1, 0], [2, 0]], [[2, 0], [0, 0]], [[0, 0], [1, 0]]]}


def _first_entry(row, value):
    """row with its first integer replaced by value; a flat list's row is one integer."""
    return value if isinstance(row, int) else [value] + row[1:]


# Each turns a good list of rows into a bad one.  In a flat list of
# integers a row is one integer, so "short" and "long" put a list there.
BAD_ROWS = {
    "bool": lambda rows: [_first_entry(rows[0], True)] + rows[1:],
    "string": lambda rows: [_first_entry(rows[0], "0")] + rows[1:],
    "float": lambda rows: [_first_entry(rows[0], 0.0)] + rows[1:],
    "short": lambda rows: [[] if isinstance(rows[0], int) else rows[0][:-1]] + rows[1:],
    "long": lambda rows: [[rows[0], 0] if isinstance(rows[0], int) else rows[0] + [0]] + rows[1:],
    "object": lambda rows: [{"row": rows[0]}] + rows[1:],
    "not-a-list": lambda rows: {"rows": rows},
}


# Every reader of JSON rows: (subcommand, the payload as a dict or as the
# construct arguments of an envelope, the path to its list of rows).
ROW_READERS = {
    "decompose-edges": ("decompose", K3_GRAPH, ("edges",)),
    "epsilon-edges": ("epsilon", K3_GRAPH, ("edges",)),
    "verify-augmentation": ("verify", ("mop", "4"), ("augmentation",)),
    "verify-certificate": ("verify", ("mop", "4"), ("certificate", "triangles")),
    "verify-faces": ("verify", ("hmp", "8"), ("faces",)),
    "verify-rotation": ("verify", ("sf", "8"), ("rotation", "rotations", 0)),
    "verify-outer-cycle": ("verify", ("mop", "4"), ("outer_cycle",)),
    "faces": ("faces", K3_ROTATION, ("rotations", 0)),
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
@pytest.mark.parametrize("reader", sorted(ROW_READERS))
def test_every_row_reader_refuses_the_same_bad_rows(capsys, tmp_path, reader, bad):
    command, base, path = ROW_READERS[reader]
    if isinstance(base, tuple):
        code, out, _ = run_cli(capsys, "construct", *base)
        assert code == 0
    else:
        out = json.dumps(base)
    payload = target = json.loads(out)
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = BAD_ROWS[bad](target[path[-1]])
    code, out, err = run_cli(capsys, command, write_json(tmp_path, "input.json", payload))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err


def _as_tuples(value):
    """value with every list in it, at any depth, made a tuple."""
    return tuple(map(_as_tuples, value)) if isinstance(value, list) else value


@pytest.mark.parametrize(
    "entry", [1, "0", None, 2.5, {"u": 1}, [True, 0], [1, 0.0], [1], [1, 0, 0]],
    ids=repr,
)
def test_a_bad_rotation_row_gets_one_message_from_code_and_from_json(capsys, tmp_path, entry):
    # Vertex 0 of K3 lists entry in place of its end of edge {0, 1}.
    rows = [[entry, [2, 0]], [[2, 0], [0, 0]], [[0, 0], [1, 0]]]
    message = "rotation of vertex 0: expected lists of 2 integers, got {!r}"
    for given, shown in ((rows, entry), (_as_tuples(rows), _as_tuples(entry))):
        with pytest.raises(graph_core.DomainError) as caught:
            analysis.RotationSystem(3, given)
        assert str(caught.value) == message.format(shown)
    path = write_json(tmp_path, "rotation.json", {"rotations": rows})
    assert run_cli(capsys, "faces", path) == (1, "", f"error: {message.format(entry)}\n")


def _edge_list(env):
    return env["graph"]["edges"]


# Field path -> the long value put there, made from the envelope itself.
LONG_VALUES = {
    "faces-in-object": (("faces",), lambda env: {"faces": env["faces"]}),
    "edges-as-order": (("graph", "order"), _edge_list),
    "edges-as-epsilon": (("epsilon",), _edge_list),
    "edges-as-family": (("family",), _edge_list),
    "edges-as-parameters": (("parameters",), _edge_list),
    "edges-in-object": (("graph", "edges"), lambda env: {"edges": _edge_list(env)}),
    # hmp adds no copies, so the edge list stands in for the augmentation.
    "augmentation-in-object": (("augmentation",), lambda env: {"rows": _edge_list(env)}),
    "edges-as-certificate-row": (("certificate", "triangles", 0), _edge_list),
}


@pytest.fixture(scope="module")
def hmp_1000_envelope():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["construct", "hmp", "1000"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(LONG_VALUES))
def test_reader_errors_shorten_the_value_they_show(capsys, tmp_path, hmp_1000_envelope, case):
    path, make = LONG_VALUES[case]
    env = target = json.loads(hmp_1000_envelope)
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = make(env)
    code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "input.json", env))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 300


def test_a_long_value_is_shown_cut_to_80_characters(capsys, tmp_path):
    long_value = "9" * 299 + "x"
    path = write_json(tmp_path, "graph.json", {"order": long_value, "edges": []})
    code, out, err = run_cli(capsys, "epsilon", path)
    assert (code, out) == (1, "")
    assert err == f"error: graph order must be an integer, got {repr(long_value)[:80]}...\n"
