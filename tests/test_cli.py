"""End-to-end tests of the command line driver via main(argv)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tridecomp
from tridecomp.cli import main


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
    assert "fail: augmentation lists 0 added copies, envelope claims 1" in out
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


def test_epsilon_scale_limit_exit_code(capsys, tmp_path):
    k12 = {
        "order": 12,
        "edges": [[u, v, 1] for u in range(12) for v in range(u + 1, 12)],
    }
    path = write_json(tmp_path, "k12.json", k12)
    code, _, err = run_cli(capsys, "epsilon", path)
    assert code == 3
    assert "error:" in err


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


def test_sweep_epsilon(capsys, monkeypatch):
    monkeypatch.delenv("TRIDECOMP_SWEEP_CEILING", raising=False)
    code, out, _ = run_cli(capsys, "sweep", "epsilon", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "epsilon",
        "n": 4,
        "value": 1,
        "witness": {"order": 4, "chords": [[0, 2]]},
    }


def test_sweep_xi(capsys, monkeypatch):
    monkeypatch.delenv("TRIDECOMP_SWEEP_CEILING", raising=False)
    code, out, _ = run_cli(capsys, "sweep", "xi", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert payload["witness"] == {"order": 5, "chords": [[0, 2], [0, 3]]}


def test_sweep_ceiling_and_override(capsys, monkeypatch):
    monkeypatch.delenv("TRIDECOMP_SWEEP_CEILING", raising=False)
    code, _, err = run_cli(capsys, "sweep", "epsilon", "13")
    assert code == 3
    assert "error:" in err
    monkeypatch.setenv("TRIDECOMP_SWEEP_CEILING", "5")
    code, _, err = run_cli(capsys, "sweep", "epsilon", "6")
    assert code == 3
    monkeypatch.setenv("TRIDECOMP_SWEEP_CEILING", "6")
    code, out, _ = run_cli(capsys, "sweep", "epsilon", "6")
    assert code == 0
    assert json.loads(out)["value"] == 0
    monkeypatch.setenv("TRIDECOMP_SWEEP_CEILING", "many")
    code, _, err = run_cli(capsys, "sweep", "epsilon", "6")
    assert code == 1
    assert "TRIDECOMP_SWEEP_CEILING" in err


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


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "construct", "mop", "9")
    second = run_cli(capsys, "construct", "mop", "9")
    assert first == second
    first = run_cli(capsys, "construct", "sf", "9")
    second = run_cli(capsys, "construct", "sf", "9")
    assert first == second


def test_module_entry_point():
    # Run from the directory holding the package under test, so that the
    # child imports it even when it is not installed.
    proc = subprocess.run(
        [sys.executable, "-m", "tridecomp", "construct", "mop", "3"],
        capture_output=True,
        text=True,
        cwd=Path(tridecomp.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["family"] == "mop"


def _drop_ring_edge(env):
    env["graph"]["edges"] = [e for e in env["graph"]["edges"] if e[:2] != [5, 6]]


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
        pytest.param(
            ("kop", "5", "2"),
            lambda env: env.pop("parameters"),
            CORE_OK.format(eps=2)
            + "fail: layered envelope has no usable m, k parameters\n1 check(s) failed\n",
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
    ],
)
def test_verify_structure_check_failure_lines(capsys, tmp_path, argv, tamper, expected):
    code, out, _ = run_cli(capsys, "construct", *argv)
    assert code == 0
    env = json.loads(out)
    tamper(env)
    code, out, err = run_cli(capsys, "verify", write_json(tmp_path, "tampered.json", env))
    assert (code, out, err) == (1, expected, "")


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
