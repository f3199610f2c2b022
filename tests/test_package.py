"""The package root resolves its names on first use; each subcommand loads only its layers."""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tridecomp
from tridecomp import decomposer


def test_every_exported_name_is_its_defining_modules_object():
    for name in tridecomp.__all__:
        module = importlib.import_module(f"tridecomp.{tridecomp._EXPORTS[name]}")
        obj = getattr(tridecomp, name)
        assert obj is getattr(module, name), name
        if hasattr(obj, "__module__"):
            assert obj.__module__ == module.__name__, name


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from tridecomp import *", namespace)
    for name in tridecomp.__all__:
        assert namespace[name] is getattr(tridecomp, name), name
    assert set(tridecomp.__all__) <= set(dir(tridecomp))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tridecomp.no_such_name


def test_root_returns_a_rebound_module_attribute(monkeypatch):
    def replacement(g):
        return None

    monkeypatch.setattr(decomposer, "find_decomposition", replacement)
    assert tridecomp.find_decomposition is replacement


_LOADED = """
import json, sys
from tridecomp import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "tridecomp" or m.startswith("tridecomp."))
print(json.dumps([code, loaded, sorted(sys.modules)]))
"""

_BARE = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _child_output(*args):
    proc = subprocess.run(
        [sys.executable, "-c", *args],
        capture_output=True,
        text=True,
        cwd=Path(tridecomp.__file__).resolve().parents[1],
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


def _modules_loaded_by(*argv):
    """(tridecomp modules, all modules) held by a child that ran the command argv."""
    proc, (code, loaded, every) = _child_output(_LOADED, *argv)
    assert code == 0, proc.stderr
    return set(loaded), set(every)


def test_each_subcommand_loads_only_its_layers(tmp_path):
    k4 = {"order": 4, "edges": [[u, v, 1] for u in range(4) for v in range(u + 1, 4)]}
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(k4), encoding="utf-8")
    envelope = tmp_path / "mop4.json"
    envelope.write_text(json.dumps(tridecomp.mop_construct(4).to_json_dict()), encoding="utf-8")
    rotation = tmp_path / "k3.json"
    rotation.write_text(
        json.dumps({"rotations": [[[1, 0], [2, 0]], [[2, 0], [0, 0]], [[0, 0], [1, 0]]]}),
        encoding="utf-8",
    )
    core = {"tridecomp", "tridecomp.cli", "tridecomp.graph_core"}
    base = core | {"tridecomp.decomposer"}
    search = base | {"tridecomp.augment"}
    # Against a bare interpreter's modules, so that a site that imports them is no failure.
    bare = set(_child_output(_BARE)[1])
    for argv, layers in (
        (("decompose", str(path)), base),
        (("epsilon", str(path)), search),
        (("sweep", "epsilon", "5"), search | {"tridecomp.sweep"}),
        # construct runs only the core checks, and verify never builds a family.
        (("construct", "mop", "4"), base | {"tridecomp.envelope", "tridecomp.families"}),
        (("verify", str(envelope)), base | {"tridecomp.envelope", "tridecomp.analysis"}),
        # faces runs no solver.
        (("faces", str(rotation)), core | {"tridecomp.analysis"}),
    ):
        loaded, every = _modules_loaded_by(*argv)
        assert loaded == layers, argv
        unwanted = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
        assert not (every - bare) & unwanted, argv
        if argv[0] == "epsilon":  # neither the class sweeps nor the structural predicates
            assert not loaded & {"tridecomp.sweep", "tridecomp.analysis"}


_ATEXIT = """
import atexit, importlib, json, pkgutil
import tridecomp
for module in pkgutil.iter_modules(tridecomp.__path__):
    importlib.import_module(f"tridecomp.{module.name}")
print(json.dumps(atexit._ncallbacks()))
"""


def test_no_module_registers_an_atexit_handler():
    # console_main ends the process with os._exit, so such a handler would never run.
    modules = {m.name for m in pkgutil.iter_modules(tridecomp.__path__)}
    assert set(tridecomp._EXPORTS.values()) | {"cli"} <= modules
    bare = _child_output("import atexit, json; print(json.dumps(atexit._ncallbacks()))")[1]
    assert _child_output(_ATEXIT)[1] == bare
