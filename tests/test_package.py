"""The package root resolves its names on first use; each subcommand loads only its layers."""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tridecomp
from tridecomp import augment, decomposer


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
    # -S: no site or .pth file pre-imports anything; -c puts the cwd, src, on sys.path.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", *args],
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
    triangle = tmp_path / "triangle.json"
    triangle.write_text(json.dumps({"order": 3, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}),
                        encoding="utf-8")
    envelope = tmp_path / "mop4.json"
    envelope.write_text(json.dumps(tridecomp.mop_construct(4).to_json_dict()), encoding="utf-8")
    sc3 = tmp_path / "sc3.json"
    sc3.write_text(json.dumps(tridecomp.sc3_construct(7).to_json_dict()), encoding="utf-8")
    rotation = tmp_path / "k3.json"
    rotation.write_text(
        json.dumps({"rotations": [[[1, 0], [2, 0]], [[2, 0], [0, 0]], [[0, 0], [1, 0]]]}),
        encoding="utf-8",
    )
    core = {"tridecomp", "tridecomp.cli", "tridecomp.graph_core"}
    base = core | {"tridecomp.decomposer"}
    search = base | {"tridecomp.augment"}
    # Against a bare interpreter's modules: those that the interpreter itself loads are no failure.
    bare = set(_child_output(_BARE)[1])
    for argv, layers in (
        # The screen refuses K4 for its odd degrees, so no search is loaded.
        (("decompose", str(path)), core),
        (("decompose", str(triangle)), base),
        (("epsilon", str(path)), search),
        # The class extremes live in families beside the constructors they
        # recheck, and neither climbs: the class minimum asks each member one
        # question, and the class maximum is proved on the envelope of fan.
        (("sweep", "epsilon", "5"), base | {"tridecomp.analysis", "tridecomp.families"}),
        (("sweep", "xi", "5"), base | {"tridecomp.analysis", "tridecomp.families"}),
        # construct runs verify's whole checker on what it builds, and verify
        # neither builds a family nor searches, with a structure check or
        # without one (sc3).
        (("construct", "mop", "4"), base | {"tridecomp.analysis", "tridecomp.families"}),
        (("verify", str(envelope)), core | {"tridecomp.analysis"}),
        (("verify", str(sc3)), core | {"tridecomp.analysis"}),
        # faces runs no solver.
        (("faces", str(rotation)), core | {"tridecomp.analysis"}),
    ):
        loaded, every = _modules_loaded_by(*argv)
        assert loaded == layers, argv
        unwanted = {"dataclasses", "inspect", "argparse", "gettext", "locale", "typing"}
        assert not (every - bare) & unwanted, argv
        if argv[0] == "epsilon":  # neither the class sweeps nor the structural predicates
            assert not loaded & {"tridecomp.families", "tridecomp.analysis"}


def test_only_the_cli_imports_a_layer_inside_a_function():
    # The CLI loads each subcommand's layers on demand; every other module
    # imports the layers it needs at module level, so no call of a library
    # function loads a module.
    late = []
    for path in sorted(Path(tridecomp.__file__).resolve().parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    roots = ["tridecomp" if node.level else node.module.split(".")[0]]
                elif isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                else:
                    continue
                if "tridecomp" in roots:
                    late.append((path.name, func.name))
    assert late == []


def test_the_package_imports_only_the_standard_library():
    imported = set()
    for path in Path(tridecomp.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert imported
    assert {(name, m) for name, m in imported if m not in sys.stdlib_module_names} == set()


def test_augment_holds_only_the_single_graph_search():
    defined = {name for name, obj in vars(augment).items()
               if getattr(obj, "__module__", None) == augment.__name__}
    assert defined == {"epsilon_exact"}
    assert not hasattr(decomposer.CoverInstance, "certificate")


def test_decomposer_holds_only_the_search():
    defined = {name for name, obj in vars(decomposer).items()
               if getattr(obj, "__module__", None) == decomposer.__name__}
    assert defined == {"enumerate_triangles", "CoverInstance", "find_decomposition"}
    for name in ("Decomposition", "RejectReason", "coverage_error",
                 "_check", "_answer_checks", "_recheck", "fast_reject", "_edge_off_triangles"):
        assert not hasattr(decomposer, name), name


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


def test_every_python_block_of_the_readme_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
