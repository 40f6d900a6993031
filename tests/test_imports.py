"""Every name a failprop module imports is used in that module, and each
command loads only the modules it runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import failprop
import failprop.cli
from failprop.rng import splitmix64

SRC = Path(failprop.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_has_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_checker_sees_an_unused_import():
    tree = ast.parse("from typing import IO, Iterable\nimport json\nx: Iterable[int] = []\n")
    assert _unused_imports(tree) == ["IO", "json"]


# --- what loads what ---------------------------------------------------------

EPIDEMIC = {"failprop", "failprop.cli", "failprop.config", "failprop.epidemic",
            "failprop.metrics", "failprop.rng", "failprop.topology"}
CASCADE = {"failprop", "failprop.cli", "failprop.config", "failprop.cascades",
           "failprop.topology"}

SWEEP_CFG = """
[topology]
generate=ring:8
[model]
model=SIR
beta=0.1
delta1=0.3
seeds=0
[run]
max_ticks=10
n_runs=2
[sweep]
grid=0.1,0.4
"""


def _loaded_after(code: str, *argv: str, cwd=None) -> tuple[object, set[str]]:
    """Run `code` in a fresh interpreter; the value it leaves in `result`,
    and the failprop modules loaded by then."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps([result, [m for m in sys.modules if m.partition('.')[0] == 'failprop']]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    result, modules = json.loads(proc.stdout.splitlines()[-1])
    return result, set(modules)


def _main(tmp_path, *argv: str) -> tuple[int, set[str]]:
    """`main(argv)`'s exit code in a fresh interpreter run in `tmp_path`,
    with the two config files written there, and the modules it loaded."""
    (tmp_path / "sweep.cfg").write_text(SWEEP_CFG)
    (tmp_path / "no-controller.cfg").write_text(
        "[topology]\ngenerate=ring:5\n[scenario]\nkind=vertical\n[capacity]\n0=1\n")
    return _loaded_after("import sys\nfrom failprop.cli import main\nresult = main(sys.argv[1:])",
                         *argv, "--out", "o", cwd=tmp_path)


@pytest.mark.parametrize("argv,loaded", [
    (["epidemic", "--config", "fig3-sid"], EPIDEMIC),
    (["sweep", "--config", "sweep.cfg"], EPIDEMIC),
    (["cascade", "--config", "fig5a-vertical"], CASCADE),
    (["cascade", "--config", "fig5b-horizontal"], CASCADE),
], ids=["epidemic", "sweep", "cascade-vertical", "cascade-horizontal"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    assert _main(tmp_path, *argv) == (0, loaded)


def test_a_cascade_input_error_exits_2_without_the_epidemic_engine(tmp_path):
    # main names ScenarioError ("network has no controller nodes") without
    # importing the other engines' error classes
    assert _main(tmp_path, "cascade", "--config", "no-controller.cfg") == (2, CASCADE)


def test_import_failprop_loads_no_submodule():
    assert _loaded_after("import failprop\nresult = None") == (None, {"failprop"})
    # a defining module read as an attribute loads that module alone
    assert _loaded_after("import failprop\nresult = failprop.rng.splitmix64(1)") == (
        splitmix64(1), {"failprop", "failprop.rng"})


def test_every_export_is_the_object_its_defining_module_binds():
    for name in failprop.__all__:
        obj = getattr(failprop, name)
        assert obj.__module__.startswith("failprop."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from failprop import *", namespace)
    assert set(failprop.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(failprop, name) for name in failprop.__all__)


def test_exports_are_listed_and_unknown_names_are_attribute_errors():
    assert len(failprop.__all__) == 41
    assert set(failprop.__all__) <= set(dir(failprop))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        failprop.no_such_name
    assert not hasattr(failprop.cli, "no_such_name")


@pytest.mark.parametrize("name,module", [
    ("run", "epidemic"), ("monte_carlo", "epidemic"), ("threshold_sweep", "metrics"),
    ("run_vertical", "cascades"), ("run_horizontal", "cascades"),
])
def test_cli_resolves_the_engine_functions_read_off_it(name, module):
    assert getattr(failprop.cli, name) is getattr(importlib.import_module(f"failprop.{module}"), name)
