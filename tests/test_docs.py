"""The documented entry points keep working: every demo runs, the
benchmark's self-test passes, every name the README quick start, the demos
and the benchmark import from the top level is exported there, and every
name they import from a submodule exists in it."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import boreltangent

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def _top_level_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "boreltangent"
            and node.level == 0
            for alias in node.names}


def _documented_imports() -> dict[str, set[str]]:
    found = {}
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    found["README.md"] = set().union(*map(_top_level_imports, blocks))
    for path in DEMOS + sorted((REPO_ROOT / "perfbench").glob("*.py")):
        found[str(path.relative_to(REPO_ROOT))] = _top_level_imports(
            path.read_text(encoding="utf-8"))
    return found


def _submodule_imports(source: str) -> set[tuple[str, str]]:
    return {(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").startswith("boreltangent.")
            for alias in node.names}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=REPO_ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_benchmark_selftest_passes():
    # the benchmark's own checks: its output pins, its exit codes and a
    # smoke run of every workload; it writes only under .perfbench/
    done = subprocess.run([sys.executable, str(REPO_ROOT / "perfbench" / "selftest.py")],
                          cwd=REPO_ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-4000:]


def test_documented_imports_are_exported():
    found = _documented_imports()
    assert found["README.md"], "README quick start imports nothing from boreltangent"
    missing = {where: names - set(boreltangent.__all__)
               for where, names in found.items() if names - set(boreltangent.__all__)}
    assert missing == {}


def test_submodule_imports_resolve():
    # the benchmark imports private-path names at load time: losing one
    # would fail every workload
    found = {}
    for path in DEMOS + sorted((REPO_ROOT / "perfbench").glob("*.py")):
        found.update(dict.fromkeys(_submodule_imports(path.read_text(encoding="utf-8")),
                                   str(path.relative_to(REPO_ROOT))))
    assert ("boreltangent.enumeration", "iter_staircase_levels") in found
    missing = {f"{module}.{name}": where for (module, name), where in found.items()
               if not hasattr(importlib.import_module(module), name)}
    assert missing == {}


def test_namespace_is_all_and_all_resolves():
    assert len(set(boreltangent.__all__)) == len(boreltangent.__all__)
    for name in boreltangent.__all__:
        assert getattr(boreltangent, name) is not None
    public = {name for name, value in vars(boreltangent).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(boreltangent.__all__)


def test_exceptions_of_exported_modules_are_exported():
    modules = {sys.modules[getattr(boreltangent, name).__module__]
               for name in boreltangent.__all__}
    raised = {name for module in modules for name, value in vars(module).items()
              if inspect.isclass(value) and issubclass(value, (Exception, Warning))
              and value.__module__ == module.__name__ and not name.startswith("_")}
    assert raised <= set(boreltangent.__all__)
