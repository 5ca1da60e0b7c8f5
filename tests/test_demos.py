"""The demos import only names the package still has, and the fast ones run.

Reading a demo's imports finds one broken by a removed or renamed name; the
demos that take well under a second are also run, which finds one that calls
a removed function or reads a removed attribute. The slower ones (03, 04)
are import-checked only.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FAST_DEMOS = [d for d in DEMOS if d.name[:2] in ("01", "02", "05")]


def test_demos_found():
    assert DEMOS
    assert len(FAST_DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "qmcmc" or node.module.startswith("qmcmc.")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{demo.name}:{node.lineno}: {node.module} has no {alias.name!r}")


@pytest.mark.parametrize("demo", FAST_DEMOS, ids=[d.name for d in FAST_DEMOS])
def test_fast_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
