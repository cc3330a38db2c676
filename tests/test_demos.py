"""The fast demos run to completion as standalone scripts.

demos/rat_growth_conflict.py and demos/disease_mapping_lattice.py are not
run: each takes a minute or more, and the acceptance suite already covers
the rat split and the lattice model.  Every demo's imports from lgmsplit
are still checked, so a deleted name breaks a test rather than a demo.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import lgmsplit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the scripts import the same lgmsplit that this test process imported
PKG_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(lgmsplit.__file__)))
DEMOS = ["api_quickstart.py", "closed_form_checks.py",
         "disease_mapping_lattice.py", "rat_growth_conflict.py"]


@pytest.mark.parametrize("script", ["api_quickstart.py", "closed_form_checks.py"])
def test_demo_exits_zero(script):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PKG_PARENT + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", DEMOS)
def test_demo_imports_exist(script):
    with open(os.path.join(ROOT, "demos", script), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "lgmsplit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                checked += 1
    assert checked > 0
