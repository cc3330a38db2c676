"""The fast demos run to completion as standalone scripts.

demos/rat_growth_conflict.py and demos/disease_mapping_lattice.py are left
out: each takes a minute or more, and the acceptance suite already covers
the rat split and the lattice model.
"""

import os
import subprocess
import sys

import pytest

import lgmsplit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the scripts import the same lgmsplit that this test process imported
PKG_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(lgmsplit.__file__)))


@pytest.mark.parametrize("script", ["api_quickstart.py", "closed_form_checks.py"])
def test_demo_exits_zero(script):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PKG_PARENT + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
