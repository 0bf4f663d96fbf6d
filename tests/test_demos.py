"""Every script under demos/ runs with its defaults against this checkout."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_with_defaults(path):
    # the child imports deflap from this checkout's src, as the test process does
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cp = subprocess.run([sys.executable, path], capture_output=True, text=True, env=env, timeout=120)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip()
