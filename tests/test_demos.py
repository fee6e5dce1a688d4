"""The quick demos run to completion against the current package.

Each runs in a child process, as a reader would run it, so a demo that
imports a deleted name or calls a removed option fails here. Demos 04
(timings) and 05 (a whole training run) take too long for this suite.
"""

import os
import subprocess
import sys

import pytest

import trifuse

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


@pytest.mark.parametrize("name", ["01_autodiff_basics.py",
                                  "02_selective_scan.py",
                                  "03_prompt_routing.py"])
def test_demo_runs(name):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(trifuse.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
