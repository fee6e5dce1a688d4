"""The quick demos and the README's Python snippet run to completion against
the current package.

Each runs in a child process, as a reader would run it, so a demo or a
snippet that imports a deleted name or calls a removed option fails here.
Demos 04 (timings) and 05 (a whole training run) take too long for this
suite.
"""

import os
import re
import subprocess
import sys

import pytest

import trifuse

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = os.path.join(ROOT, "demos")


def _run(args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(trifuse.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["01_autodiff_basics.py",
                                  "02_selective_scan.py",
                                  "03_prompt_routing.py"])
def test_demo_runs(name):
    _run([os.path.join(DEMOS, name)])


def test_readme_python_snippet_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            flags=re.M | re.S)
    assert len(blocks) == 1, "expected one python block in README.md"
    _run(["-c", blocks[0]])
