"""Each script under demos/ runs to the end in a fresh interpreter."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("script", sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)], capture_output=True,
                          text=True, timeout=600, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
