"""Smoke test: the demos run to completion.

Every demo runs here, about 20 s together; 03 and 05 drive compatgnn end
to end and 02 trains each preset once on an easy and a hard graph.
Each demo runs in its own temporary working directory, so artifacts such
as demo_out/ land there.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_homophily_and_compatibility.py",
         "02_message_passing_presets.py",
         "03_compatibility_guided_training.py",
         "04_synthetic_fidelity.py",
         "05_bench_artifacts.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
