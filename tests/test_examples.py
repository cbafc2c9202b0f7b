"""The quick examples run to completion against the current API.

Each runs as its own process (``PYTHONPATH=src``, a temporary working
directory), so an API removal that breaks an example fails here rather
than silently.  ``boundary_detection_3d`` (~20 s) and ``reproduce_paper``
(which rewrites the committed report) stay out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "quickstart", "train_2d_boundary", "autotune_demo",
    "sliding_window_inference", "profiling_and_strategies"])
def test_example_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
