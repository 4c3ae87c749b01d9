"""The narrative demos run to completion.

statistics_probes is left out: it takes about 10 s, and its probes are
covered by test_stats.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["phase1_generation", "rotation_walkthrough",
                                  "full_decomposition"])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
