import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, child_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
