from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import transcube

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the child imports the same transcube as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(transcube.__file__)))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
