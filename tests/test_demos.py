"""Each narrative script in demos/ runs to completion in a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rototrap

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rototrap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    if name == "invariant_drift.py":
        header = (tmp_path / "invariant_drift.csv").read_text().splitlines()[0]
        assert header == "t,G0,G1,G2"
