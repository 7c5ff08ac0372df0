"""The scripts under scripts/, run in a fresh interpreter as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_tables_five_generators():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"), "--qmax", "5"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("Table A: 12 isomorphism classes") for line in lines)
    assert ("  distinctness certificates: 2 central-direction, "
            "1 derivation-dimension, 63 dimension-split") in lines
