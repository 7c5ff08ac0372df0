"""The scripts under scripts/, run in a fresh interpreter as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def reproduce_tables(qmax):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"), "--qmax", qmax],
        env=env, capture_output=True, text=True, timeout=300)


def test_reproduce_tables_five_generators():
    proc = reproduce_tables("5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("Table A: 12 isomorphism classes") for line in lines)
    assert ("  splits by invariant: 1 derivation-dimension, "
            "1 dimensions, 2 nonsingular") in lines
    assert not any(line.startswith("  open block") for line in lines)


def test_reproduce_tables_six_generators_names_the_open_pair():
    proc = reproduce_tables("6")
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(
        "Table A: 92 rows: 32 to 92 isomorphism classes, 12 blocks open")
    assert ("  splits by invariant: 5 derivation-dimension, "
            "1 dimensions, 2 nonsingular") in lines
    blocks = [line for line in lines if line.startswith("  open block: ")]
    assert len(blocks) == 12
    assert blocks[0] == ("  open block: cases 15, 25; shared dimensions (3, 6), "
                         "derivation_dim 30, nonsingular False")
    assert lines.index(blocks[-1]) < lines.index(
        next(line for line in lines if line.startswith("Table B:")))


def test_reproduce_tables_rejects_nine_generators():
    proc = reproduce_tables("9")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage error: the regular graph census is sized for q <= 8, got 9\n"


@pytest.mark.parametrize("qmax", ["0", "-1"])
def test_reproduce_tables_rejects_fewer_than_one_generator(qmax):
    proc = reproduce_tables(qmax)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"usage error: --qmax must be at least 1, got {qmax}\n"
