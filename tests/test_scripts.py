"""Every runnable script imports and parses its arguments; the taxis sweep
runs on its preset."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    done = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_taxis_sweep_pulls_the_centroid_toward_the_technology_bump():
    done = subprocess.run([sys.executable, str(SCRIPT_DIR / "taxis_sweep.py"), "--chis", "0,1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    centroid = dict(re.findall(r"chi=(\S+) .* centroid x=(\S+)", done.stdout))
    assert set(centroid) == {"0", "1"}, done.stdout
    # the growth bump sits at x = 0.1 (growth-1d-chi1)
    assert abs(float(centroid["1"]) - 0.1) < abs(float(centroid["0"]) - 0.1)
