"""Every runnable script imports and parses its arguments; the taxis sweep
runs on its preset, and the paired benchmark runs one pair."""

import json
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


def test_bench_pairs_runs_one_pair_against_head(tmp_path):
    out = tmp_path / "pairs.json"
    done = subprocess.run([sys.executable, str(SCRIPT_DIR / "bench_pairs.py"), "HEAD",
                           "--workload", "march-2d", "--pairs", "1", "--seconds", "0",
                           "--traced-pairs", "0", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["machine"]["cores"] >= 1 and report["machine"]["numpy"]
    bench = report["end_to_end"]["march-2d"]
    assert bench["all_correct"]
    (pair,) = bench["pairs"]
    for side in ("parent", "change"):
        assert pair[side]["march_s"] > 0 and pair[side]["raw_setup_wall_s"] > 0
    march = bench["metrics"]["march_s"]
    assert march["pairs"] == 1 and march["change_wins"] in (0, 1)
    assert march["parent_stats"]["median"] == pair["parent"]["march_s"]
    assert report["traced"] == {"march-2d": []}


def test_both_trees_have_paths_of_one_length(tmp_path, monkeypatch):
    # A longer path on one side slowed that side's benchmark runs.
    monkeypatch.syspath_prepend(str(SCRIPT_DIR))
    from same_outputs import make_trees

    parent, change = make_trees("HEAD", tmp_path)
    assert len(str(parent)) == len(str(change))
