"""Every runnable script imports and parses its arguments; the taxis sweep
runs on its preset, the paired benchmark runs one pair and records a run
without a timed round as failed, and the output comparison reports the
size of a difference."""

import json
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def committed_copy(top: Path) -> Path:
    """top/repo: a copy of this tree committed as the HEAD of a repository
    of its own, so the scripts that extract a revision run against it also
    where the tree is not a git checkout."""
    tree = top / "repo"
    shutil.copytree(SCRIPT_DIR.parent, tree, ignore=shutil.ignore_patterns(
        ".git", "out", "results", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info"))
    git = ["git", "-c", "user.name=tests", "-c", "user.email=tests@localhost",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run([*git, *args], cwd=tree, capture_output=True, check=True)
    return tree


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
    script = committed_copy(tmp_path) / "scripts" / "bench_pairs.py"
    done = subprocess.run([sys.executable, str(script), "HEAD",
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


# perfbench/run.py as it behaves when every round fails its checks: it
# exits 0, its result line holds no metrics and its rounds no wall times.
UNTIMED_RUN = """\
import json, sys
from pathlib import Path
arg = dict(zip(sys.argv[1::2], sys.argv[2::2]))
results = Path(__file__).parent / "results"
results.mkdir(exist_ok=True)
rounds = [{"timings": {}, "checks": [], "failed": 5, "wall": None}]
name = f"{arg['--workload']}-seed{arg['--seed']}-cloud11-trace{arg['--trace']}.json"
(results / name).write_text(json.dumps({"rounds": rounds}))
print("check failed: run: stub", file=sys.stderr)
print(json.dumps({"correct": False, "attempted": 5, "failed": 5, "metrics": {}}))
"""


def test_bench_pairs_records_a_run_without_a_timed_round_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", [str(SCRIPT_DIR), *sys.path])  # and it prepends more
    script = runpy.run_path(str(SCRIPT_DIR / "bench_pairs.py"))
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(UNTIMED_RUN)

    untimed = script["bench"](tmp_path, "march-2d", 1, 0.0, 0)
    assert untimed["exit_code"] == 0 and "check failed: run: stub" in untimed["stderr"]
    better = {"march_s": "lower"}
    timed = {"march_s": 1.0, "raw_setup_wall_s": 0.5, "correct": True,
             "attempted": 5, "failed": 0}
    report = script["workload_report"]([{"parent": timed, "change": untimed},
                                        {"parent": timed, "change": timed}], better)
    assert report["metrics"]["march_s"]["pairs"] == 1
    assert report["operations"]["parent"]["attempted"] == 5
    assert not report["all_correct"]


def test_both_trees_have_paths_of_one_length(tmp_path, monkeypatch):
    # A longer path on one side slowed that side's benchmark runs.
    script = committed_copy(tmp_path) / "scripts" / "same_outputs.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its tree's paths
    make_trees = runpy.run_path(str(script))["make_trees"]

    parent, change = make_trees("HEAD", tmp_path)
    assert len(str(parent)) == len(str(change))


def test_same_outputs_reports_the_size_of_a_difference(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its tree's paths
    report = runpy.run_path(str(SCRIPT_DIR / "same_outputs.py"))["report"]
    parent, change = tmp_path / "parent", tmp_path / "change"
    one_ulp = repr(float(np.nextafter(1.0, 2.0)))
    files = {"ulp.csv": ("node,deriv,k,bound\n0,x,1.0,\n1,xx,0.5,2.0\n",
                         f"node,deriv,k,bound\n0,x,{one_ulp},\n1,xx,0.5,2.0\n"),
             "header.csv": ("node,k\n0,1.0\n", "node,A\n0,1.0\n")}
    for name, (before, after) in files.items():
        for top, text in ((parent, before), (change, after)):
            (top / "run").mkdir(parents=True, exist_ok=True)
            (top / "run" / name).write_text(text)

    assert report("HEAD", parent, change, {"run": 0}, {"run": 0}) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: run/header.csv",
        "differs: run/ulp.csv (largest |a - b| / max |a|: node 0.0e+00, k 2.2e-16, bound 0.0e+00)",
        "1 commands, 2 files: 2 differences"]
