"""Check that the working tree writes the same output files as a git revision.

Usage:
    python scripts/same_outputs.py REF

Extracts REF with `git archive` and copies the working tree (its tracked and
untracked, not ignored, files) into a temporary directory each, and writes
the same file inputs into both: a 2D cloud file whose face nodes alternate
between the face and 5e-13 inside it, and an initial-capital field file.  In
both trees it runs `meshless-growth run` and `stability --dump-stencils` on
every preset, `run` on a scenario that reads those two files, `run` on
a 1D scenario whose 13-node cloud at jitter 0.45, seed 0, has two interior
nodes with both nearest nodes on one side, `verify --out`, `convergence --dim 1 --out` and `--dim 2 --out`, and
`perfbench/run.py --workload W --seed 1 --seconds 0 --trace 0` for every
workload of BENCHMARK.json.  Every file those commands write is compared byte
for byte, and so is each exit code; standard output is not, since it prints
paths, and neither is perfbench's results file, which holds timings.  Prints
one line per difference and exits 1 if there is any.  A differing CSV file
with the same header and row count on both sides is followed by the largest
|a - b| / max |a| of each numeric column, a at REF, and the names of its
other columns whose text differs.
"""

import argparse
import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from meshless_growth import PRESET_NAMES, generate_jittered  # noqa: E402
from oracles import nudge_faces, save_cloud  # noqa: E402

# Where each tree holds the file inputs, relative to its root.
INPUTS = "file-inputs"
FILE_SCENARIO = f"""\
[cloud]
kind = file
dim = 2
path = {INPUTS}/cloud.csv

[model]
chi = 1.0
g_kind = gaussian
g_level = 0.1
g_center = 0.5, 0.5

[initial]
k0_kind = file
k0_path = {INPUTS}/k0.csv

[scheme]
dt = 0.001
t_final = 0.2
snapshot_times = 0, 0.1, 0.2
stability_mode = check
stability_interval = 20
"""
# The 1D presets' physics on a rough cloud, where the star rule matters.
ROUGH_1D_SCENARIO = """\
[cloud]
kind = jittered
dim = 1
nodes_per_axis = 13
jitter = 0.45
seed = 0

[model]
p = 2.0
q = 2.0
delta = 0.02
g_kind = gaussian
g_level = 0.1
g_center = 0.5
g_sigma = 0.2

[initial]
k0_kind = piecewise
k0_points = 0:5, 0.25:5, 0.75:25, 1:25
A0_kind = constant
A0_value = 1.0

[scheme]
dt = 0.001
t_final = 5.0
snapshot_times = 0, 2.5, 5
stability_mode = check
stability_interval = 200
"""


def write_file_inputs(dest: Path) -> None:
    """The scenario of the file-inputs command and the files it reads: the
    12x12 cloud of the 2D presets with every other face node moved inside
    its face, so that the faces are not the extreme coordinates of the
    point set, and a capital bump, both written with repr; and the scenario
    of the rough-1D command."""
    dest.mkdir()
    cloud = nudge_faces(generate_jittered(12, 1.0, dim=2, jitter=0.1, seed=11))
    save_cloud(cloud, dest / "cloud.csv")
    k0 = 0.05 + np.exp(-((cloud.positions - 0.3) ** 2).sum(axis=1) / 0.03)
    (dest / "k0.csv").write_text("node,value\n" + "".join(
        f"{i},{float(v)!r}\n" for i, v in enumerate(k0)))
    (dest / "scenario.ini").write_text(FILE_SCENARIO)
    (dest / "rough-1d.ini").write_text(ROUGH_1D_SCENARIO)


def commands() -> dict[str, tuple[list[str], str]]:
    """(arguments, the directory they write) of each command by name, run
    from a tree's root; the CLI writes straight to out/<name>."""
    cli = [sys.executable, "-m", "meshless_growth.cli"]
    cmds = {}
    for preset in PRESET_NAMES:
        cmds[f"run-{preset}"] = [*cli, "run", "--preset", preset]
        cmds[f"stability-{preset}"] = [*cli, "stability", "--preset", preset, "--dump-stencils"]
    cmds["run-file-inputs"] = [*cli, "run", "--scenario", f"{INPUTS}/scenario.ini"]
    cmds["run-rough-1d"] = [*cli, "run", "--scenario", f"{INPUTS}/rough-1d.ini"]
    cmds["verify"] = [*cli, "verify"]
    for dim in (1, 2):
        cmds[f"convergence-{dim}d"] = [*cli, "convergence", "--dim", str(dim)]
    cmds = {name: ([*argv, "--out", f"out/{name}"], f"out/{name}") for name, argv in cmds.items()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in benchmark["workloads"]:
        cmds[f"perfbench-{workload['name']}"] = (
            [sys.executable, "perfbench/run.py", "--workload", workload["name"],
             "--seed", "1", "--seconds", "0", "--trace", "0"], "perfbench/out")
    return cmds


def extract(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def make_trees(ref: str, top: Path) -> tuple[Path, Path]:
    """top/parent, REF as `git archive` gives it, and top/change, a copy of
    the working tree, each with the file inputs."""
    # Names of one length: with "ref" and "work", timing HEAD against a clean
    # copy of itself read large-cloud-2d march_s 4-6 % slower on the "work"
    # side in 12 of 12 pairs, and with these no side was favoured.
    ref_tree, work_tree = top / "parent", top / "change"
    for tree in (ref_tree, work_tree):
        tree.mkdir()
    extract(ref, ref_tree)
    copy_working_tree(work_tree)
    for tree in (ref_tree, work_tree):
        write_file_inputs(tree / INPUTS)
    return ref_tree, work_tree


def run_all(tree: Path, cmds) -> dict[str, int]:
    """Exit code of each command; what it writes ends up in tree/out/<name>."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    codes = {}
    for name, (argv, written) in cmds.items():
        codes[name] = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL).returncode
        if written != f"out/{name}" and (tree / written).exists():
            shutil.move(tree / written, tree / "out" / name)
    return codes


def files(top: Path) -> set[Path]:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def column_differences(ref_file: Path, work_file: Path) -> str:
    """"name size, ..." over the columns of two CSV files with one header and
    row count, size the largest |a - b| / max |a| of a numeric column, a from
    ref_file and empty cells left out, and "name text" for another column
    whose text differs; "" for other files."""
    if ref_file.suffix != ".csv":
        return ""
    ref_rows, work_rows = (list(csv.reader(f.read_text().splitlines()))
                           for f in (ref_file, work_file))
    if not ref_rows or ref_rows[0] != work_rows[0] or len(ref_rows) != len(work_rows) \
            or any(len(row) != len(ref_rows[0]) for row in ref_rows + work_rows):
        return ""
    sizes = []
    for j, name in enumerate(ref_rows[0]):
        a_text, b_text = (np.array([row[j] for row in rows[1:]]) for rows in (ref_rows, work_rows))
        try:  # an empty cell, such as a step with no bound, reads as NaN
            a, b = (np.where(t == "", "nan", t).astype(float) for t in (a_text, b_text))
        except ValueError:
            if (a_text != b_text).any():
                sizes.append(f"{name} text")
            continue
        diff = np.where(a_text == b_text, 0.0, np.abs(a - b))  # equal text: no difference
        scale = np.abs(a[np.isfinite(a)]).max(initial=0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sizes.append(f"{name} {diff.max(initial=0.0) / scale if diff.any() else 0.0:.1e}")
    return ", ".join(sizes)


def report(ref: str, ref_out: Path, work_out: Path, ref_codes: dict[str, int],
           work_codes: dict[str, int]) -> int:
    """Print one line per difference between the outputs and exit codes at
    ref and in the working tree, then a summary; 1 if there is any."""
    diffs = [f"exit code of {name}: {ref_codes[name]} at {ref}, "
             f"{work_codes[name]} in the working tree"
             for name in ref_codes if ref_codes[name] != work_codes[name]]
    ref_files, work_files = files(ref_out), files(work_out)
    diffs += [f"only at {ref}: {p}" for p in sorted(ref_files - work_files)]
    diffs += [f"only in the working tree: {p}" for p in sorted(work_files - ref_files)]
    for p in sorted(ref_files & work_files):
        if not filecmp.cmp(ref_out / p, work_out / p, shallow=False):
            sizes = column_differences(ref_out / p, work_out / p)
            diffs.append(f"differs: {p}" + (f" (largest |a - b| / max |a|: {sizes})"
                                              if sizes else ""))
    for line in diffs:
        print(line)
    print(f"{len(ref_codes)} commands, {len(ref_files | work_files)} files: "
          f"{len(diffs)} difference{'' if len(diffs) == 1 else 's'}")
    return 1 if diffs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git revision to compare against, such as HEAD or a commit")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        ref_tree, work_tree = make_trees(args.ref, Path(tmp))
        cmds = commands()
        ref_codes, work_codes = run_all(ref_tree, cmds), run_all(work_tree, cmds)
        return report(args.ref, ref_tree / "out", work_tree / "out", ref_codes, work_codes)


if __name__ == "__main__":
    sys.exit(main())
