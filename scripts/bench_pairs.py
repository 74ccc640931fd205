"""Time the working tree against a git revision in alternating perfbench pairs.

Usage:
    python scripts/bench_pairs.py REF --pairs 5,large-cloud-2d=10 --out BENCH.json

Extracts REF (the parent) with `git archive` and copies the working tree (the
change) into a temporary directory each, as scripts/same_outputs.py does.  For
every workload of BENCHMARK.json it runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each tree per pair, the parent first in even
pairs, with seed S = 1, 2, ... for the pairs; then --traced-pairs pairs of
TRACED_SECONDS with --trace 1 and the seeds after those.  The JSON written
holds each run's medians and its raw set-up wall time (the median over its
rounds, read from the tree's perfbench/results/), and for each end-to-end
metric the min, quartiles, median and max over the pairs, the change's wins
and the ratio of medians, with the Python and numpy versions and the core
count.  A run that fails is recorded with its exit code and the end of its
standard error, and the pairs it is in are left out of the statistics.
Progress goes to standard error.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from same_outputs import ROOT, make_trees

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
TRACED_SECONDS = 10.0


def parse_pairs(spec: str) -> dict[str, int]:
    """Pairs per workload from "N" or "N,WORKLOAD=M,...": N for every
    workload, M for the ones named."""
    default, *named = spec.split(",")
    pairs = {w["name"]: int(default) for w in BENCHMARK["workloads"]}
    for item in named:
        name, _, count = item.partition("=")
        if name not in pairs:
            raise argparse.ArgumentTypeError(f"unknown workload {name!r}")
        pairs[name] = int(count)
    return pairs


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree: its result line, and with --trace 0 the
    median raw set-up wall time of its rounds; or, if it fails, its exit
    code and the end of its standard error.  A run that exits 0 without
    metrics, because none of its rounds was timed, fails too."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    result = {} if done.returncode else json.loads(done.stdout.strip().splitlines()[-1])
    if not result.get("metrics"):
        sys.stderr.write(done.stderr)
        return {"exit_code": done.returncode, "stderr": done.stderr[-2000:]}
    run = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        results = tree / "perfbench" / "results"
        detail = json.loads(next(results.glob(f"{workload}-seed{seed}-*-trace0.json")).read_text())
        run["raw_setup_wall_s"] = statistics.median(
            r["wall"]["setup_s"] for r in detail["rounds"] if r["wall"])
    run.update({k: result[k] for k in ("correct", "attempted", "failed")})
    return run


def stats(values) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric over the pairs: each side's values and stats, the
    change's wins and the ratio of the medians."""
    out = {}
    for name, direction in better.items():
        vals = {side: [p[side][name] for p in pairs] for side in SIDES}
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        ps, cs = stats(vals["parent"]), stats(vals["change"])
        out[name] = {**vals, "change_wins": wins, "pairs": len(pairs),
                     "parent_stats": ps, "change_stats": cs,
                     "ratio_of_medians": cs["median"] / ps["median"],
                     "parent_iqr": ps["q3"] - ps["q1"]}
    return out


def workload_report(pairs: list[dict], better: dict[str, str]) -> dict:
    """A workload's pairs with the statistics and operation counts of those
    in which neither run failed, and whether every run ran and was correct."""
    ran = [p for p in pairs if not any("exit_code" in p[side] for side in SIDES)]
    return {
        "pairs": pairs,
        "metrics": summarize(ran, {**better, "raw_setup_wall_s": "lower"}) if ran else {},
        "operations": {side: {k: sum(p[side][k] for p in ran)
                              for k in ("attempted", "failed")} for side in SIDES},
        "all_correct": len(ran) == len(pairs) and all(
            p[side]["correct"] for p in ran for side in SIDES),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="the parent: a git revision such as HEAD or a commit")
    ap.add_argument("--pairs", type=parse_pairs, default="5",
                    help='pairs per workload, "N" or "N,WORKLOAD=M,..." (default 5)')
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                    help="--seconds of each untraced run (default %(default)s)")
    ap.add_argument("--traced-pairs", type=int, default=1,
                    help="pairs per workload with --trace 1 (default %(default)s)")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in BENCHMARK["workloads"]],
                    help="bench only this workload (repeatable; default every workload)")
    ap.add_argument("--out", type=Path, help="write the JSON here (default: standard output)")
    args = ap.parse_args(argv)

    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", args.ref], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    report = {
        "parent": args.ref,
        "parent_commit": commit,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1, "
                   "run in a fresh copy of each side (git archive of the parent; the "
                   "change's tracked and new files)",
        "protocol": f"alternating parent/change pairs, the parent first in even pairs, "
                    f"seeds 1, 2, ... per workload; --seconds {args.seconds:g} untraced, "
                    f"{TRACED_SECONDS:g} traced; values are perfbench's medians over "
                    f"the rounds of one run, rescaled to a quiet machine; min, quartiles "
                    f"(numpy percentile, linear) and median are over the pairs; "
                    f"raw_setup_wall_s is the median over a run's rounds of the unrescaled "
                    f"set-up wall time",
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cores": os.cpu_count(), "platform": platform.platform()},
        "end_to_end": {},
        "traced": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = dict(zip(SIDES, make_trees(args.ref, Path(tmp))))
        for workload in workloads:
            pairs = []
            for i in range(args.pairs[workload]):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"pair": i, "seed": i + 1, "first": order[0]}
                for side in order:
                    print(f"{workload} pair {i} seed {i + 1}: {side}", file=sys.stderr)
                    pair[side] = bench(trees[side], workload, i + 1, args.seconds, 0)
                pairs.append(pair)
            report["end_to_end"][workload] = workload_report(pairs, better)
        for workload in workloads:
            traced = []
            for i in range(args.traced_pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                seed = args.pairs[workload] + i + 1
                for side in order:
                    print(f"{workload} traced pair {i} seed {seed}: {side}", file=sys.stderr)
                    run = bench(trees[side], workload, seed, TRACED_SECONDS, 1)
                    traced.append({"pair": i, "seed": seed, "side": side, **run})
            report["traced"][workload] = traced

    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
