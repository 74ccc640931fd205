"""Benchmark of the meshless-growth solver: one workload per command.

    python3 perfbench/run.py --workload march-2d --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload, each in a fresh interpreter, until
--seconds have passed.  A round is the library sequence of `meshless-growth
run` (parse the scenario, build the cloud, the stencil table and the initial
state, march, write snapshots, the step log and the plot script) followed by
the four checks of checks.py, which are not timed.  Every time is rescaled to
a quiet machine by speed.SpeedSampler.  The last line of standard output is
one JSON object with medians over the rounds: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1, when the layer functions the
run reaches are wrapped in spans.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

try:
    from workloads import PRESET_CLOUD_SEED, ROOT, WORKLOADS, mg, scenario_text
except ImportError as exc:  # the solver's sources are not beside the benchmark
    sys.exit(f"perfbench: cannot import meshless_growth: {exc}")

import numpy as np
from checks import CheckResult, run_checks
from meshless_growth import scheme, stability, stencil
from meshless_growth.output import write_plot_script, write_run_log, write_snapshots
from speed import SpeedSampler
from tracing import Tracer

BENCH_DIR = ROOT / "perfbench"
OPERATIONS_PER_ROUND = 5  # the run and its four checks
ROUND_TIMEOUT_S = 120

# (span name, owner, attribute): the layer functions the solver calls by
# these names, wrapped only in traced runs.
LAYER_TARGETS = (
    ("cloud.select", stencil, "select_star"),
    ("stencil.solve", stencil, "compute_stencil"),
    ("stencil.derivatives", stencil.StencilTable, "derivatives"),
    ("scheme.closure_build", scheme.NeumannOperator, "__init__"),
    ("scheme.project", scheme.NeumannOperator, "project"),
    ("scheme.step", scheme, "step"),
    ("stability.dt_bound", stability, "dt_bound"),
    ("model.production", scheme, "production"),
)

END_TO_END_UNITS = {"setup_s": "s", "march_s": "s", "run_s": "s",
                    "steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cloud.select_s": "s",
    "stencil.solve_s": "s",
    "stencil.table_s": "s",
    "stencil.table_peak_mb": "MB",
    "stencil.derivatives_us": "us",
    "stencil.derivative_calls": "count",
    "scheme.closure_build_s": "s",
    "scheme.closure_mb": "MB",
    "scheme.project_us": "us",
    "scheme.step_us": "us",
    "scheme.loop_self_s": "s",
    "scheme.steps": "count",
    "stability.dt_bound_ms": "ms",
    "stability.dt_bound_calls": "count",
    "stability.adapt_events": "count",
    "model.production_us": "us",
    "output.run_log_s": "s",
    "output.snapshots_s": "s",
    "output.written_mb": "MB",
    "traced.run_s": "s",
}


@dataclass
class Execution:
    """One pass of the library sequence, with what the checks need."""

    config: object
    cloud: object
    table: object
    trajectory: object
    timings: dict[str, float]  # rescaled to the quiet machine
    wall: dict[str, float]     # as the clock read them
    written: list[str]
    table_peak_mb: float


@dataclass
class Round:
    timings: dict[str, float]
    checks: list[CheckResult]
    failed: int
    layers: dict[str, float] | None = None
    wall: dict[str, float] | None = None
    peak_rss_mb: float = 0.0  # of the process that ran the round


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(workload, seed: int, cloud_seed: int, out_dir: Path,
            tracer: Tracer | None = None) -> Execution:
    """The sequence of `meshless-growth run`, timed from outside."""
    config = workload.config(seed, cloud_seed, str(out_dir))
    text = scenario_text(config)
    sampler = SpeedSampler()
    span = tracer.span if tracer else (lambda name: nullcontext())
    with sampler, tracer.patched(LAYER_TARGETS) if tracer else nullcontext():
        rss_before_table = peak_rss_mb()
        t0 = perf_counter()
        scenario = mg.parse_scenario_text(text, name=workload.name)
        cloud = scenario.cloud.build()
        with span("stencil.table"):
            table = scenario.star.build_table(cloud)
        rss_after_table = peak_rss_mb()
        initial = scenario.initial_state(cloud)
        t1 = perf_counter()
        with span("scheme.run"):
            traj = mg.run(cloud, table, scenario.model, initial, scenario.scheme)
        t2 = perf_counter()
        with span("output.snapshots"):
            written = write_snapshots(traj, out_dir)
        with span("output.run_log"):
            written.append(write_run_log(traj, out_dir))
        written.append(write_plot_script(traj, out_dir))
        t3 = perf_counter()
    quiet = sampler.quiet_seconds
    timings = {"setup_s": quiet(t0, t1), "march_s": quiet(t1, t2), "run_s": quiet(t0, t3)}
    timings["steps_per_s"] = traj.log[-1].step / timings["march_s"]
    wall = {"setup_s": t1 - t0, "march_s": t2 - t1, "run_s": t3 - t0,
            "probe_s": statistics.median(d for _, d in sampler.samples)}
    return Execution(config, cloud, table, traj, timings, wall, written,
                     rss_after_table - rss_before_table)


def run_round(workload, seed: int, cloud_seed: int, out_dir: Path, traced: bool) -> Round:
    tracer = Tracer() if traced else None
    try:
        ex = execute(workload, seed, cloud_seed, out_dir, tracer)
    except Exception:  # a round that raises counts as failed; the run goes on
        traceback.print_exc()
        return Round({}, [CheckResult("run", False, "raised")], OPERATIONS_PER_ROUND)

    traj = ex.trajectory
    checks = run_checks(ex.config, ex.cloud, ex.table, traj)
    failed = int(traj.diverged is not None) + sum(not c.ok for c in checks)
    if not traced:
        return Round(ex.timings, checks, failed, wall=ex.wall)
    layers = {
        "cloud.select_s": tracer.total["cloud.select"],
        "stencil.solve_s": tracer.total["stencil.solve"],
        "stencil.table_s": tracer.total["stencil.table"],
        "stencil.table_peak_mb": ex.table_peak_mb,
        "stencil.derivatives_us": tracer.mean_us("stencil.derivatives"),
        "stencil.derivative_calls": tracer.count["stencil.derivatives"],
        "scheme.closure_build_s": tracer.total["scheme.closure_build"],
        "scheme.closure_mb": closure_mb(ex.cloud, ex.table),
        "scheme.project_us": tracer.mean_us("scheme.project"),
        "scheme.step_us": tracer.mean_us("scheme.step"),
        "scheme.loop_self_s": tracer.self_time["scheme.run"],
        "scheme.steps": traj.log[-1].step,
        "stability.dt_bound_ms": tracer.mean_us("stability.dt_bound") / 1e3,
        "stability.dt_bound_calls": tracer.count["stability.dt_bound"],
        "stability.adapt_events": sum(ev.action == "adapt" for ev in traj.stability_events),
        "model.production_us": tracer.mean_us("model.production"),
        "output.run_log_s": tracer.total["output.run_log"],
        "output.snapshots_s": tracer.total["output.snapshots"],
        "output.written_mb": sum(os.path.getsize(p) for p in ex.written) / 2 ** 20,
        "traced.run_s": ex.wall["run_s"],
    }
    # Layer times take the round's rescaling as a whole.
    scale = ex.timings["run_s"] / ex.wall["run_s"]
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "ms", "us"):
            layers[name] *= scale
    return Round(ex.timings, checks, failed, layers, wall=ex.wall)


def closure_mb(cloud, table) -> float:
    """Array memory the boundary closure holds for the whole march."""
    op = scheme.NeumannOperator(cloud, table)
    return sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray)) / 2 ** 20


def summarize(rounds: list[Round], traced: bool) -> dict[str, float]:
    """Median over the rounds that ran."""
    ok = [r for r in rounds if r.timings]
    if not ok:
        return {}
    if traced:
        return {k: statistics.median(r.layers[k] for r in ok) for k in PER_LAYER_UNITS}
    metrics = {k: statistics.median(r.timings[k] for r in ok)
               for k in ("setup_s", "march_s", "run_s", "steps_per_s")}
    metrics["peak_rss_mb"] = statistics.median(r.peak_rss_mb for r in ok)
    return metrics


def round_in_child(args) -> Round:
    """One round in a fresh interpreter, as each `meshless-growth run` is.

    Rounds that share a process drift: from the third round on, the
    large-cloud march runs 30-50 % slower than in a fresh process.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--cloud-seed", str(args.cloud_seed),
           "--trace", str(args.trace), "--one-round"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
        fields = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return Round({}, [CheckResult("run", False, repr(exc))], OPERATIONS_PER_ROUND)
    fields["checks"] = [CheckResult(**c) for c in fields["checks"]]
    return Round(**fields)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="draws the initial capital bumps")
    p.add_argument("--cloud-seed", type=int, default=PRESET_CLOUD_SEED,
                   help="jitter seed of the node cloud (default: the presets' %(default)s)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="run whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--one-round", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    if args.one_round:
        out_dir = BENCH_DIR / "out" / workload.name
        rnd = run_round(workload, args.seed, args.cloud_seed, out_dir, traced)
        rnd.peak_rss_mb = peak_rss_mb()
        print(json.dumps(asdict(rnd)))
        return 0

    rounds: list[Round] = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        rounds.append(round_in_child(args))

    metrics = summarize(rounds, traced)
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": OPERATIONS_PER_ROUND * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    detail = {"args": vars(args), "rounds": [asdict(r) for r in rounds], "result": result}
    name = f"{workload.name}-seed{args.seed}-cloud{args.cloud_seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(detail, indent=1) + "\n")
    for r in rounds:
        for c in r.checks:
            if not c.ok:
                print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
