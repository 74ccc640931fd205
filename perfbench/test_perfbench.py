"""Tests of the benchmark itself: python -m pytest perfbench

Each workload runs at a reduced size and passes its checks, and each check
rejects a deliberately corrupted output.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import speed
from tracing import Tracer
from workloads import PRESET_CLOUD_SEED, ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent


def reduced(workload):
    """The workload on at most 12x12 nodes, to a fiftieth of its horizon."""
    t_final = workload.t_final / 50
    return replace(workload, t_final=t_final, snapshot_times=(0.0, t_final / 2, t_final),
                   nodes_per_axis=workload.nodes_per_axis and 12)


@pytest.fixture(scope="module")
def executions(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return {name: run.execute(reduced(w), 3, PRESET_CLOUD_SEED, out / name)
            for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_workload_passes_every_check(executions, name):
    ex = executions[name]
    results = checks.run_checks(ex.config, ex.cloud, ex.table, ex.trajectory)
    assert [c.name for c in results] == ["stencil_exactness", "zero_flux",
                                         "technology_growth", "completion"]
    assert all(c.ok for c in results), results


def test_traced_round_reports_every_layer(tmp_path):
    originals = [vars(owner)[attr] for _, owner, attr in run.LAYER_TARGETS]
    rnd = run.run_round(reduced(WORKLOADS["taxis-adapt-2d"]), 3, PRESET_CLOUD_SEED,
                        tmp_path, traced=True)
    assert rnd.failed == 0
    assert set(rnd.layers) == set(run.PER_LAYER_UNITS)
    steps = rnd.layers["scheme.steps"]
    assert steps > 0
    assert rnd.layers["stencil.derivative_calls"] == 2 * steps  # k and A
    for key in ("cloud.select_s", "stencil.solve_s", "stencil.derivatives_us",
                "scheme.closure_build_s", "scheme.closure_mb", "scheme.project_us",
                "scheme.step_us", "stability.dt_bound_ms", "model.production_us",
                "output.run_log_s", "output.snapshots_s", "output.written_mb"):
        assert rnd.layers[key] > 0, key
    # The wrappers are gone once the round ends.
    assert [vars(owner)[attr] for _, owner, attr in run.LAYER_TARGETS] == originals


def test_stencil_exactness_rejects_a_perturbed_row(executions):
    ex = executions["march-2d"]
    table = ex.table
    saved = table.neighbor_coeffs.copy()
    try:
        table.neighbor_coeffs[17, 3, 2] *= 1 + 1e-6
        result = checks.stencil_exactness(ex.cloud.positions, table.derivatives)
    finally:
        table.neighbor_coeffs[...] = saved
    assert not result.ok
    assert "node 17" in result.detail


def test_zero_flux_rejects_a_nudged_boundary_value(executions):
    ex = executions["march-2d"]
    k = ex.trajectory.final.k.copy()
    node = int(np.flatnonzero(checks.face_normals(ex.cloud.positions, 1.0)[0])[5])
    k[node] += 1e-6 * np.abs(k).max()
    result = checks.zero_flux(ex.cloud.positions, 1.0, ex.table.derivatives, (k,))
    assert not result.ok


@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-6])
def test_technology_growth_rejects_a_rescaled_A(executions, factor):
    ex = executions["taxis-adapt-2d"]
    times = np.array([rec.time for rec in ex.trajectory.log])
    args = (ex.cloud.positions, 1.0, ex.config, times)
    assert checks.technology_growth(*args, ex.trajectory.final.A).ok
    assert not checks.technology_growth(*args, ex.trajectory.final.A * factor).ok


def test_completion_rejects_a_short_or_broken_run(executions):
    ex = executions["large-cloud-2d"]
    traj = ex.trajectory
    t_final = float(ex.config["scheme"]["t_final"])
    assert checks.completion(traj, t_final).ok
    assert not checks.completion(traj, 2 * t_final).ok
    broken = replace(traj.final, k=np.where(np.arange(traj.final.k.size) == 4,
                                            np.inf, traj.final.k))
    assert not checks.completion(replace(traj, final=broken), t_final).ok
    diverged = replace(traj, diverged=run.mg.DivergenceError(node=4, time=0.1))
    assert not checks.completion(diverged, t_final).ok


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            pass
    assert tracer.count == {"outer": 1, "inner": 2}
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"], abs=1e-12)


def test_quiet_seconds_drops_the_probes_and_rescales():
    sampler = speed.SpeedSampler()
    slow = 2 * speed.QUIET_PROBE_S  # the machine runs at half speed
    sampler.samples = [(0.0, slow), (1.0, slow), (3.0, speed.QUIET_PROBE_S)]
    assert sampler.quiet_seconds(0.5, 1.5) == pytest.approx((1.0 - slow) / 2)
    assert sampler.quiet_seconds(2.9, 3.1) == pytest.approx(0.2 - speed.QUIET_PROBE_S)


def test_sampler_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        sum(range(10 ** 6))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, units", [("0", run.END_TO_END_UNITS),
                                          ("1", run.PER_LAYER_UNITS)])
def test_command_prints_one_result_line(trace, units):
    proc = _run_cli("--workload", "march-2d", "--seed", "4", "--seconds", "0",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (run.OPERATIONS_PER_ROUND, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if k != "stability.adapt_events")


def test_command_fails_without_the_solver_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli("--workload", "march-2d", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
