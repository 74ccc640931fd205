"""Command line behavior: outputs, exit codes, determinism."""

import csv
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

from meshless_growth import (
    PRESET_NAMES,
    March,
    State,
    dt_bound,
    generate_regular,
    get_preset,
    run,
)
from meshless_growth.cli import main
from meshless_growth.output import write_stability_report
from oracles import save_cloud

QUICK = """\
[cloud]
kind = jittered
dim = 1
nodes_per_axis = 9
jitter = 0.2
seed = 5

[model]
delta = 0.05
p = 2.0
q = 2.0

[initial]
k0_kind = piecewise
k0_points = 0:1, 0.5:3, 1:1

[scheme]
dt = 0.002
t_final = 0.1
snapshot_times = 0, 0.05, 0.1
stability_mode = check
stability_interval = 10
"""

QUICK_2D = """\
[cloud]
kind = regular
dim = 2
nodes_per_axis = 5

[initial]
k0_kind = constant
k0_value = 1.0

[scheme]
dt = 0.002
t_final = 0.004
snapshot_times = 0, 0.002, 0.004
"""

UNSTABLE = """\
[cloud]
kind = regular
dim = 1
nodes_per_axis = 9

[initial]
k0_kind = piecewise
k0_points = 0:0, 0.5:10, 1:0

[scheme]
dt = 0.1
t_final = 10.0
"""


def write_scenario(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_writes_outputs(tmp_path, capsys):
    scen = write_scenario(tmp_path, QUICK)
    out = tmp_path / "results"
    assert main(["run", "--scenario", scen, "--out", str(out)]) == 0
    produced = {p.name for p in out.iterdir()}
    assert produced == {"run_log.csv", "plot.gp", "snap_t0.000000.csv",
                        "snap_t0.050000.csv", "snap_t0.100000.csv"}
    log = read_rows(out / "run_log.csv")
    assert log[0] == ["step", "time", "max_k", "min_k", "clamp_count", "dt_bound"]
    assert len(log) == 52  # header + initial record + 50 steps
    snap = read_rows(out / "snap_t0.100000.csv")
    assert snap[0] == ["node", "x", "k", "A"]
    assert len(snap) == 10
    assert "results in" in capsys.readouterr().out


def test_run_is_deterministic(tmp_path):
    scen = write_scenario(tmp_path, QUICK)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", scen, "--out", str(a)]) == 0
    assert main(["run", "--scenario", scen, "--out", str(b)]) == 0
    for name in ("run_log.csv", "snap_t0.100000.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_plot_script_plots_every_snapshot(tmp_path):
    out_1d, out_2d = tmp_path / "1d", tmp_path / "2d"
    assert main(["run", "--scenario", write_scenario(tmp_path, QUICK), "--out", str(out_1d)]) == 0
    script = (out_1d / "plot.gp").read_text()
    at = [script.index(f'"snap_t{t}.csv" skip 1 using 2:3 with linespoints')
          for t in ("0.000000", "0.050000", "0.100000")]
    assert at == sorted(at)

    scen = write_scenario(tmp_path, QUICK_2D, "2d.ini")
    assert main(["run", "--scenario", scen, "--out", str(out_2d)]) == 0
    expected = []
    for t, name in [("0", "snap_t0.000000.csv"), ("0.002", "snap_t0.002000.csv"),
                    ("0.004", "snap_t0.004000.csv")]:
        assert (out_2d / name).exists()
        expected += [f'set title "k at t={t}"',
                     f'splot "{name}" skip 1 using 2:3:4 with lines', "pause -1"]
    lines = (out_2d / "plot.gp").read_text().splitlines()
    assert lines[-len(expected):] == expected


def test_seed_override_changes_cloud(tmp_path):
    scen = write_scenario(tmp_path, QUICK)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", scen, "--out", str(a)]) == 0
    assert main(["run", "--scenario", scen, "--out", str(b), "--seed", "77"]) == 0
    assert (a / "snap_t0.000000.csv").read_bytes() != (b / "snap_t0.000000.csv").read_bytes()


def test_seed_override_on_a_regular_cloud_is_rejected_like_the_key(tmp_path, capsys):
    scen = write_scenario(tmp_path, UNSTABLE)
    assert main(["run", "--scenario", scen, "--out", str(tmp_path / "x"), "--seed", "2"]) == 1
    assert capsys.readouterr().err == "error: cloud.seed: not read by kind = regular\n"
    assert not (tmp_path / "x").exists()


def test_empty_out_is_rejected_before_the_march(capsys):
    for command in ("run", "stability"):
        assert main([command, "--preset", "growth-1d-delta005", "--out", ""]) == 1
        assert capsys.readouterr().err == "error: output.dir: empty path\n"


def test_dt_override_halves_the_step(tmp_path):
    scen = write_scenario(tmp_path, QUICK)
    out = tmp_path / "half"
    assert main(["run", "--scenario", scen, "--out", str(out),
                 "--dt-override", "0.001"]) == 0
    log = read_rows(out / "run_log.csv")
    assert len(log) == 102  # header + initial record + 100 steps


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_dt_override_is_rejected_before_any_output(tmp_path, capsys, value):
    out = tmp_path / "x"
    assert main(["run", "--preset", "growth-2d-delta005", "--out", str(out),
                 "--dt-override", value]) == 1
    assert capsys.readouterr() == ("", "error: scheme.dt: must be finite\n")
    assert not out.exists()


def test_run_divergence_exit_code(tmp_path, capsys):
    scen = write_scenario(tmp_path, UNSTABLE)
    out = tmp_path / "boom"
    assert main(["run", "--scenario", scen, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "diverged" in err and "(step " in err
    assert "partial results in" in err
    assert (out / "run_log.csv").exists()


def test_run_reports_stability_violations(tmp_path, capsys):
    text = QUICK.replace("dt = 0.002", "dt = 0.008")  # bound is ~0.0063
    scen = write_scenario(tmp_path, text)
    out = tmp_path / "viol"
    code = main(["run", "--scenario", scen, "--out", str(out)])
    assert code in (0, 2)
    assert "exceeds bound" in capsys.readouterr().out


def test_stability_command(tmp_path, capsys):
    scen = write_scenario(tmp_path, QUICK)
    out = tmp_path / "stab"
    assert main(["stability", "--scenario", scen, "--out", str(out),
                 "--dump-stencils"]) == 0
    report = read_rows(out / "stability.csv")
    assert report[0] == ["node", "phi1", "phi2", "margin", "dt_max"]
    assert len(report) == 8  # 7 interior nodes
    dump = read_rows(out / "stencil_dump.csv")
    assert dump[0] == ["node", "deriv", "coeff_center", "coeff_1", "coeff_2"]
    assert len(dump) == 1 + 9 * 3  # x, xx, lap per node
    assert "global dt bound" in capsys.readouterr().out


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_stability_command_projects_the_state_run_starts_from(preset, tmp_path, capsys):
    assert main(["stability", "--preset", preset, "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    scenario = get_preset(preset)
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    initial = scenario.initial_state(cloud)
    two_steps = replace(scenario.scheme, t_final=2 * scenario.scheme.dt, snapshot_times=(0.0,))
    traj = run(cloud, table, scenario.model, initial, two_steps)
    snap = traj.snapshots[0]
    projected = March(table, scenario.model).project(initial.k, initial.A, 0.0)
    assert snap.time == 0.0
    assert snap.k.tobytes() == projected.k.tobytes() and snap.A.tobytes() == projected.A.tobytes()
    report = dt_bound(table, State(snap.k, snap.A, snap.time), scenario.model)
    write_stability_report(report, tmp_path / "from_run.csv")
    assert (tmp_path / "stability.csv").read_bytes() == (tmp_path / "from_run.csv").read_bytes()
    first = traj.log[1]
    assert first.step == 1 and first.dt_bound == report.global_dt
    assert f"global dt bound {first.dt_bound:.6e} over" in printed


def test_stability_warns_when_dt_exceeds_bound(tmp_path, capsys):
    text = QUICK.replace("dt = 0.002", "dt = 0.02")
    scen = write_scenario(tmp_path, text)
    assert main(["stability", "--scenario", scen, "--out", str(tmp_path / "s")]) == 0
    assert "exceeds the bound" in capsys.readouterr().out


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("pass:") == 4
    assert "FAIL" not in text
    report = read_rows(out / "verify_report.csv")
    assert report[0] == ["check", "value", "tolerance", "status"]
    assert len(report) == 5


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv"
    assert main(["convergence", "--dim", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "spatial refinement" in text and "time refinement" in text
    spatial = read_rows(out / "convergence_spatial.csv")
    assert spatial[0] == ["h", "max_error"]
    assert spatial[-1][0] == "observed_order"
    order = float(spatial[-1][1])
    assert 1.7 <= order <= 2.3
    temporal = read_rows(out / "convergence_temporal.csv")
    assert 0.8 <= float(temporal[-1][1]) <= 1.2


def test_convergence_command_2d(tmp_path, capsys):
    out = tmp_path / "conv2d"
    assert main(["convergence", "--dim", "2", "--out", str(out)]) == 0
    spatial = read_rows(out / "convergence_spatial.csv")
    assert 1.7 <= float(spatial[-1][1]) <= 2.3
    temporal = read_rows(out / "convergence_temporal.csv")
    assert 0.8 <= float(temporal[-1][1]) <= 1.2
    levels = [ln for ln in capsys.readouterr().out.splitlines() if "max error=" in ln]
    assert len(levels) == 6
    rates = [ln.rsplit("rate=", 1)[1] for ln in levels]
    assert rates[0] == rates[3] == "-"  # the coarsest level has no predecessor
    for rate in rates[1:3] + rates[4:]:
        float(rate)


def test_missing_scenario_file_is_config_error(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.ini")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_scenario_content_is_config_error(tmp_path, capsys):
    # parses, but the cloud build rejects it
    scen = write_scenario(tmp_path, QUICK.replace("jitter = 0.2", "jitter = 0.6"))
    assert main(["run", "--scenario", scen, "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


QUICK_K0 = "k0_kind = piecewise\nk0_points = 0:1, 0.5:3, 1:1"


@pytest.mark.parametrize("text, old, new, message", [
    # a zero sigma would give a NaN initial field, reported as divergence at step 1
    (QUICK, QUICK_K0, "k0_kind = gaussians\nk0_bumps = 1, 0.5, 0",
     "initial.k0_bumps: sigma must be positive"),
    (QUICK, QUICK_K0, "k0_kind = gaussians\nk0_bumps = 1, 0.5, 0.1; 1, 0.2, -0.1",
     "initial.k0_bumps: sigma must be positive"),
    (QUICK, QUICK_K0, "k0_kind = piecewise\nk0_points = 0:1, 1:2, 0.5:3",
     "initial.k0_points: breakpoints must be sorted"),
    (QUICK_2D, "k0_kind = constant\nk0_value = 1.0", "k0_kind = piecewise\nk0_points = 0:1, 1:2",
     "initial.k0_points: piecewise initial fields are 1D only"),
    (QUICK, QUICK_K0, "k0_kind = gaussians\nk0_bumps = 1, 0.5, 0.5, 0.1",
     "initial.k0_bumps: bump center has 2 coordinates on a 1D cloud"),
], ids=["sigma-zero", "sigma-negative", "unsorted-points", "piecewise-in-2d", "bump-center-arity"])
def test_bad_initial_field_is_config_error_naming_its_key(tmp_path, capsys, text, old, new,
                                                          message):
    assert old in text
    scen = write_scenario(tmp_path, text.replace(old, new))
    out = tmp_path / "x"
    assert main(["run", "--scenario", scen, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "stability"])
def test_an_overflowing_initial_field_names_its_key(tmp_path, capsys, command):
    # The bumps sum to inf at node 4; this once warned and then failed as
    # "initial k is not finite" (run) or "no star yields a positive step
    # bound" (stability), and under -W error as a RuntimeWarning.
    bumps = "k0_kind = gaussians\nk0_bumps = 1e308, 0.5, 0.1; 1e308, 0.5, 0.1"
    scen = write_scenario(tmp_path, QUICK.replace(QUICK_K0, bumps))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--scenario", scen, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == ("error: initial.k0_bumps: the field is not finite "
                                       "at node 4: inf\n")


FILE_CLOUD = QUICK.replace("kind = jittered", "kind = file\npath = {cloud}").replace(
    "nodes_per_axis = 9\njitter = 0.2\nseed = 5\n", "")
FILE_FIELDS = "k0_kind = file\nk0_path = {k0}\nA0_kind = file\nA0_path = {A0}"


@pytest.mark.parametrize("key", ["cloud.path", "initial.k0_path", "initial.A0_path"])
@pytest.mark.parametrize("fault", ["missing", "malformed"])
def test_a_file_input_that_fails_names_its_key(tmp_path, capsys, key, fault):
    # k0 and A0 both come from files, so only the key tells them apart.
    good = {"cloud": tmp_path / "cloud.csv", "k0": tmp_path / "k0.csv", "A0": tmp_path / "A0.csv"}
    save_cloud(generate_regular(9, 1.0, dim=1), good["cloud"])
    for name in ("k0", "A0"):
        good[name].write_text("node,value\n" + "".join(f"{i},1\n" for i in range(9)))
    bad = tmp_path / "bad.csv"
    if fault == "malformed":
        bad.write_text("x,boundary\n0,1\n1\n" if key == "cloud.path" else "node,value\n0,1,99\n")
    name = {"cloud.path": "cloud", "initial.k0_path": "k0", "initial.A0_path": "A0"}[key]
    paths = {**good, name: bad}
    scen = write_scenario(tmp_path, FILE_CLOUD.replace(QUICK_K0, FILE_FIELDS).format(**paths))
    assert main(["run", "--scenario", scen, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and str(bad) in err
    if fault == "malformed":
        line = "3: expected 2 columns, got 1" if key == "cloud.path" else "2: expected node,value"
        assert err == f"error: {key}: {bad}:{line}\n"
    assert not (tmp_path / "x").exists()


def test_preset_stability_smoke(tmp_path, capsys):
    out = tmp_path / "preset"
    assert main(["stability", "--preset", "growth-1d-delta005",
                 "--out", str(out)]) == 0
    assert (out / "stability.csv").exists()
    assert "global dt bound" in capsys.readouterr().out


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "meshless_growth.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "stability" in proc.stdout
