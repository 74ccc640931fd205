"""Command line behavior: outputs, exit codes, determinism."""

import csv
import subprocess
import sys

import pytest

from meshless_growth.cli import main

QUICK = """\
[cloud]
kind = jittered
dim = 1
nodes_per_axis = 9
jitter = 0.2
seed = 5

[star]
s = 2

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

UNSTABLE = """\
[cloud]
kind = regular
dim = 1
nodes_per_axis = 9

[star]
s = 2

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


def test_seed_override_changes_cloud(tmp_path):
    scen = write_scenario(tmp_path, QUICK)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", scen, "--out", str(a)]) == 0
    assert main(["run", "--scenario", scen, "--out", str(b), "--seed", "77"]) == 0
    assert (a / "snap_t0.000000.csv").read_bytes() != (b / "snap_t0.000000.csv").read_bytes()


def test_dt_override_halves_the_step(tmp_path):
    scen = write_scenario(tmp_path, QUICK)
    out = tmp_path / "half"
    assert main(["run", "--scenario", scen, "--out", str(out),
                 "--dt-override", "0.001"]) == 0
    log = read_rows(out / "run_log.csv")
    assert len(log) == 102  # header + initial record + 100 steps


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
    scen = write_scenario(tmp_path, QUICK.replace("s = 2", "s = 1"))
    assert main(["run", "--scenario", scen, "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


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
