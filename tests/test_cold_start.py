"""A fresh interpreter pays only for the modules the solver uses.

numpy's masked-array package costs about 10 ms and 1 MB to import, and
np.unique imports it on its first call; the library never uses masked
arrays, so neither a run nor a cloud file may pull it in.  Other lazy numpy
imports are allowed: a jittered cloud needs numpy.random.  Older numpy
imports numpy.ma with numpy itself; there the tests skip.
"""

import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meshless_growth import generate_jittered, preset_text
from oracles import save_cloud

SRC = Path(__file__).resolve().parents[1] / "src"

# The library sequence of `meshless-growth run --scenario`.
RUN = """
import sys
import numpy
print("numpy.ma" in sys.modules)
from meshless_growth import parse_scenario, run
from meshless_growth.output import write_plot_script, write_run_log, write_snapshots

scenario = parse_scenario(sys.argv[1])
cloud = scenario.cloud.build()
table = scenario.star.build_table(cloud)
initial = scenario.initial_state(cloud)
traj = run(cloud, table, scenario.model, initial, scenario.scheme)
assert traj.diverged is None and traj.log[-1].step == 20
write_snapshots(traj, scenario.output_dir)
write_run_log(traj, scenario.output_dir)
write_plot_script(traj, scenario.output_dir)
print(cloud.n_nodes, "numpy.ma" in sys.modules)
"""


def run_fresh(tmp_path, preset, cloud=None):
    """Run preset to t = 0.02 in a new interpreter, its cloud section
    replaced by cloud if given; returns the node count and whether the
    run imported numpy.ma."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(preset_text(preset))
    cp["scheme"]["t_final"] = "0.02"
    cp["scheme"]["snapshot_times"] = "0, 0.02"
    cp["output"] = {"dir": str(tmp_path / "out")}
    if cloud is not None:
        cp["cloud"] = cloud
    path = tmp_path / "scenario.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", RUN, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    eager, n_nodes, masked = proc.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma when numpy is imported")
    return int(n_nodes), masked == "True"


@pytest.mark.parametrize("preset, n_nodes", [("growth-2d-delta005", 144),
                                             ("growth-1d-delta005", 13)])
def test_a_run_does_not_import_numpy_ma(tmp_path, preset, n_nodes):
    assert run_fresh(tmp_path, preset) == (n_nodes, False)


def test_a_cloud_file_does_not_import_numpy_ma(tmp_path):
    path = tmp_path / "cloud.csv"
    save_cloud(generate_jittered(12, 1.0, dim=2, jitter=0.1, seed=3), path)
    cloud = {"kind": "file", "dim": "2", "path": str(path)}
    assert run_fresh(tmp_path, "growth-2d-delta005", cloud) == (144, False)
