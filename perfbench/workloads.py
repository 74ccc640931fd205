"""The benchmark's workloads and the scenario text each one hands the solver.

A workload is a shipped preset with a few keys replaced: the horizon, the
snapshot times, and for the large cloud its size and step.  The benchmark
draws the initial capital bumps from the workload seed and sets the cloud's
jitter seed, then passes the solver nothing but the resulting scenario text.
"""

from __future__ import annotations

import configparser
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import meshless_growth as mg  # noqa: E402

if not Path(mg.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"meshless_growth was imported from {mg.__file__}, not from {SRC}")

# The cloud seed of every 2D preset.
PRESET_CLOUD_SEED = 11


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    t_final: float
    snapshot_times: tuple[float, ...]
    nodes_per_axis: int | None = None  # None keeps the preset's cloud size
    dt: float | None = None            # None keeps the preset's step

    def config(self, seed: int, cloud_seed: int, out_dir: str) -> configparser.ConfigParser:
        """The preset with this workload's keys and seed-drawn capital bumps."""
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
        cp.optionxform = str
        cp.read_string(mg.preset_text(self.preset))
        cp["cloud"]["seed"] = str(cloud_seed)
        if self.nodes_per_axis is not None:
            cp["cloud"]["nodes_per_axis"] = str(self.nodes_per_axis)
        if self.dt is not None:
            cp["scheme"]["dt"] = repr(self.dt)
        cp["scheme"]["t_final"] = repr(self.t_final)
        cp["scheme"]["snapshot_times"] = ", ".join(repr(t) for t in self.snapshot_times)
        cp["initial"]["k0_bumps"] = _perturbed_bumps(cp["initial"]["k0_bumps"], seed)
        cp["output"] = {"dir": out_dir}
        return cp


def scenario_text(config: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    config.write(buf)
    return buf.getvalue()


def _perturbed_bumps(raw: str, seed: int) -> str:
    """Scale each bump's amplitude and width by up to 10 % and move its
    center by up to 0.05, drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    bumps = []
    for chunk in raw.split(";"):
        amp, cx, cy, sigma = (float(v) for v in chunk.split(","))
        amp *= rng.uniform(0.9, 1.1)
        cx += rng.uniform(-0.05, 0.05)
        cy += rng.uniform(-0.05, 0.05)
        sigma *= rng.uniform(0.9, 1.1)
        bumps.append(", ".join(repr(v) for v in (amp, cx, cy, sigma)))
    return "; ".join(bumps)


WORKLOADS = {w.name: w for w in (
    # One field's per-step path at N = 144: Python overhead per call rules.
    Workload("march-2d", "growth-2d-delta005", t_final=10.0, snapshot_times=(0.0, 10.0)),
    # Both fields plus taxis, and the bound every 20 steps dominates the march.
    # Stops at t = 10, before the preset's divergence at t = 13.62.
    Workload("taxis-adapt-2d", "growth-2d-delta03-chi1", t_final=10.0,
             snapshot_times=(0.0, 1.0, 5.0, 10.0)),
    # N = 2,304: star selection dominates set-up and the march is bound by
    # array size; dt sits just under the analyzer's bound of 1.04e-4.  With
    # 2,000 steps the march varied by 10-13 % from run to run, so 4,000.
    Workload("large-cloud-2d", "growth-2d-delta005", t_final=0.4,
             snapshot_times=(0.0, 0.2, 0.4), nodes_per_axis=48, dt=1e-4),
)}
