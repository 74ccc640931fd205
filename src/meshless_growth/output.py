"""CSV and plot-script emission for runs and reports.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from .scheme import Trajectory
from .stability import StabilityReport
from .stencil import DERIV_NAMES, StencilTable


def write_csv(path, header, rows) -> str:
    """Write a header and rows of ints, Python floats, strings or None
    (an empty field)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def snapshot_filename(requested_time: float) -> str:
    return f"snap_t{requested_time:.6f}.csv"


def write_snapshots(trajectory: Trajectory, output_dir) -> list[str]:
    """One CSV per snapshot time: node,x[,y],k,A."""
    os.makedirs(output_dir, exist_ok=True)
    cloud = trajectory.cloud
    header = ["node", "x", "k", "A"] if cloud.dim == 1 else ["node", "x", "y", "k", "A"]
    coords = cloud.positions.T.tolist()
    return [write_csv(os.path.join(output_dir, snapshot_filename(snap.requested_time)), header,
                      zip(range(cloud.n_nodes), *coords, snap.k.tolist(), snap.A.tolist()))
            for snap in trajectory.snapshots]


def write_run_log(trajectory: Trajectory, output_dir) -> str:
    os.makedirs(output_dir, exist_ok=True)
    return write_csv(
        os.path.join(output_dir, "run_log.csv"),
        ["step", "time", "max_k", "min_k", "clamp_count", "dt_bound"],
        ([rec.step, float(rec.time), rec.max_k, rec.min_k, rec.clamp_count, rec.dt_bound]
         for rec in trajectory.log))


def write_plot_script(trajectory: Trajectory, output_dir) -> str:
    """Plain gnuplot commands for the capital snapshots."""
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, "plot.gp")
    dim = trajectory.cloud.dim
    lines = ["set datafile separator comma", "set key outside"]
    names = [(snapshot_filename(s.requested_time), s.requested_time)
             for s in trajectory.snapshots]
    if dim == 1:
        lines += ['set xlabel "x"', 'set ylabel "k"']
        plots = [f'"{fname}" skip 1 using 2:3 with linespoints title "k t={t:g}"'
                 for fname, t in names]
        if plots:
            lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    else:
        lines += ['set xlabel "x"', 'set ylabel "y"', "set dgrid3d 30,30", "set hidden3d"]
        for fname, t in names:
            lines.append(f'set title "k at t={t:g}"')
            lines.append(f'splot "{fname}" skip 1 using 2:3:4 with lines')
            lines.append("pause -1")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_stability_report(report: StabilityReport, path) -> str:
    dt_max = [None if math.isnan(d) else d for d in report.dt_max.tolist()]
    return write_csv(path, ["node", "phi1", "phi2", "margin", "dt_max"],
                     zip(report.nodes.tolist(), report.phi1.tolist(), report.phi2.tolist(),
                         report.margin.tolist(), dt_max))


def write_stencil_dump(table: StencilTable, path) -> str:
    """Debug dump: node,deriv,coeff_center,coeff_1..coeff_s for every row."""
    names = DERIV_NAMES[table.dim] + ("lap",)
    n, s = table.neighbors.shape
    # (N, nd + 1) centers and (N, nd + 1, s) neighbors, the Laplacian last.
    centers = np.column_stack([table.center_coeffs,
                               table.laplacian_parts(table.center_coeffs)])
    neighbors = np.concatenate([table.neighbor_coeffs.transpose(0, 2, 1),
                                table.laplacian_parts(table.neighbor_coeffs)[:, None, :]],
                               axis=1)
    return write_csv(path, ["node", "deriv", "coeff_center"] +
                     [f"coeff_{i + 1}" for i in range(s)],
                     zip(np.repeat(np.arange(n), len(names)).tolist(), names * n,
                         centers.ravel().tolist(), *neighbors.reshape(-1, s).T.tolist()))
