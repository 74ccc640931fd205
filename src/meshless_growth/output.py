"""CSV and plot-script emission for runs and reports.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .scheme import Trajectory
from .stability import StabilityReport
from .stencil import DERIV_NAMES, StencilTable


def _fmt(x) -> str:
    return repr(float(x))


def snapshot_filename(requested_time: float) -> str:
    return f"snap_t{requested_time:.6f}.csv"


def write_snapshots(trajectory: Trajectory, output_dir) -> list[str]:
    """One CSV per snapshot time: node,x[,y],k,A."""
    os.makedirs(output_dir, exist_ok=True)
    cloud = trajectory.cloud
    header = ["node", "x", "k", "A"] if cloud.dim == 1 else ["node", "x", "y", "k", "A"]
    paths = []
    for snap in trajectory.snapshots:
        path = os.path.join(output_dir, snapshot_filename(snap.requested_time))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(cloud.n_nodes):
                row = [i] + [_fmt(c) for c in cloud.positions[i]]
                row += [_fmt(snap.k[i]), _fmt(snap.A[i])]
                writer.writerow(row)
        paths.append(path)
    return paths


def write_run_log(trajectory: Trajectory, output_dir) -> str:
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, "run_log.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "max_k", "min_k", "clamp_count", "dt_bound"])
        for rec in trajectory.log:
            writer.writerow([rec.step, _fmt(rec.time), _fmt(rec.max_k), _fmt(rec.min_k),
                             rec.clamp_count,
                             "" if rec.dt_bound is None else _fmt(rec.dt_bound)])
    return path


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "phi1", "phi2", "margin", "dt_max"])
        for row in zip(report.nodes.tolist(), report.phi1.tolist(), report.phi2.tolist(),
                       report.margin.tolist(), report.dt_max.tolist()):
            node, phi1, phi2, margin, dt_max = row
            writer.writerow([node, _fmt(phi1), _fmt(phi2), _fmt(margin),
                             "" if np.isnan(dt_max) else _fmt(dt_max)])
    return str(path)


def write_stencil_dump(table: StencilTable, path) -> str:
    """Debug dump: node,deriv,coeff_center,coeff_1..coeff_s for every row."""
    names = DERIV_NAMES[table.dim] + ("lap",)
    s = table.neighbors.shape[1]
    lap_center = table.laplacian_parts(table.center_coeffs)
    lap_neighbors = table.laplacian_parts(table.neighbor_coeffs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "deriv", "coeff_center"] +
                        [f"coeff_{i + 1}" for i in range(s)])
        for node in range(table.neighbors.shape[0]):
            centers = table.center_coeffs[node].tolist() + [float(lap_center[node])]
            rows = table.neighbor_coeffs[node].T.tolist() + [lap_neighbors[node].tolist()]
            for name, center, row in zip(names, centers, rows):
                writer.writerow([node, name, _fmt(center)] + [_fmt(v) for v in row])
    return str(path)
