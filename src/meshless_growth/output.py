"""CSV and plot-script emission for runs and reports.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .scheme import LogRecord, Trajectory, snapshot_filename
from .stability import StabilityReport
from .stencil import DERIV_NAMES, StencilTable


def write_csv(path, header, rows) -> str:
    """Write a header and rows of ints, Python floats, strings or None (an
    empty field), streamed one line at a time in the bytes csv.writer writes
    for them: str of each field, joined by commas, each line ended by \r\n.
    A str field is written as it is, so it may hold several columns joined
    already; a line that does not come out with the header's number of
    columns, or that holds a quote or a line break, would need csv's quoting,
    and raises ValueError before it is written."""
    commas = len(header) - 1
    with open(path, "w", newline="") as fh:
        for row in itertools.chain([header], rows):
            line = ",".join(["" if v is None else str(v) for v in row])
            if line.count(",") != commas or '"' in line or "\r" in line or "\n" in line or not line:
                raise ValueError(f"csv row {row!r} needs quoting or has the wrong column count")
            fh.write(line + "\r\n")
    return str(path)


def write_snapshots(trajectory: Trajectory, output_dir) -> list[str]:
    """One CSV per snapshot time: node,x[,y],k,A."""
    os.makedirs(output_dir, exist_ok=True)
    cloud = trajectory.cloud
    header = ["node", "x", "k", "A"] if cloud.dim == 1 else ["node", "x", "y", "k", "A"]
    # node,x[,y] of every row, formatted once for all snapshots
    coords = [f"{i},{','.join(map(str, x))}" for i, x in enumerate(cloud.positions.tolist())]
    return [write_csv(os.path.join(output_dir, snapshot_filename(snap.requested_time)), header,
                      zip(coords, snap.k.tolist(), snap.A.tolist()))
            for snap in trajectory.snapshots]


def write_run_log(trajectory: Trajectory, output_dir) -> str:
    os.makedirs(output_dir, exist_ok=True)
    return write_csv(os.path.join(output_dir, "run_log.csv"), LogRecord._fields, trajectory.log)


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
    names = DERIV_NAMES[table.cloud.dim] + ("lap",)
    s = table.stars.shape[0] - 1
    n = table.cloud.n_nodes
    # (N, nd + 1, s+1) rows, the Laplacian last; the last slot holds -center.
    rows = np.concatenate([table.coeffs, table.lap[None]]).transpose(2, 0, 1)
    return write_csv(path, ["node", "deriv", "coeff_center"] +
                     [f"coeff_{i + 1}" for i in range(s)],
                     zip(np.repeat(np.arange(n), len(names)).tolist(), names * n,
                         (-rows[..., s]).ravel().tolist(),
                         *rows[..., :s].reshape(-1, s).T.tolist()))
