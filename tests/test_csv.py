"""output.write_csv against the csv module: every CSV the package writes has
the bytes csv.writer writes for it, and a row that would need csv's quoting
is rejected, never written broken."""

import csv
import math

import numpy as np
import pytest

import oracles
from meshless_growth import NodeCloud, build_all_stencils, cli, generate_regular, output
from meshless_growth.cli import main
from meshless_growth.scheme import LogRecord, Snapshot, Trajectory
from meshless_growth.stability import StabilityReport
from meshless_growth.stencil import StencilTable

SPECIAL = [-0.0, 5e-324, 1e16, 1e-5, math.inf, -math.inf, math.nan, 0.0, 0.1, -2.5, 1e-300,
           1.7976931348623157e308]


def _cycle(n, shift=0):
    return np.array([SPECIAL[(i + shift) % len(SPECIAL)] for i in range(n)])


@pytest.fixture
def written(monkeypatch):
    """Paths of the files that output and cli write with write_csv, each with
    the csv module's file of the same rows beside it."""
    paths = []
    write_csv = output.write_csv

    def write_both(path, header, rows):
        rows = list(rows)
        oracles.write_csv(f"{path}.csv-module", header, rows)
        paths.append(str(path))
        return write_csv(path, header, rows)

    monkeypatch.setattr(output, "write_csv", write_both)
    monkeypatch.setattr(cli, "write_csv", write_both)
    return paths


def _assert_same_bytes(paths, count):
    assert len(paths) == count
    for path in paths:
        with open(path, "rb") as fh, open(f"{path}.csv-module", "rb") as oracle:
            assert fh.read() == oracle.read(), path


@pytest.mark.parametrize("dim", [1, 2])
def test_run_outputs_have_the_csv_module_bytes(dim, tmp_path):
    if dim == 1:  # coordinates -0.0 and 5e-324 on the face x = 0
        cloud = NodeCloud(np.array([[-0.0], [5e-324], [1e-5], [0.5], [1.0]]), 1.0)
    else:
        cloud = generate_regular(5, 1.0, dim=2)
    n = cloud.n_nodes
    traj = Trajectory(cloud)
    traj.snapshots = [Snapshot(t, t, _cycle(n, i), _cycle(n, i + 5))
                      for i, t in enumerate([0.0, 1e-5, 0.25])]
    traj.log = [LogRecord(step, SPECIAL[step % 12], SPECIAL[(step + 3) % 12],
                          SPECIAL[(step + 6) % 12], step * 7,
                          None if step % 3 else SPECIAL[(step + 9) % 12])
                for step in range(40)]
    # the rows as the csv module was handed them, one field per column
    header = ["node", "x", "k", "A"] if dim == 1 else ["node", "x", "y", "k", "A"]
    paths = output.write_snapshots(traj, tmp_path)
    for path, snap in zip(paths, traj.snapshots):
        oracles.write_csv(f"{path}.csv-module", header,
                          zip(range(n), *cloud.positions.T.tolist(), snap.k.tolist(),
                              snap.A.tolist()))
    paths.append(output.write_run_log(traj, tmp_path))
    oracles.write_csv(f"{paths[-1]}.csv-module",
                      ["step", "time", "max_k", "min_k", "clamp_count", "dt_bound"],
                      ([rec.step, float(rec.time), rec.max_k, rec.min_k, rec.clamp_count,
                        rec.dt_bound] for rec in traj.log))
    _assert_same_bytes(paths, 4)


def test_reports_and_dump_have_the_csv_module_bytes(written, tmp_path):
    n = 30
    report = StabilityReport(np.arange(n) * 3, _cycle(n), _cycle(n, 4), _cycle(n, 8),
                             _cycle(n, 2), 1e-5, np.array([], dtype=int))
    output.write_stability_report(report, tmp_path / "stability.csv")
    cloud = generate_regular(5, 1.0, dim=2)
    table = build_all_stencils(cloud, 8, "quadrant")
    coeffs = table.coeffs.copy()
    coeffs.ravel()[::7] = _cycle(coeffs.ravel()[::7].size)
    with np.errstate(invalid="ignore"):  # the Laplacian row of inf and -inf
        output.write_stencil_dump(StencilTable(cloud, table.stars, coeffs),
                                  tmp_path / "dump.csv")
    assert main(["verify", "--out", str(tmp_path / "verify")]) == 0
    assert main(["convergence", "--dim", "1", "--out", str(tmp_path / "conv")]) == 0
    _assert_same_bytes(written, 5)
    # a NaN dt_max is an empty field, written without quotes
    with open(written[0], newline="") as fh:
        assert fh.read().splitlines()[5] == "12,inf,0.1,-0.0,"


def test_a_string_field_may_hold_columns_joined_already(tmp_path):
    header = ["node", "x", "k"]
    path = output.write_csv(tmp_path / "a.csv", header, [("0,-0.0", 5e-324), ("1,1.0", None)])
    oracle = oracles.write_csv(tmp_path / "b.csv", header, [(0, -0.0, 5e-324), (1, 1.0, None)])
    with open(path, "rb") as fh, open(oracle, "rb") as want:
        assert fh.read() == want.read() == b"node,x,k\r\n0,-0.0,5e-324\r\n1,1.0,\r\n"


@pytest.mark.parametrize("header, bad", [
    (["a", "b"], ["1,5", 2]),           # a comma inside one field
    (["a", "b"], ['say "hi"', 2]),      # a quote
    (["a", "b"], ["line\nbreak", 2]),
    (["a", "b"], ["carriage\rreturn", 2]),
    (["a", "b"], [1, 2, 3]),            # more columns than the header
    (["a", "b"], [1]),                  # fewer
    (["a"], [None]),                    # one empty field: csv writes ""
    (["a"], [""]),
])
def test_a_row_that_needs_quoting_is_rejected_whole(header, bad, tmp_path):
    good = [1, 2] if len(header) == 2 else [1]
    rows = [good, bad, good]
    with pytest.raises(ValueError, match="needs quoting or has the wrong column count"):
        output.write_csv(tmp_path / "a.csv", header, iter(rows))
    # what was written is whole rows of the csv module's file, before the bad one
    oracle = oracles.write_csv(tmp_path / "b.csv", header, rows)
    with open(tmp_path / "a.csv", newline="") as fh:
        text = fh.read()
    with open(oracle, newline="") as fh:
        want = fh.read()
    assert want.startswith(text) and text.endswith("\r\n")
    rows_read = list(csv.reader(text.splitlines()))
    assert all(len(row) == len(header) for row in rows_read)
    # a row of the header's width is rejected where the csv module quotes it
    if len(bad) == len(header):
        assert '"' in want.split("\r\n")[2]
