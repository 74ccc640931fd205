"""Reference forms of what the package computes, for tests to compare against.

Most functions here are the one-node-at-a-time form of something the package
computes for all nodes at once: star selection over every candidate, the
per-star moment solve, the per-star Phi terms of the step bound, the taxis
flux, the growth rate, and the stencil dump, snapshot, run-log and
stability CSVs written row by row.  The others are the plainer dense forms
of the per-step kernels: derivatives on node-major arrays and the boundary
closure as a dense (n_b, N) gather times the inverse of the boundary
matrix, and the forward-Euler step written as plain expressions.  Tests
require the package to match them.  `save_cloud` writes the cloud
files that `load_cloud` reads.  Last, `ode_oracle` integrates the spatially
uniform reduction of the system with Runge-Kutta 4.
"""

from __future__ import annotations

import csv
import io
import logging
import math

import numpy as np

from meshless_growth import (
    DegenerateStarError,
    DivergenceError,
    State,
    production,
    production_derivative,
)
from meshless_growth.stencil import DERIV_ORDERS, RCOND_FLOOR

log = logging.getLogger("meshless_growth.stability")


def tech_rate(position, spec) -> float:
    """Growth rate g at a single position."""
    if spec.kind == "constant":
        return spec.level
    pos = np.asarray(position, dtype=float).ravel()
    if spec.center is None:
        center = np.full(pos.size, 0.5)
    else:
        center = np.asarray(spec.center, dtype=float).ravel()
    if pos.size != center.size:
        raise ValueError(f"position has {pos.size} coordinates, center has {center.size}")
    r2 = float(((pos - center) ** 2).sum())
    return spec.level * float(np.exp(-r2 / (2.0 * spec.sigma ** 2)))


def select_star(cloud, center: int, s: int, criterion: str = "distance") -> np.ndarray:
    """Neighbors of one center, ranked against every other node."""
    offsets = cloud.positions - cloud.positions[center]
    dist = np.sqrt((offsets ** 2).sum(axis=1))
    idx = np.arange(cloud.n_nodes)
    keep = idx != center
    idx, dist = idx[keep], dist[keep]
    ranked = idx[np.lexsort((idx, dist))]
    if criterion == "distance":
        return ranked[:s]
    h, k = offsets[ranked, 0], offsets[ranked, 1]
    # each positive half-axis belongs to the quadrant counterclockwise from it
    in_quadrant = [(h > 0) & (k >= 0), (h <= 0) & (k > 0), (h < 0) & (k <= 0),
                   (h >= 0) & (k < 0)]
    buckets = [ranked[mask].tolist() for mask in in_quadrant]
    chosen: list[int] = []
    for r in range(math.ceil(s / 4)):
        for bucket in buckets:
            if len(chosen) < s and r < len(bucket):
                chosen.append(bucket[r])
    if len(chosen) < s:  # short quadrants: top up with global nearest
        taken = set(chosen)
        for i in ranked.tolist():
            if i not in taken:
                chosen.append(i)
                if len(chosen) == s:
                    break
    return np.asarray(chosen, dtype=int)


def taylor_rows(offsets: np.ndarray) -> np.ndarray:
    if offsets.shape[1] == 1:
        h = offsets[:, 0]
        return np.column_stack([h, 0.5 * h ** 2])
    h, k = offsets[:, 0], offsets[:, 1]
    return np.column_stack([h, k, 0.5 * h ** 2, 0.5 * k ** 2, h * k])


def assemble_moment_matrix(offsets: np.ndarray) -> np.ndarray:
    """Moment matrix sum_i w_i^2 c_i c_i^T over radius-scaled offsets."""
    scaled = offsets / np.sqrt((offsets ** 2).sum(axis=1)).max()
    w = np.sqrt((scaled ** 2).sum(axis=1)) ** -3.0
    c = taylor_rows(scaled)
    return (c * (w ** 2)[:, None]).T @ c


def compute_stencil(offsets: np.ndarray, node: int = 0):
    """(center_coeffs, neighbor_coeffs) of one star with offsets (s, dim)."""
    dim = offsets.shape[1]
    r = float(np.sqrt((offsets ** 2).sum(axis=1)).max())
    scaled = offsets / r
    dist = np.sqrt((scaled ** 2).sum(axis=1))
    if np.any(dist == 0):
        raise ValueError(f"star at node {node} contains a zero offset")
    w = dist ** -3.0
    c = taylor_rows(scaled)
    m = (c * (w ** 2)[:, None]).T @ c
    eig = np.linalg.eigvalsh(m)
    if eig[0] <= 0 or eig[0] < RCOND_FLOOR * eig[-1]:
        raise DegenerateStarError(node, f"moment matrix rcond {eig[0] / eig[-1]:.2e}")
    chol = np.linalg.cholesky(m)
    q = np.linalg.inv(chol).T
    minv = q @ q.T
    coeffs = (w ** 2)[:, None] * (c @ minv)
    coeffs = coeffs / r ** np.asarray(DERIV_ORDERS[dim], dtype=float)
    return coeffs.sum(axis=0), coeffs


def build_table_arrays(cloud, s: int, criterion: str):
    """(neighbors, center_coeffs, neighbor_coeffs) built node by node."""
    nbrs, centers, coeffs = [], [], []
    for i in range(cloud.n_nodes):
        chosen = select_star(cloud, i, s, criterion)
        cc, nc = compute_stencil(cloud.positions[chosen] - cloud.positions[i], i)
        nbrs.append(chosen)
        centers.append(cc)
        coeffs.append(nc)
    return np.vstack(nbrs), np.vstack(centers), np.stack(coeffs)


def apply_stencil(center_coeffs, neighbor_coeffs, center_value, neighbor_values):
    """All derivative components at one star: -m_0j U0 + sum_i m_ij Ui."""
    return np.asarray(neighbor_values, dtype=float) @ neighbor_coeffs \
        - center_value * center_coeffs


def laplacian_center(table, node: int) -> float:
    cc = table.center_coeffs[node]
    return float(cc[1]) if table.dim == 1 else float(cc[2] + cc[3])


def laplacian_neighbors(table, node: int) -> np.ndarray:
    nc = table.neighbor_coeffs[node]
    return nc[:, 1] if table.dim == 1 else nc[:, 2] + nc[:, 3]


def f_prime(k_center: float, k_field: np.ndarray, params) -> float:
    k_max = max(float(np.max(k_field)), 0.0)
    floor = 1e-8 * max(1.0, k_max)

    def sup_over(lo: float, hi: float) -> float:
        grid = np.geomspace(max(lo, floor), max(hi, floor * 10.0), 64)
        return float(np.max(np.abs(production_derivative(grid, params))))

    k0 = max(float(k_center), 0.0)
    if params.p < 1 and k0 == 0.0:
        log.warning("f' singular at k=0 (p=%g); using sup over [%g, %g]",
                    params.p, floor, k_max)
        return sup_over(floor, k_max)
    return float(production_derivative(k0, params))


def phi_terms(table, node: int, k_field, A_field, params):
    """Phi1 and Phi2 of one star evaluated on the current fields."""
    nbrs = table.neighbors[node]
    a0 = float(A_field[node])
    ai = A_field[nbrs]
    m00 = laplacian_center(table, node)
    mi0 = laplacian_neighbors(table, node)
    chi = params.chi
    fp = f_prime(k_field[node], k_field, params)
    lap_a = -m00 * a0 + float(mi0 @ ai)
    phi1 = params.delta - a0 * fp - chi * lap_a
    phi2 = float(np.abs(mi0).sum())
    for j in range(table.dim):
        m0j = float(table.center_coeffs[node, j])
        mij = table.neighbor_coeffs[node, :, j]
        moment = float(mij @ ai)
        phi1 += chi * m0j ** 2 * a0 + chi * m0j * moment
        phi2 += abs(chi * m0j * a0) * float(np.abs(mij).sum())
        phi2 += abs(chi) * float(np.abs(mij).sum()) * abs(moment)
    return float(phi1), float(phi2)


def dt_bound(table, state, params):
    """Per-star rows (node, phi1, phi2, margin, dt_max or None) and the
    global bound, with the technology bound when it diffuses."""
    rows = []
    for node in table.cloud.interior_indices:
        node = int(node)
        phi1, phi2 = phi_terms(table, node, state.k, state.A, params)
        m00 = laplacian_center(table, node)
        margin = m00 + phi1 - phi2
        denom = m00 + phi1 + phi2
        rows.append((node, phi1, phi2, margin, 2.0 / denom if denom > 0 else None))
    admissible = [r[4] for r in rows if r[3] > 0 and r[4] is not None]
    finite = [r[4] for r in rows if r[4] is not None]
    global_dt = min(admissible) if admissible else min(finite)
    if params.tech_diffusion != 0.0:
        for node, *_ in rows:
            spread = laplacian_center(table, node) \
                + float(np.abs(laplacian_neighbors(table, node)).sum())
            g = tech_rate(table.cloud.positions[node], params.g_spec)
            denom = params.tech_diffusion * spread - g
            if denom > 0:
                global_dt = min(global_dt, 2.0 / denom)
    return rows, global_dt


def flux_term(table, node: int, k_field, A_field, chi: float) -> float:
    """Taxis flux -chi grad(k).grad(A) - chi k0 lap(A) at one star."""
    nbrs = table.neighbors[node]
    cc, nc = table.center_coeffs[node], table.neighbor_coeffs[node]
    dk = apply_stencil(cc, nc, k_field[node], k_field[nbrs])
    da = apply_stencil(cc, nc, A_field[node], A_field[nbrs])
    if table.dim == 1:
        return float(-chi * dk[0] * da[0] - chi * k_field[node] * da[1])
    return float(-chi * (dk[0] * da[0] + dk[1] * da[1]) - chi * k_field[node] * (da[2] + da[3]))


def derivatives(table, field: np.ndarray) -> np.ndarray:
    """All derivative components at every node from node-major copies of
    the table's arrays, shape (N, nd)."""
    coeffs = np.ascontiguousarray(table.neighbor_coeffs)
    gathered = field[np.ascontiguousarray(table.neighbors)]
    return np.einsum("nsd,ns->nd", coeffs, gathered) \
        - np.ascontiguousarray(table.center_coeffs) * field[:, None]


def euler_step(state, table, params, dt, *, g_field, neumann, forcing=None):
    """The forward-Euler step as plain array expressions, without the
    divergence check.  scheme.step builds the same right-hand sides in
    place and must match this bit for bit."""
    cloud = table.cloud
    k, A = state.k, state.A
    with np.errstate(over="ignore", invalid="ignore"):
        dk = table.derivatives(k)
        lap_k = table.laplacian_parts(dk)
        if params.chi != 0.0 or params.tech_diffusion != 0.0:
            da = table.derivatives(A)
            lap_a = table.laplacian_parts(da)
        else:
            lap_a = 0.0
        if params.chi != 0.0:
            if cloud.dim == 1:
                grad_dot = dk[:, 0] * da[:, 0]
            else:
                grad_dot = dk[:, 0] * da[:, 0] + dk[:, 1] * da[:, 1]
            flux = -params.chi * grad_dot - params.chi * k * lap_a
        else:
            flux = 0.0
        rhs_k = lap_k + flux + A * production(np.maximum(k, 0.0), params) - params.delta * k
        if forcing is not None:
            rhs_k = rhs_k + forcing(cloud.positions, state.time)
        rhs_a = params.tech_diffusion * lap_a + A * g_field
        k_new = k + dt * rhs_k
        a_new = A + dt * rhs_a
    return State(k=neumann.project(k_new), A=neumann.project(a_new), time=state.time + dt)


def dense_project(cloud, table, field: np.ndarray) -> np.ndarray:
    """Zero-flux projection with a dense (n_b, N) gather of the interior
    values and the explicit inverse of the boundary matrix."""
    b_idx = cloud.boundary_indices
    n_b = b_idx.size
    col = {int(b): j for j, b in enumerate(b_idx)}
    mat = np.zeros((n_b, n_b))
    gather = np.zeros((n_b, cloud.n_nodes))
    for row, b in enumerate(b_idx):
        normal = cloud.normals[b]
        mat[row, row] = float(normal @ table.center_coeffs[b, :cloud.dim])
        for i, nbr in enumerate(table.neighbors[b]):
            coeff = float(normal @ table.neighbor_coeffs[b, i, :cloud.dim])
            if int(nbr) in col:
                mat[row, col[int(nbr)]] = -coeff
            else:
                gather[row, nbr] = coeff
    out = np.array(field, dtype=float)
    out[b_idx] = np.linalg.inv(mat) @ (gather @ field)
    return out


def stencil_dump_text(neighbors, center_coeffs, neighbor_coeffs, dim: int) -> str:
    """The stencil dump CSV of node-major arrays, written row by row."""
    names = ("x", "xx", "lap") if dim == 1 else ("x", "y", "xx", "yy", "xy", "lap")

    def lap(parts):
        return parts[1] if dim == 1 else parts[2] + parts[3]

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    s = neighbors.shape[1]
    writer.writerow(["node", "deriv", "coeff_center"] + [f"coeff_{i + 1}" for i in range(s)])
    for node in range(neighbors.shape[0]):
        cc, nc = center_coeffs[node], neighbor_coeffs[node]
        centers = [float(c) for c in cc] + [float(lap(cc))]
        rows = [[float(v) for v in nc[:, j]] for j in range(nc.shape[1])]
        rows.append([float(lap(nc[i])) for i in range(s)])
        for name, center, row in zip(names, centers, rows):
            writer.writerow([node, name, repr(center)] + [repr(v) for v in row])
    return buf.getvalue()


def _csv_text(header, rows) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def snapshot_text(cloud, snap) -> str:
    """One snapshot CSV, written node by node."""
    header = ["node", "x", "k", "A"] if cloud.dim == 1 else ["node", "x", "y", "k", "A"]
    return _csv_text(header, (
        [i] + [repr(float(c)) for c in cloud.positions[i]]
        + [repr(float(snap.k[i])), repr(float(snap.A[i]))]
        for i in range(cloud.n_nodes)))


def run_log_text(trajectory) -> str:
    """The run log CSV, written record by record."""
    return _csv_text(
        ["step", "time", "max_k", "min_k", "clamp_count", "dt_bound"],
        ([rec.step, repr(float(rec.time)), repr(float(rec.max_k)), repr(float(rec.min_k)),
          rec.clamp_count, "" if rec.dt_bound is None else repr(float(rec.dt_bound))]
         for rec in trajectory.log))


def stability_text(report) -> str:
    """The stability report CSV, written star by star; a NaN dt_max is empty."""
    return _csv_text(["node", "phi1", "phi2", "margin", "dt_max"], (
        [int(report.nodes[i]), repr(float(report.phi1[i])), repr(float(report.phi2[i])),
         repr(float(report.margin[i])),
         "" if np.isnan(report.dt_max[i]) else repr(float(report.dt_max[i]))]
        for i in range(report.nodes.size)))


def save_cloud(cloud, path) -> None:
    """Write a cloud as the CSV load_cloud reads: header x[,y],boundary, at
    full precision."""
    header = ["x", "boundary"] if cloud.dim == 1 else ["x", "y", "boundary"]
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(header, ([repr(float(v)) for v in p] + [int(b)]
                                    for p, b in zip(cloud.positions, cloud.boundary))))


def ode_oracle(
    params,
    k0: float,
    A0: float,
    g_const: float,
    t_final: float,
    dt: float,
) -> tuple[float, float]:
    """Integrate k' = A f(k) - delta k, A' = A g with classic Runge-Kutta 4.

    The production arithmetic is written out here on purpose so the oracle
    shares no code path with the scheme.
    """
    if dt <= 0 or t_final < 0:
        raise ValueError("need dt > 0 and t_final >= 0")
    a1, a2, p, q, delta = params.alpha1, params.alpha2, params.p, params.q, params.delta

    def rhs(y: np.ndarray) -> np.ndarray:
        k, a = y
        f = a1 * k ** p / (1.0 + a2 * k ** q)
        return np.array([a * f - delta * k, a * g_const])

    n = max(1, math.ceil(t_final / dt - 1e-12))
    h = t_final / n
    y = np.array([float(k0), float(A0)])
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is reported, not warned
        for i in range(n):
            s1 = rhs(y)
            s2 = rhs(y + 0.5 * h * s1)
            s3 = rhs(y + 0.5 * h * s2)
            s4 = rhs(y + h * s3)
            y = y + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            if not np.all(np.isfinite(y)):
                raise DivergenceError(node=None, time=(i + 1) * h)
    return float(y[0]), float(y[1])
