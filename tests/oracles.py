"""Reference forms of what the package computes, for tests to compare against.

Most functions here are the one-node-at-a-time form of something the package
computes for all nodes at once: star selection over every candidate, the
per-star moment solve, the per-star Phi terms of the step bound, the taxis
flux, the growth rate, and the stencil dump, snapshot, run-log and
stability CSVs written row by row.  The others are the plainer dense forms
of the per-step kernels: derivatives on node-major arrays, the boundary
closure as a dense (n_b, N) gather times the inverse of the boundary
matrix, whatever the stars, the closed Laplacian that it gives, and the
right-hand sides and the forward-Euler step written as plain expressions;
production from two powers; the growth rate and the Gaussian bumps each
with its own copy of the Gaussian; the per-node stencil views of a
table's slots; the batched moment solve with the eigenvalue test on every
row before the Cholesky factor; and the CSV writer as the csv module
writes it.  Tests require the package to match them.  `save_cloud` writes
the cloud files that `load_cloud` reads, and `nudge_faces` moves face nodes
inside the boundary tolerance, as a cloud file may hold them.  Last,
`ode_oracle` integrates the spatially uniform reduction of the system with
Runge-Kutta 4.
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
    NodeCloud,
    State,
    production,
    production_derivative,
)
from meshless_growth.stencil import DERIV_ORDERS, RCOND_FLOOR

log = logging.getLogger("meshless_growth.stability")

# The narrowest and the widest sigma whose 2 sigma^2 is positive and finite.
SIGMA_MIN = 1.5717277847026288e-162
SIGMA_MAX = 9.480751908109176e+153


def production_two_powers(k, params):
    """f(k) = a1 k^p / (1 + a2 k^q) built in place from two powers, each
    rounding the expression's; requires k >= 0."""
    k = np.asarray(k, dtype=float)
    if (k < 0).any():
        raise ValueError("production requires nonnegative capital")
    out = k ** params.p
    out *= params.alpha1
    den = k ** params.q
    den *= params.alpha2
    den += 1.0
    out /= den
    return out if out.ndim else float(out)


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


def tech_rate_field(cloud, spec) -> np.ndarray:
    """Growth rate g at every node, with the Gaussian written out."""
    if spec.kind == "constant":
        return np.full(cloud.n_nodes, spec.level)
    center = (np.full(cloud.dim, 0.5) if spec.center is None
              else np.asarray(spec.center, dtype=float).ravel())
    r2 = ((cloud.positions - center) ** 2).sum(axis=1)
    with np.errstate(over="ignore"):
        return spec.level * np.exp(-r2 / (2.0 * spec.sigma ** 2))


def bump_field(cloud, base: float, bumps) -> np.ndarray:
    """base plus each Gaussian bump (amplitude, center..., sigma) in turn,
    with the Gaussian written out."""
    out = np.full(cloud.n_nodes, float(base))
    for bump in bumps:
        amp, *center, sigma = bump
        r2 = ((cloud.positions - np.asarray(center)) ** 2).sum(axis=1)
        with np.errstate(over="ignore"):
            out = out + amp * np.exp(-r2 / (2.0 * sigma ** 2))
    return out


def select_star(cloud, center: int, s: int) -> np.ndarray:
    """Neighbors of one center, ranked against every other node: the nearest
    ceil(s / 2^dim) per orthant in turn, topped up with the nearest
    remaining nodes, and in 1D put back in ranked order.  A boundary node
    ranks the nodes on fewer faces than itself only, and a corner takes the
    nearest of them."""
    offsets = cloud.positions - cloud.positions[center]
    dist = np.sqrt((offsets ** 2).sum(axis=1))
    idx = np.arange(cloud.n_nodes)
    faces = (cloud.normals != 0.0).sum(axis=1)
    keep = (idx != center) & ((faces < faces[center]) | (faces[center] == 0))
    idx, dist = idx[keep], dist[keep]
    ranked = idx[np.lexsort((idx, dist))]
    if faces[center] == 2:
        return ranked[:s]
    if cloud.dim == 1:
        h = offsets[ranked, 0]
        in_orthant = [h > 0, h < 0]
    else:
        h, k = offsets[ranked, 0], offsets[ranked, 1]
        # each positive half-axis belongs to the quadrant counterclockwise from it
        in_orthant = [(h > 0) & (k >= 0), (h <= 0) & (k > 0), (h < 0) & (k <= 0),
                      (h >= 0) & (k < 0)]
    buckets = [ranked[mask].tolist() for mask in in_orthant]
    chosen: list[int] = []
    for r in range(math.ceil(s / len(buckets))):
        for bucket in buckets:
            if len(chosen) < s and r < len(bucket):
                chosen.append(bucket[r])
    if len(chosen) < s:  # short orthants: top up with global nearest
        taken = set(chosen)
        for i in ranked.tolist():
            if i not in taken:
                chosen.append(i)
                if len(chosen) == s:
                    break
    if cloud.dim == 1:
        chosen = [i for i in ranked.tolist() if i in chosen]
    return np.asarray(chosen, dtype=int)


def taylor_rows(offsets: np.ndarray) -> np.ndarray:
    """Taylor rows of offsets (..., dim): shape (..., nd)."""
    if offsets.shape[-1] == 1:
        h = offsets[..., 0]
        return np.stack([h, 0.5 * h ** 2], axis=-1)
    h, k = offsets[..., 0], offsets[..., 1]
    return np.stack([h, k, 0.5 * h ** 2, 0.5 * k ** 2, h * k], axis=-1)


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


def batched_stencil(offsets: np.ndarray) -> np.ndarray:
    """The packed slots (nd, s+1, M) of a stack of stars with offsets
    (M, s, dim), solved with the eigenvalue test first: eigvalsh on every
    moment matrix, the lowest failing row named, then one batched Cholesky
    and inverse.  Raises what that solve raises, in the same order."""
    n_stars, s, dim = offsets.shape
    r = np.sqrt((offsets ** 2).sum(axis=2)).max(axis=1)
    scaled = offsets / r[:, None, None]
    dist = np.sqrt((scaled ** 2).sum(axis=2))
    zero = np.flatnonzero((dist == 0).any(axis=1))
    if zero.size:
        raise ValueError(f"star at node {zero[0]} contains a zero offset")
    w2 = (dist ** -3.0) ** 2
    c = taylor_rows(scaled)
    m = np.swapaxes(c * w2[..., None], 1, 2) @ c
    eig = np.linalg.eigvalsh(m)
    bad = np.flatnonzero((eig[:, 0] <= 0) | (eig[:, 0] < RCOND_FLOOR * eig[:, -1]))
    if bad.size:
        row = int(bad[0])
        raise DegenerateStarError(row, f"moment matrix rcond {eig[row, 0] / eig[row, -1]:.2e}")
    chol = np.linalg.cholesky(m)
    q = np.swapaxes(np.linalg.inv(chol), 1, 2)
    minv = q @ np.swapaxes(q, 1, 2)
    slots = np.empty((c.shape[2], s + 1, n_stars))
    coeffs = slots[:, :-1].T
    np.multiply(w2[..., None], c @ minv, out=coeffs)
    np.divide(coeffs, r[:, None, None] ** np.asarray(DERIV_ORDERS[dim], dtype=float), out=coeffs)
    slots[:, -1] = -coeffs.sum(axis=1).T
    return slots


def build_table_arrays(cloud, s: int):
    """(neighbors, center_coeffs, neighbor_coeffs) built node by node."""
    nbrs, centers, coeffs = [], [], []
    for i in range(cloud.n_nodes):
        chosen = select_star(cloud, i, s)
        cc, nc = compute_stencil(cloud.positions[chosen] - cloud.positions[i], i)
        nbrs.append(chosen)
        centers.append(cc)
        coeffs.append(nc)
    return np.vstack(nbrs), np.vstack(centers), np.stack(coeffs)


def center_coeffs(table) -> np.ndarray:
    """(N, nd) m_0 of each node: the last slot of table.coeffs, negated."""
    return -table.coeffs[:, -1].T


def neighbor_coeffs(table) -> np.ndarray:
    """(N, s, nd) m_i of each node's neighbors: the first s slots of table.coeffs."""
    return table.coeffs[:, :-1].T


def apply_stencil(m0, mi, center_value, neighbor_values):
    """All derivative components at one star: -m_0j U0 + sum_i m_ij Ui."""
    return np.asarray(neighbor_values, dtype=float) @ mi - center_value * m0


def laplacian_center(table, node: int) -> float:
    cc = center_coeffs(table)[node]
    return float(cc[1]) if table.cloud.dim == 1 else float(cc[2] + cc[3])


def laplacian_neighbors(table, node: int) -> np.ndarray:
    nc = neighbor_coeffs(table)[node]
    return nc[:, 1] if table.cloud.dim == 1 else nc[:, 2] + nc[:, 3]


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
    nbrs = table.stars[:-1, node]
    a0 = float(A_field[node])
    ai = A_field[nbrs]
    m00 = laplacian_center(table, node)
    mi0 = laplacian_neighbors(table, node)
    chi = params.chi
    fp = f_prime(k_field[node], k_field, params)
    lap_a = -m00 * a0 + float(mi0 @ ai)
    phi1 = params.delta - a0 * fp - chi * lap_a
    phi2 = float(np.abs(mi0).sum())
    for j in range(table.cloud.dim):
        m0j = float(center_coeffs(table)[node, j])
        mij = neighbor_coeffs(table)[node, :, j]
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
    nbrs = table.stars[:-1, node]
    cc, nc = center_coeffs(table)[node], neighbor_coeffs(table)[node]
    dk = apply_stencil(cc, nc, k_field[node], k_field[nbrs])
    da = apply_stencil(cc, nc, A_field[node], A_field[nbrs])
    if table.cloud.dim == 1:
        return float(-chi * dk[0] * da[0] - chi * k_field[node] * da[1])
    return float(-chi * (dk[0] * da[0] + dk[1] * da[1]) - chi * k_field[node] * (da[2] + da[3]))


def derivatives(table, field: np.ndarray) -> np.ndarray:
    """All derivative components at every node from node-major copies of
    the table's arrays, shape (N, nd)."""
    coeffs = np.ascontiguousarray(neighbor_coeffs(table))
    gathered = field[np.ascontiguousarray(table.stars[:-1].T)]
    return np.einsum("nsd,ns->nd", coeffs, gathered) \
        - np.ascontiguousarray(center_coeffs(table)) * field[:, None]


def plain_rhs(state, march):
    """The right-hand sides (dk/dt, dA/dt) as plain array expressions, each
    Laplacian one contraction of table.lap with the field over the stars:
    the semi-discrete form scheme.step once added to the state after the
    fact.  euler_step on it is step up to rounding."""
    table = march.table
    return _expression_rhs(state, march,
                           lambda field, d: np.einsum("sn,sn->n", table.lap, field[table.stars]))


def two_column_rhs(state, march):
    """plain_rhs with each Laplacian the sum of the xx and yy columns of a
    full derivatives result (the xx column in 1D): the form the right-hand
    side had before it contracted one precombined Laplacian row."""
    dim = march.table.cloud.dim
    return _expression_rhs(state, march, lambda field, d: d[:, dim] if dim == 1
                           else d[:, dim] + d[:, dim + 1])


def _expression_rhs(state, march, laplacian):
    """The right-hand sides as plain expressions, with laplacian(field, d)
    the Laplacian of a field whose full derivatives are d."""
    table, params = march.table, march.params
    k, A = state.k, state.A
    dim = table.cloud.dim

    with np.errstate(over="ignore", invalid="ignore"):
        dk = table.derivatives(k)
        lap_k = laplacian(k, dk)
        if params.chi != 0.0 or params.tech_diffusion != 0.0:
            da = table.derivatives(A)
            lap_a = laplacian(A, da)
        else:
            lap_a = 0.0
        if params.chi != 0.0:
            if dim == 1:
                grad_dot = dk[:, 0] * da[:, 0]
            else:
                grad_dot = dk[:, 0] * da[:, 0] + dk[:, 1] * da[:, 1]
            flux = -params.chi * grad_dot - params.chi * k * lap_a
        else:
            flux = 0.0
        rhs_k = lap_k + flux + A * production(np.maximum(k, 0.0), params) - params.delta * k
        if march.forcing is not None:
            rhs_k = rhs_k + march.forcing(table.cloud.positions, state.time)
        rhs_a = params.tech_diffusion * lap_a + A * march.g_field
    return rhs_k, rhs_a


def euler_step(state, march, dt, rhs=plain_rhs):
    """The forward-Euler step on rhs, plain_rhs by default, without the
    divergence check."""
    rhs_k, rhs_a = rhs(state, march)
    with np.errstate(over="ignore", invalid="ignore"):
        k_new = state.k + dt * rhs_k
        a_new = state.A + dt * rhs_a
    return State(k=march.neumann.project(k_new), A=march.neumann.project(a_new),
                 time=state.time + dt)


def folded_step(state, march, dt):
    """The forward-Euler step in the order scheme.step sums it, as plain
    expressions on fresh arrays, both fields projected, without the
    divergence check: k's update row is dt lap with the node's own slot
    raised by 1 - dt delta, then come -chi dt (grad k . grad A + k lap A),
    (A f(k+)) dt and dt forcing; A advances as A (1 + dt g) + (D lap A) dt.
    step must match this bit for bit."""
    table, params = march.table, march.params
    k, A = state.k, state.A
    lap = table.lap
    block = np.concatenate([dt * lap[:-1], (dt * lap[-1] + (1.0 - dt * params.delta))[None]])

    with np.errstate(over="ignore", invalid="ignore"):
        k_new = np.einsum("sn,sn->n", block, k[table.stars])
        lap_a = np.einsum("sn,sn->n", lap, A[table.stars])
        if params.chi != 0.0:
            dk, da = table.derivatives(k), table.derivatives(A)
            if table.cloud.dim == 1:
                grad_dot = dk[:, 0] * da[:, 0]
            else:
                grad_dot = dk[:, 0] * da[:, 0] + dk[:, 1] * da[:, 1]
            k_new = k_new + (-params.chi * dt) * (grad_dot + k * lap_a)
        k_new = k_new + (A * production(np.maximum(k, 0.0), params)) * dt
        if march.forcing is not None:
            k_new = k_new + dt * march.forcing(table.cloud.positions, state.time)
        a_new = A * (1.0 + dt * march.g_field)
        if params.tech_diffusion != 0.0:
            a_new = a_new + (params.tech_diffusion * lap_a) * dt
    return State(k=march.neumann.project(k_new), A=march.neumann.project(a_new),
                 time=state.time + dt)


def dense_projection(cloud, table) -> np.ndarray:
    """The zero-flux projection as a dense (N, N) matrix: identity rows at
    interior nodes, and at boundary nodes the explicit inverse of the
    boundary matrix times the dense (n_b, N) gather of interior values."""
    b_idx = cloud.boundary_indices
    n_b = b_idx.size
    col = {int(b): j for j, b in enumerate(b_idx)}
    mat = np.zeros((n_b, n_b))
    gather = np.zeros((n_b, cloud.n_nodes))
    for row, b in enumerate(b_idx):
        normal = cloud.normals[b]
        mat[row, row] = float(normal @ center_coeffs(table)[b, :cloud.dim])
        for i, nbr in enumerate(table.stars[:-1, b]):
            coeff = float(normal @ neighbor_coeffs(table)[b, i, :cloud.dim])
            if int(nbr) in col:
                mat[row, col[int(nbr)]] = -coeff
            else:
                gather[row, nbr] = coeff
    proj = np.eye(cloud.n_nodes)
    proj[b_idx] = np.linalg.inv(mat) @ gather
    return proj


def dense_project(cloud, table, field: np.ndarray) -> np.ndarray:
    """Zero-flux projection of one field by the dense projection matrix."""
    return dense_projection(cloud, table) @ np.asarray(field, dtype=float)


def closed_laplacian(cloud, table) -> np.ndarray:
    """The closed Laplacian L·P on interior nodes, dense: the interior
    stars' Laplacian rows applied after the zero-flux projection."""
    interior = cloud.interior_indices
    lap = np.zeros((interior.size, cloud.n_nodes))
    for row, node in enumerate(interior):
        lap[row, node] -= laplacian_center(table, node)
        for nbr, coeff in zip(table.stars[:-1, node], laplacian_neighbors(table, node)):
            lap[row, nbr] += coeff
    return (lap @ dense_projection(cloud, table))[:, interior]


def stencil_dump_text(neighbors, m0, mi, dim: int) -> str:
    """The stencil dump CSV of node-major arrays (neighbors, m_0 and m_i
    of each node), written row by row."""
    names = ("x", "xx", "lap") if dim == 1 else ("x", "y", "xx", "yy", "xy", "lap")

    def lap(parts):
        return parts[1] if dim == 1 else parts[2] + parts[3]

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    s = neighbors.shape[1]
    writer.writerow(["node", "deriv", "coeff_center"] + [f"coeff_{i + 1}" for i in range(s)])
    for node in range(neighbors.shape[0]):
        cc, nc = m0[node], mi[node]
        centers = [float(c) for c in cc] + [float(lap(cc))]
        rows = [[float(v) for v in nc[:, j]] for j in range(nc.shape[1])]
        rows.append([float(lap(nc[i])) for i in range(s)])
        for name, center, row in zip(names, centers, rows):
            writer.writerow([node, name, repr(center)] + [repr(v) for v in row])
    return buf.getvalue()


def write_csv(path, header, rows) -> str:
    """The package's CSV writer as the csv module writes it: the bytes that
    output.write_csv streams, and the quoting that it rejects."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(header, rows))
    return str(path)


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
    write_csv(path, header, ([repr(float(v)) for v in p] + [int(b)]
                             for p, b in zip(cloud.positions, cloud.boundary)))


def nudge_faces(cloud):
    """The cloud with every other node of each face, by index, moved
    5e-13*L inside it: within the boundary tolerance, so the boundary and
    the normals stay those of the cloud, but off the extreme coordinates of
    the point set."""
    pos = cloud.positions.copy()
    for axis in range(cloud.dim):
        for face, inward in ((0.0, 5e-13), (cloud.length, -5e-13)):
            on = np.flatnonzero(cloud.positions[:, axis] == face)
            pos[on[1::2], axis] += inward * cloud.length
    return NodeCloud(pos, cloud.length)


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
