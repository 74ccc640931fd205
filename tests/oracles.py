"""Per-node loop references for the array code of the stencil pipeline.

Each function here is the one-node-at-a-time form of something the package
computes for all nodes at once: star selection over every candidate, the
per-star moment solve, the per-star Phi terms of the step bound and the
taxis flux.  Tests require the array code to match them.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from meshless_growth import DegenerateStarError, production_derivative, tech_rate, weight
from meshless_growth.stencil import DERIV_ORDERS, RCOND_FLOOR

log = logging.getLogger("meshless_growth.stability")


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


def assemble_moment_matrix(offsets: np.ndarray, spec) -> np.ndarray:
    """Moment matrix sum_i w_i^2 c_i c_i^T over radius-scaled offsets."""
    scaled = offsets / np.sqrt((offsets ** 2).sum(axis=1)).max()
    w = weight(np.sqrt((scaled ** 2).sum(axis=1)), spec, star_radius=1.0)
    c = taylor_rows(scaled)
    return (c * (w ** 2)[:, None]).T @ c


def compute_stencil(offsets: np.ndarray, spec, node: int = 0):
    """(center_coeffs, neighbor_coeffs) of one star with offsets (s, dim)."""
    dim = offsets.shape[1]
    r = float(np.sqrt((offsets ** 2).sum(axis=1)).max())
    scaled = offsets / r
    dist = np.sqrt((scaled ** 2).sum(axis=1))
    if np.any(dist == 0):
        raise ValueError(f"star at node {node} contains a zero offset")
    w = weight(dist, spec, star_radius=1.0)
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


def build_table_arrays(cloud, s: int, criterion: str, spec):
    """(neighbors, center_coeffs, neighbor_coeffs) built node by node."""
    nbrs, centers, coeffs = [], [], []
    for i in range(cloud.n_nodes):
        chosen = select_star(cloud, i, s, criterion)
        cc, nc = compute_stencil(cloud.positions[chosen] - cloud.positions[i], spec, i)
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


def f_prime(k_center: float, k_field: np.ndarray, params, mode: str) -> float:
    k_max = max(float(np.max(k_field)), 0.0)
    floor = 1e-8 * max(1.0, k_max)

    def sup_over(lo: float, hi: float) -> float:
        grid = np.geomspace(max(lo, floor), max(hi, floor * 10.0), 64)
        return float(np.max(np.abs(production_derivative(grid, params))))

    if mode == "conservative":
        return sup_over(floor, k_max)
    k0 = max(float(k_center), 0.0)
    if params.p < 1 and k0 == 0.0:
        log.warning("f' singular at k=0 (p=%g); using sup over [%g, %g]",
                    params.p, floor, k_max)
        return sup_over(floor, k_max)
    return float(production_derivative(k0, params))


def phi_terms(table, node: int, k_field, A_field, params, *, f_prime_mode="local"):
    """Phi1 and Phi2 of one star evaluated on the current fields."""
    nbrs = table.neighbors[node]
    a0 = float(A_field[node])
    ai = A_field[nbrs]
    m00 = laplacian_center(table, node)
    mi0 = laplacian_neighbors(table, node)
    chi = params.chi
    fp = f_prime(k_field[node], k_field, params, f_prime_mode)
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


def dt_bound(table, state, params, *, f_prime_mode="local"):
    """Per-star rows (node, phi1, phi2, margin, dt_max or None) and the
    global bound, with the technology bound when it diffuses."""
    rows = []
    for node in table.cloud.interior_indices:
        node = int(node)
        phi1, phi2 = phi_terms(table, node, state.k, state.A, params, f_prime_mode=f_prime_mode)
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
