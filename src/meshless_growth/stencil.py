"""Difference stencils on stars via weighted second-order Taylor fits.

For a star with offsets c_i the fit minimizes sum_i w_i^2 (U0 - Ui + c_i.d)^2
over the derivative vector d, with the weight w_i = d_i^-3 of neighbor i's
distance d_i from the center, which leads to the moment system

    (sum_i w_i^2 c_i c_i^T) d = -sum_i w_i^2 (U0 - Ui) c_i.

Solving once per star yields coefficient vectors m_i = w_i^2 M^{-1} c_i with
center vector m_0 = sum_i m_i, so any derivative is evaluated as
-m_0j U0 + sum_i m_ij Ui.  Offsets, and so the distances in w, are normalized
by the star radius before assembly so the moment matrix stays well
conditioned on tight clusters; the coefficients are scaled back afterwards.
"""

from __future__ import annotations

import numpy as np

from .cloud import NodeCloud, select_star
from .errors import DegenerateStarError

# Reciprocal-condition floor below which a moment matrix is rejected.
RCOND_FLOOR = 1e-12

DERIV_NAMES = {1: ("x", "xx"), 2: ("x", "y", "xx", "yy", "xy")}
# Differentiation order of each component; coefficients unscale by r^-order.
DERIV_ORDERS = {1: (1, 2), 2: (1, 1, 2, 2, 2)}


def _taylor_rows(offsets: np.ndarray) -> np.ndarray:
    if offsets.shape[-1] == 1:
        h = offsets[..., 0]
        return np.stack([h, 0.5 * h ** 2], axis=-1)
    h, k = offsets[..., 0], offsets[..., 1]
    return np.stack([h, k, 0.5 * h ** 2, 0.5 * k ** 2, h * k], axis=-1)


def compute_stencil(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the moment systems of a stack of stars with offsets (M, s, dim).

    Returns center_coeffs (M, nd) and neighbor_coeffs (M, s, nd): derivative
    j at star m is -center_coeffs[m, j] U0 + sum_i neighbor_coeffs[m, i, j] Ui,
    components ordered as DERIV_NAMES.  Raises DegenerateStarError for the
    first row whose moment matrix is not positive definite to reciprocal
    condition RCOND_FLOOR; errors name rows as nodes, which they are when
    build_all_stencils stacks one star per node.
    """
    dim = offsets.shape[2]
    r = np.sqrt((offsets ** 2).sum(axis=2)).max(axis=1)  # (M,) star radii
    scaled = offsets / r[:, None, None]
    dist = np.sqrt((scaled ** 2).sum(axis=2))
    zero = np.flatnonzero((dist == 0).any(axis=1))
    if zero.size:
        raise ValueError(f"star at node {zero[0]} contains a zero offset")
    w2 = (dist ** -3.0) ** 2  # (M, s); w squared, which d^-6 would round differently
    c = _taylor_rows(scaled)                        # (M, s, nd)
    m = np.swapaxes(c * w2[..., None], 1, 2) @ c    # (M, nd, nd)

    eig = np.linalg.eigvalsh(m)
    bad = np.flatnonzero((eig[:, 0] <= 0) | (eig[:, 0] < RCOND_FLOOR * eig[:, -1]))
    first_bad = int(bad[0]) if bad.size else m.shape[0]
    try:
        chol = np.linalg.cholesky(m[:first_bad])
    except np.linalg.LinAlgError:
        for row in range(first_bad):  # name the first star that fails
            try:
                np.linalg.cholesky(m[row])
            except np.linalg.LinAlgError as exc:
                raise DegenerateStarError(row, str(exc)) from exc
        raise
    if bad.size:
        raise DegenerateStarError(
            first_bad, f"moment matrix rcond {eig[first_bad, 0] / eig[first_bad, -1]:.2e}")
    q = np.swapaxes(np.linalg.inv(chol), 1, 2)  # M^{-1} = Q Q^T
    minv = q @ np.swapaxes(q, 1, 2)

    coeffs = w2[..., None] * (c @ minv)  # rows are m_i in scaled coords
    coeffs = coeffs / r[:, None, None] ** np.asarray(DERIV_ORDERS[dim], dtype=float)
    return coeffs.sum(axis=1), coeffs


class StencilTable:
    """The stars and stencils of every node of a cloud as packed arrays.

    neighbors (N, s) holds each node's star; derivative j at node n is
    -center_coeffs[n, j] U_n + sum_i neighbor_coeffs[n, i, j] U_neighbors[n, i],
    components ordered as DERIV_NAMES for the dimension.  The table copies
    the arrays once into component-major, C-contiguous (s, N), (nd, N) and
    (nd, s, N) buffers, so the per-step gather and contraction run along the
    node axis; the attributes are transposed views of those buffers, and an
    in-place edit through them changes derivatives.
    """

    def __init__(self, cloud: NodeCloud, neighbors: np.ndarray,
                 center_coeffs: np.ndarray, neighbor_coeffs: np.ndarray):
        n, s = neighbors.shape
        nd = len(DERIV_NAMES[cloud.dim])
        if n != cloud.n_nodes:
            raise ValueError("table must hold one star and stencil per node")
        if center_coeffs.shape != (n, nd) or neighbor_coeffs.shape != (n, s, nd):
            raise ValueError("coefficient arrays do not match the stars")
        self.cloud = cloud
        self.neighbors = np.array(neighbors.T, order="C").T
        self.center_coeffs = np.array(center_coeffs.T, order="C").T
        self.neighbor_coeffs = np.array(neighbor_coeffs.T, order="C").T

    @property
    def dim(self) -> int:
        return self.cloud.dim

    def derivatives(self, field: np.ndarray) -> np.ndarray:
        """All derivative components at every node, shape (N, nd).

        The result is the transpose of a C-contiguous (nd, N) array, so each
        component column is contiguous.
        """
        gathered = field[self.neighbors.T]  # (s, N)
        return (
            np.einsum("dsn,sn->dn", self.neighbor_coeffs.T, gathered)
            - self.center_coeffs.T * field
        ).T

    def laplacian_parts(self, derivs: np.ndarray) -> np.ndarray:
        """Sum of the pure second-derivative columns; also applies to
        coefficient arrays, whose last axis holds the components."""
        if self.cloud.dim == 1:
            return derivs[..., 1]
        return derivs[..., 2] + derivs[..., 3]

    def laplacian(self, field: np.ndarray) -> np.ndarray:
        return self.laplacian_parts(self.derivatives(field))


def build_all_stencils(
    cloud: NodeCloud,
    s: int,
    criterion: str = "distance",
) -> StencilTable:
    """Select a star and solve its stencil for every node (boundary included)."""
    neighbors = select_star(cloud, np.arange(cloud.n_nodes), s, criterion)
    offsets = cloud.positions[neighbors] - cloud.positions[:, None, :]
    center_coeffs, neighbor_coeffs = compute_stencil(offsets)
    return StencilTable(cloud, neighbors, center_coeffs, neighbor_coeffs)
