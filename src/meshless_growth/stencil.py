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
Traces certify most moment matrices, and only the rest get eigenvalues.
"""

from __future__ import annotations

import numpy as np

try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .cloud import NodeCloud, select_star
from .errors import DegenerateStarError

# Reciprocal-condition floor below which a moment matrix is rejected.
RCOND_FLOOR = 1e-12

# Every scenario's star size by dimension, under select_star's one rule: a node on
# each side in 1D, the quadrant star of Benito, Ureña & Gavete (Appl. Math. Model. 25, 2001).
STAR_RULE = {1: 2, 2: 8}

DERIV_NAMES = {1: ("x", "xx"), 2: ("x", "y", "xx", "yy", "xy")}
# Differentiation order of each component; coefficients unscale by r^-order.
DERIV_ORDERS = {1: (1, 2), 2: (1, 1, 2, 2, 2)}


def _taylor_rows(offsets: np.ndarray) -> np.ndarray:
    if offsets.shape[-1] == 1:
        h = offsets[..., 0]
        return np.stack([h, 0.5 * h ** 2], axis=-1)
    h, k = offsets[..., 0], offsets[..., 1]
    return np.stack([h, k, 0.5 * h ** 2, 0.5 * k ** 2, h * k], axis=-1)


def compute_stencil(offsets: np.ndarray) -> np.ndarray:
    """Solve the moment systems of a stack of stars with offsets (M, s, dim).

    Returns the packed slots coeffs (nd, s+1, M), C-contiguous: slot i < s
    holds neighbor i's coefficients and slot s holds -m_0, so derivative j
    at star m is sum_i coeffs[j, i, m] Ui with U_s = U0, components ordered
    as DERIV_NAMES.  A star with a non-finite or zero offset, or whose
    radius (its largest offset norm) squares to 0 or overflows, raises
    ValueError.  Raises DegenerateStarError for the first row whose
    moment matrix is not positive definite to reciprocal condition
    RCOND_FLOOR; errors name rows as nodes, which they are when
    build_all_stencils stacks one star per node.  A row passes if the
    traces of M and of the solve's M^-1 certify it, or else the eigenvalue
    test of M, so verdicts and messages are those of that test alone.
    """
    n_stars, s, dim = offsets.shape
    bad = np.flatnonzero(~np.isfinite(offsets).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"star at node {bad[0]} contains a non-finite offset")
    with np.errstate(over="ignore"):  # squares that overflow give r = inf, rejected below
        r = np.sqrt((offsets ** 2).sum(axis=2)).max(axis=1)  # (M,) star radii
    bad = np.flatnonzero((r == 0) | (r == np.inf))
    if bad.size:
        raise ValueError(f"star at node {bad[0]} has radius {r[bad[0]]}: its offsets are too "
                         f"{'small' if r[bad[0]] == 0 else 'large'} to scale")
    scaled = offsets / r[:, None, None]
    dist = np.sqrt((scaled ** 2).sum(axis=2))
    zero = np.flatnonzero((dist == 0).any(axis=1))
    if zero.size:
        raise ValueError(f"star at node {zero[0]} contains a zero offset")
    w2 = (dist ** -3.0) ** 2  # (M, s); w squared, which d^-6 would round differently
    c = _taylor_rows(scaled)                        # (M, s, nd)
    m = np.swapaxes(c * w2[..., None], 1, 2) @ c    # (M, nd, nd)

    # M is SPD, so lambda_max <= tr M and lambda_min >= 1 / tr M^-1: tr M tr M^-1 <= 1e9 certifies
    # rcond >= 1e-9.  The 1e3 margin over the floor covers M^-1's rounding: a Cholesky that succeeds
    # factors M + E, |E| ~ n eps |M| (Higham 2002, ch. 10), so a row below the floor reads >~ 1e12.
    try:
        with np.errstate(all="ignore"):  # a near-singular row may overflow before it is rejected
            chol = np.linalg.cholesky(m)
            q = np.swapaxes(np.linalg.inv(chol), 1, 2)  # M^{-1} = Q Q^T
            minv = q @ np.swapaxes(q, 1, 2)
            traces = np.trace(m, axis1=1, axis2=2) * np.trace(minv, axis1=1, axis2=2)
            failed, unsure = None, np.flatnonzero(~(traces * RCOND_FLOOR <= 1e-3))  # NaN: unsure
    except np.linalg.LinAlgError as err:
        failed, unsure = err, np.arange(n_stars)
    if unsure.size:  # the eigenvalue test, on the rows the traces leave open
        eig = np.linalg.eigvalsh(m[unsure])
        bad = np.flatnonzero((eig[:, 0] <= 0) | (eig[:, 0] < RCOND_FLOOR * eig[:, -1]))
        if bad.size:
            row, node = int(bad[0]), int(unsure[bad[0]])
            raise DegenerateStarError(node, f"moment matrix rcond {eig[row, 0] / eig[row, -1]:.2e}")
    if failed is not None:
        raise failed
    # Every row is now positive definite with condition <= 1 / RCOND_FLOOR.

    slots = np.empty((c.shape[2], s + 1, n_stars))
    coeffs = slots[:, :-1].T  # (M, s, nd) view of the neighbor slots
    np.multiply(w2[..., None], c @ minv, out=coeffs)  # rows are m_i in scaled coords
    np.divide(coeffs, r[:, None, None] ** np.asarray(DERIV_ORDERS[dim], dtype=float), out=coeffs)
    slots[:, -1] = -coeffs.sum(axis=1).T
    return slots


class StencilTable:
    """The stars and stencils of every node of a cloud as packed arrays.

    Each star holds the node itself as its last slot s: stars (s+1, N) is an
    index buffer whose last row is the node, and coeffs (nd, s+1, N) holds
    the slots of compute_stencil, whose last slot is -m_0, so derivative j
    at node n is sum_i coeffs[j, i, n] U_stars[i, n], components ordered as
    DERIV_NAMES for the dimension.  The table is these two arrays, kept as
    given (build_all_stencils makes them C-contiguous), and every consumer
    reads them; the other views are derived from coeffs on each read.  A
    derivative is one gather and one contraction along the node axis, with
    the center term summed last.
    """

    def __init__(self, cloud: NodeCloud, stars: np.ndarray, coeffs: np.ndarray):
        n = cloud.n_nodes
        if stars.ndim != 2 or stars.shape[1] != n:
            raise ValueError("table must hold one star and stencil per node")
        s = stars.shape[0] - 1
        if coeffs.shape != (len(DERIV_NAMES[cloud.dim]), s + 1, n):
            raise ValueError("coefficient arrays do not match the stars")
        if not np.array_equal(stars[s], np.arange(n)):
            raise ValueError("the last slot of each star must be its node")
        if stars.min() < 0 or stars.max() >= n:
            raise ValueError(f"star indices must lie in [0, {n}), "
                             f"got {stars.min()} to {stars.max()}")
        self.cloud = cloud
        self.stars = stars
        self.coeffs = coeffs

    @property
    def neighbor_coeffs(self) -> np.ndarray:
        """(N, s, nd) transposed view of the first s slots, so an in-place
        edit through it changes derivatives.  Its one reader outside the
        tests of the view itself is perfbench/test_perfbench.py's check (a),
        which writes through it."""
        return self.coeffs[:, :-1].T

    def derivatives(self, field: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """The contraction of a (d, s+1, N) block of coefficient rows, coeffs
        by default, with field over the table's stars: shape (N, d), column j
        the derivative that rows[j] weighs, so all of DERIV_NAMES by default.

        The contraction is c_einsum, the C function that
        np.einsum(..., optimize=False) hands its operands to, called without
        np.einsum's Python dispatch, so its result has the same bits.  It
        sums the slots in order per row, so a column has the bits of that
        row's contraction alone (tested).  The result is the transpose of a
        C-contiguous (d, N) array, so each column is contiguous.
        """
        return c_einsum("dsn,sn->dn", self.coeffs if rows is None else rows,
                        field[self.stars]).T

    @property
    def lap(self) -> np.ndarray:
        """The (s+1, N) Laplacian rows, summed from coeffs on each read."""
        return self.coeffs[self.cloud.dim:2 * self.cloud.dim].sum(axis=0)


def build_all_stencils(cloud: NodeCloud, s: int) -> StencilTable:
    """Select a star and solve its stencil for every node (boundary included)."""
    nd = len(DERIV_NAMES[cloud.dim])  # a fit of nd derivatives needs s >= nd neighbors
    if s < nd:
        raise ValueError(f"s must be at least {nd} in {cloud.dim}D, got {s}")
    neighbors = select_star(cloud, s)
    coeffs = compute_stencil(cloud.positions[neighbors] - cloud.positions[:, None, :])
    stars = np.empty((s + 1, cloud.n_nodes), dtype=np.intp)
    stars[:s], stars[s] = neighbors.T, np.arange(cloud.n_nodes)
    return StencilTable(cloud, stars, coeffs)
