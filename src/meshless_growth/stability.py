"""Per-star step bound for the explicit scheme.

Freezing coefficients at one time level, the update at a star stays a
contraction when

    0 < m00 + Phi1 - Phi2          (sign condition)
    dt < 2 / (m00 + Phi1 + Phi2)   (step bound)

where m00 is the center Laplacian coefficient, Phi1 collects the signed
reaction, taxis and depreciation contributions at the center, and Phi2
majorizes the neighbor couplings by absolute value.  The terms multiplying
the technology error act as a forcing that vanishes under refinement and do
not enter the bound.  When technology diffuses with coefficient D, its own
update at the star is a contraction for

    dt < 2 / (D (m00 + sum_i |m_i0|) - g)

with g the growth rate at the center, and that bound enters the minimum too.
The bounds are evaluated at every interior star (boundary nodes are set by
the flux condition, not by the explicit update), all stars at once on the
stencil table's packed arrays, and the sharpest one is reported.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoAdmissibleTimeStepError
from .model import ModelParams, production_derivative, tech_rate_field
from .scheme import State
from .stencil import StencilTable

log = logging.getLogger(__name__)

F_PRIME_MODES = ("local", "conservative")


def _sup_f_prime(k_field: np.ndarray, params: ModelParams) -> float:
    """sup |f'| over [k_floor, max k], the same for every star."""
    k_max = max(float(np.max(k_field)), 0.0)
    floor = 1e-8 * max(1.0, k_max)
    grid = np.geomspace(floor, max(k_max, floor * 10.0), 64)
    return float(np.max(np.abs(production_derivative(grid, params))))


def _f_prime(k0: np.ndarray, k_field: np.ndarray, params: ModelParams, mode: str) -> np.ndarray:
    """Slope of the production term entering Phi1, per star.

    local: f' at the center's current capital (stand-in for the mean-value
    point); conservative: sup |f'| over [k_floor, max k].  The p < 1
    singularity at k = 0 falls back to the sup, logged once per call.
    """
    if mode == "conservative":
        return np.full(k0.shape, _sup_f_prime(k_field, params))
    k0 = np.maximum(k0, 0.0)
    singular = (k0 == 0.0) & (params.p < 1)
    fp = np.empty(k0.shape)
    fp[~singular] = production_derivative(k0[~singular], params)
    if singular.any():
        sup = _sup_f_prime(k_field, params)
        log.warning("f' singular at k=0 (p=%g) at %d stars; using sup %g",
                    params.p, int(singular.sum()), sup)
        fp[singular] = sup
    return fp


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot product of two (M, s) arrays, one BLAS dot per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class StabilityReport:
    """Per interior star (arrays aligned with nodes) and the global bound.

    dt_max is the capital bound 2 / (m00 + Phi1 + Phi2), NaN where that
    denominator is not positive; dt_tech is the technology bound, NaN where
    technology does not diffuse or its denominator is not positive.
    """

    nodes: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    margin: np.ndarray
    dt_max: np.ndarray
    dt_tech: np.ndarray
    global_dt: float
    violations: np.ndarray  # nodes failing the sign condition


def dt_bound(
    table: StencilTable,
    state: State,
    params: ModelParams,
    *,
    f_prime_mode: str = "local",
) -> StabilityReport:
    """Evaluate the bound at every interior star and take the minimum.

    Stars failing the sign condition are listed in violations; when any star
    passes it, the capital bound is the minimum over passing stars, otherwise
    it falls back to the minimum finite bound (the marginal case m00 = Phi2,
    e.g. pure diffusion with delta = 0, has zero margin yet a perfectly
    usable bound).  All stars without a positive denominator is an error.
    The global bound is the smaller of that and the technology bound.
    """
    if f_prime_mode not in F_PRIME_MODES:
        raise ValueError(f"unknown f_prime_mode {f_prime_mode!r}")
    nodes = table.cloud.interior_indices
    cc = table.center_coeffs[nodes]     # (M, nd)
    nc = table.neighbor_coeffs[nodes]   # (M, s, nd)
    a0 = state.A[nodes]
    ai = state.A[table.neighbors[nodes]]
    m00 = table.laplacian_parts(cc)
    mi0 = table.laplacian_parts(nc)
    chi = params.chi

    fp = _f_prime(state.k[nodes], state.k, params, f_prime_mode)
    lap_a = -m00 * a0 + _row_dot(mi0, ai)
    phi1 = params.delta - a0 * fp - chi * lap_a
    spread = np.abs(mi0).sum(axis=1)
    phi2 = spread
    for j in range(table.dim):
        m0j = cc[:, j]
        mij = nc[:, :, j]
        moment = _row_dot(mij, ai)
        grad_spread = np.abs(mij).sum(axis=1)
        phi1 = phi1 + (chi * m0j ** 2 * a0 + chi * m0j * moment)
        phi2 = phi2 + np.abs(chi * m0j * a0) * grad_spread
        phi2 = phi2 + abs(chi) * grad_spread * np.abs(moment)
    margin = m00 + phi1 - phi2
    denom = m00 + phi1 + phi2
    with np.errstate(divide="ignore", invalid="ignore"):
        dt_max = np.where(denom > 0, 2.0 / denom, np.nan)
    finite = denom > 0
    admissible = finite & (margin > 0)
    if admissible.any():
        global_dt = float(dt_max[admissible].min())
    elif finite.any():
        global_dt = float(dt_max[finite].min())
    else:
        raise NoAdmissibleTimeStepError("no star yields a positive step bound")

    dt_tech = np.full(nodes.size, np.nan)
    if params.tech_diffusion != 0.0:
        g = tech_rate_field(table.cloud, params.g_spec)[nodes]
        tech_denom = params.tech_diffusion * (m00 + spread) - g
        pos = tech_denom > 0
        dt_tech[pos] = 2.0 / tech_denom[pos]
        if pos.any():
            global_dt = min(global_dt, float(dt_tech[pos].min()))
    return StabilityReport(nodes, phi1, phi2, margin, dt_max, dt_tech, global_dt,
                           nodes[~(margin > 0)])
