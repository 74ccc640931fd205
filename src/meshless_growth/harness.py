"""Verification harness: analytic oracles and convergence studies.

Everything here checks the solver against independent references: the
stencils against polynomials they must reproduce exactly and against
classical finite difference rows on uniform grids, and the full scheme
against a manufactured solution with a known error decay rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import NodeCloud, generate_regular
from .model import GrowthSpec, ModelParams
from .scheme import SchemeConfig, State, run
from .stencil import STAR_RULE, StencilTable, build_all_stencils, compute_stencil

# The manufactured problem's depreciation, the spatial study's step
# dt = DT_FACTOR * h^2, and the end time of every run.
DELTA = 0.1
DT_FACTOR = 0.2
T_END = 0.5


@dataclass(frozen=True)
class ExactnessResult:
    """Worst error over interior nodes, monomials and derivative components."""

    max_error: float


def _monomials(dim: int):
    if dim == 1:
        return {
            "1": (lambda x: np.ones_like(x[:, 0]), lambda x: np.zeros((x.shape[0], 2))),
            "x": (lambda x: x[:, 0], lambda x: np.column_stack([np.ones_like(x[:, 0]), np.zeros_like(x[:, 0])])),
            "x^2": (lambda x: x[:, 0] ** 2, lambda x: np.column_stack([2 * x[:, 0], 2 * np.ones_like(x[:, 0])])),
        }
    zero = lambda x: np.zeros_like(x[:, 0])
    one = lambda x: np.ones_like(x[:, 0])
    return {
        "1": (lambda x: one(x), lambda x: np.column_stack([zero(x)] * 5)),
        "x": (lambda x: x[:, 0], lambda x: np.column_stack([one(x), zero(x), zero(x), zero(x), zero(x)])),
        "y": (lambda x: x[:, 1], lambda x: np.column_stack([zero(x), one(x), zero(x), zero(x), zero(x)])),
        "x^2": (lambda x: x[:, 0] ** 2, lambda x: np.column_stack([2 * x[:, 0], zero(x), 2 * one(x), zero(x), zero(x)])),
        "y^2": (lambda x: x[:, 1] ** 2, lambda x: np.column_stack([zero(x), 2 * x[:, 1], zero(x), 2 * one(x), zero(x)])),
        "xy": (lambda x: x[:, 0] * x[:, 1], lambda x: np.column_stack([x[:, 1], x[:, 0], zero(x), zero(x), one(x)])),
    }


def polynomial_exactness(cloud: NodeCloud, s: int) -> ExactnessResult:
    """Apply every stencil of size-s stars to all monomials of degree <= 2.

    A second-order fit must reproduce their derivatives exactly, so any
    error beyond rounding exposes a broken solve.
    """
    table = build_all_stencils(cloud, s)
    interior = cloud.interior_indices
    worst = 0.0
    for func, dfunc in _monomials(cloud.dim).values():
        got = table.derivatives(func(cloud.positions))
        worst = max(worst, float(np.abs(got - dfunc(cloud.positions))[interior].max()))
    return ExactnessResult(worst)


def _grid_spacing(cloud: NodeCloud) -> float:
    gaps = np.diff(np.sort(cloud.positions[:, 0]))
    gaps = gaps[gaps > 0]  # between the distinct x values
    if gaps.size == 0 or not np.allclose(gaps, gaps[0], rtol=1e-12, atol=0):
        raise ValueError("fd_equivalence needs a uniform grid")
    return float(gaps[0])


def _node_at(cloud: NodeCloud, target: np.ndarray) -> int:
    d2 = ((cloud.positions - target) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    if d2[i] > 1e-20 * max(1.0, cloud.length ** 2):
        raise ValueError(f"no grid node at {target}")
    return i


def fd_equivalence(grid: NodeCloud) -> float:
    """Worst relative deviation of stencil rows from classical differences.

    1D: the symmetric two-node star against central first and second
    differences.  2D: the four axis neighbors cannot determine the mixed
    term (the h*k column is identically zero, a rank-deficient fit), so the
    rank-minimal star adds one diagonal node; its fit interpolates, which
    makes the x/y rows central differences and the Laplacian row the
    five-point row.  Rows are compared entrywise in slot order, the
    neighbors then the center, normalized by the largest reference entry of
    the row.
    """
    h = _grid_spacing(grid)

    def solve(center: int, nodes: list[int]) -> np.ndarray:
        """The (nd, len(nodes) + 1) slot rows of one star, the center last."""
        offsets = grid.positions[nodes] - grid.positions[center]
        return compute_stencil(offsets[None])[..., 0]

    def row_error(got, ref):
        return float(np.abs(got - ref).max() / np.abs(ref).max())

    if grid.dim == 1:
        center = _node_at(grid, np.array([grid.length / 2.0]))
        left = _node_at(grid, grid.positions[center] - [h])
        right = _node_at(grid, grid.positions[center] + [h])
        slots = solve(center, [left, right])
        e_x = row_error(slots[0], np.array([-0.5, 0.5, 0.0]) / h)
        e_xx = row_error(slots[1], np.array([1.0, 1.0, -2.0]) / h ** 2)
        return max(e_x, e_xx)

    c = grid.positions[_node_at(grid, np.array([grid.length / 2.0, grid.length / 2.0]))]
    nodes = [_node_at(grid, c + np.array(o) * h)
             for o in [(-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)]]
    slots = solve(_node_at(grid, c), nodes)
    e = row_error(slots[0], np.array([-0.5, 0.5, 0, 0, 0, 0]) / h)
    e = max(e, row_error(slots[1], np.array([0, 0, -0.5, 0.5, 0, 0]) / h))
    e = max(e, row_error(slots[2], np.array([1, 1, 0, 0, 0, -2]) / h ** 2))
    e = max(e, row_error(slots[3], np.array([0, 0, 1, 1, 0, -2]) / h ** 2))
    e = max(e, row_error(slots[2] + slots[3], np.array([1, 1, 1, 1, 0, -4]) / h ** 2))
    return e


def manufactured_solution(positions: np.ndarray, t: float, length: float) -> np.ndarray:
    """u(x, t) = exp(-t) * prod_j cos(pi x_j / L); satisfies zero normal flux."""
    u = np.exp(-t) * np.ones(positions.shape[0])
    for j in range(positions.shape[1]):
        u = u * np.cos(np.pi * positions[:, j] / length)
    return u


@dataclass(frozen=True)
class ConvergenceResult:
    levels: tuple[tuple[float, float], ...]  # (h or dt, max error)
    observed_order: float | None


def _fit_order(levels) -> float | None:
    pts = [(h, e) for h, e in levels if e > 0]
    if len(pts) < 2:
        return None
    hs = np.log([p[0] for p in pts])
    es = np.log([p[1] for p in pts])
    return float(np.polyfit(hs, es, 1)[0])


def _march(cloud: NodeCloud, table: StencilTable, dt: float) -> State:
    """Run the manufactured problem to T_END; a diverged run raises.

    A forcing term makes u(x,t) = exp(-t) prod cos(pi x_j / L) the exact
    solution of the capital equation with f = 0 and chi = 0, which tests
    the discrete operators without changing them.
    """
    length = cloud.length
    rate = cloud.dim * (np.pi / length) ** 2 - 1.0 + DELTA

    def forcing(positions: np.ndarray, t: float) -> np.ndarray:
        return rate * manufactured_solution(positions, t, length)

    params = ModelParams(alpha1=0.0, delta=DELTA, chi=0.0, tech_diffusion=0.0,
                         g_spec=GrowthSpec(kind="constant", level=0.0))
    initial = State(k=manufactured_solution(cloud.positions, 0.0, length),
                    A=np.ones(cloud.n_nodes), time=0.0)
    traj = run(cloud, table, params, initial,
               SchemeConfig(dt=dt, t_final=T_END), forcing=forcing)
    if traj.diverged is not None:
        raise traj.diverged
    return traj.final


def convergence_study(clouds: list[NodeCloud]) -> ConvergenceResult:
    """Max-norm error against the manufactured solution, on STAR_RULE[cloud.dim].

    The step follows dt = DT_FACTOR * h^2 so the first-order time error
    refines at the same rate as the second-order space error.  A level that
    diverges raises its DivergenceError.
    """
    levels: list[tuple[float, float]] = []
    for cloud in clouds:
        h = cloud.spacing_estimate()
        table = build_all_stencils(cloud, STAR_RULE[cloud.dim])
        final = _march(cloud, table, DT_FACTOR * h ** 2)
        exact = manufactured_solution(cloud.positions, final.time, cloud.length)
        levels.append((h, float(np.abs(final.k - exact).max())))
    return ConvergenceResult(tuple(levels), _fit_order(levels))


def temporal_convergence_study(cloud: NodeCloud, *,
                               dts: tuple[float, ...] = (1e-3, 5e-4, 2.5e-4)) -> ConvergenceResult:
    """Error against a reference run at min(dts) / 16, on STAR_RULE[cloud.dim].

    Comparing against the dt -> 0 limit on the same mesh cancels the spatial
    error, isolating the first-order time error of the forward Euler update.
    A run that diverges, the reference included, raises its DivergenceError.
    """
    table = build_all_stencils(cloud, STAR_RULE[cloud.dim])
    ref = _march(cloud, table, min(dts) / 16.0)
    levels = [(dt, float(np.abs(_march(cloud, table, dt).k - ref.k).max()))
              for dt in dts]
    return ConvergenceResult(tuple(levels), _fit_order(levels))


def regular_refinement(base: int, levels: int, length: float = 1.0, dim: int = 1):
    """Clouds with nodes-per-axis base, 2*base-1, ... (halving h each level)."""
    return [generate_regular((base - 1) * 2 ** i + 1, length, dim) for i in range(levels)]
