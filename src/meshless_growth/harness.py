"""Verification harness: analytic oracles and convergence studies.

Everything here checks the solver against independent references: the
spatially uniform reduction against a Runge-Kutta integration of the point
ODE, the stencils against polynomials they must reproduce exactly and
against classical finite difference rows on uniform grids, and the full
scheme against a manufactured solution with a known error decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import NodeCloud, generate_regular
from .errors import DivergenceError
from .model import GrowthSpec, ModelParams
from .scheme import SchemeConfig, State, run
from .stencil import (
    DERIV_NAMES,
    StencilTable,
    WeightSpec,
    build_all_stencils,
    compute_stencil,
)


def ode_oracle(
    params: ModelParams,
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


@dataclass(frozen=True)
class ExactnessResult:
    """Per-monomial, per-derivative worst error over interior nodes."""

    rows: tuple[tuple[str, str, float], ...]
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


def polynomial_exactness(
    cloud: NodeCloud,
    s: int,
    criterion: str = "distance",
    weight_spec: WeightSpec | None = None,
    table: StencilTable | None = None,
) -> ExactnessResult:
    """Apply every stencil to all monomials of degree <= 2.

    A second-order fit must reproduce their derivatives exactly, so any
    error beyond rounding exposes a broken solve.
    """
    if table is None:
        table = build_all_stencils(cloud, s, criterion, weight_spec)
    interior = cloud.interior_indices
    names = DERIV_NAMES[cloud.dim]
    rows = []
    worst = 0.0
    for label, (func, dfunc) in _monomials(cloud.dim).items():
        values = func(cloud.positions)
        exact = dfunc(cloud.positions)
        got = table.derivatives(values)
        err = np.abs(got - exact)[interior]
        for j, dname in enumerate(names):
            e = float(err[:, j].max())
            rows.append((label, dname, e))
            worst = max(worst, e)
    return ExactnessResult(tuple(rows), worst)


def _grid_spacing(cloud: NodeCloud) -> float:
    xs = np.unique(cloud.positions[:, 0])
    gaps = np.diff(xs)
    if gaps.size == 0 or not np.allclose(gaps, gaps[0], rtol=1e-12, atol=0):
        raise ValueError("fd_equivalence needs a uniform grid")
    return float(gaps[0])


def _node_at(cloud: NodeCloud, target: np.ndarray) -> int:
    d2 = ((cloud.positions - target) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    if d2[i] > 1e-20 * max(1.0, cloud.length ** 2):
        raise ValueError(f"no grid node at {target}")
    return i


def fd_equivalence(grid: NodeCloud, weight_spec: WeightSpec | None = None) -> float:
    """Worst relative deviation of stencil rows from classical differences.

    1D: the symmetric two-node star against central first and second
    differences.  2D: the four axis neighbors cannot determine the mixed
    term (the h*k column is identically zero, a rank-deficient fit), so the
    rank-minimal star adds one diagonal node; its fit interpolates, which
    makes the x/y rows central differences and the Laplacian row the
    five-point row.  Rows are compared entrywise, normalized by the largest
    reference entry of the row.
    """
    spec = weight_spec or WeightSpec()
    h = _grid_spacing(grid)

    def solve(center: int, nodes: list[int]):
        offsets = grid.positions[nodes] - grid.positions[center]
        center_coeffs, neighbor_coeffs = compute_stencil(offsets[None], spec)
        return center_coeffs[0], neighbor_coeffs[0]

    def row_error(got_center, got_neighbors, ref_center, ref_neighbors):
        got = np.concatenate([[-got_center], got_neighbors])
        ref = np.concatenate([[ref_center], ref_neighbors])
        return float(np.abs(got - ref).max() / np.abs(ref).max())

    if grid.dim == 1:
        center = _node_at(grid, np.array([grid.length / 2.0]))
        left = _node_at(grid, grid.positions[center] - [h])
        right = _node_at(grid, grid.positions[center] + [h])
        cc, nc = solve(center, [left, right])
        e_x = row_error(cc[0], nc[:, 0], 0.0, np.array([-0.5 / h, 0.5 / h]))
        e_xx = row_error(cc[1], nc[:, 1], -2.0 / h ** 2, np.array([1.0 / h ** 2, 1.0 / h ** 2]))
        return max(e_x, e_xx)

    c = grid.positions[_node_at(grid, np.array([grid.length / 2.0, grid.length / 2.0]))]
    nodes = [_node_at(grid, c + np.array(o) * h)
             for o in [(-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)]]
    cc, nc = solve(_node_at(grid, c), nodes)
    e = row_error(cc[0], nc[:, 0], 0.0, np.array([-0.5 / h, 0.5 / h, 0, 0, 0]))
    e = max(e, row_error(cc[1], nc[:, 1], 0.0, np.array([0, 0, -0.5 / h, 0.5 / h, 0])))
    e = max(e, row_error(cc[2], nc[:, 2], -2.0 / h ** 2, np.array([1, 1, 0, 0, 0]) / h ** 2))
    e = max(e, row_error(cc[3], nc[:, 3], -2.0 / h ** 2, np.array([0, 0, 1, 1, 0]) / h ** 2))
    e = max(e, row_error(cc[2] + cc[3], nc[:, 2] + nc[:, 3],
                         -4.0 / h ** 2, np.array([1.0, 1.0, 1.0, 1.0, 0.0]) / h ** 2))
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
    excluded: tuple[float, ...] = ()


def _fit_order(levels) -> float | None:
    pts = [(h, e) for h, e in levels if e > 0]
    if len(pts) < 2:
        return None
    hs = np.log([p[0] for p in pts])
    es = np.log([p[1] for p in pts])
    return float(np.polyfit(hs, es, 1)[0])


def _manufactured_setup(cloud: NodeCloud, delta: float):
    length = cloud.length
    dim = cloud.dim
    rate = dim * (np.pi / length) ** 2 - 1.0 + delta

    def forcing(positions: np.ndarray, t: float) -> np.ndarray:
        return rate * manufactured_solution(positions, t, length)

    params = ModelParams(alpha1=0.0, delta=delta, chi=0.0, tech_diffusion=0.0,
                         g_spec=GrowthSpec(kind="constant", level=0.0))
    initial = State(k=manufactured_solution(cloud.positions, 0.0, length),
                    A=np.ones(cloud.n_nodes), time=0.0)
    return params, initial, forcing


def convergence_study(
    clouds: list[NodeCloud],
    s: int,
    criterion: str = "distance",
    weight_spec: WeightSpec | None = None,
    *,
    delta: float = 0.1,
    dt_factor: float = 0.2,
    t_end: float = 0.5,
) -> ConvergenceResult:
    """Max-norm error of the scheme against a manufactured solution.

    A forcing term makes u(x,t) = exp(-t) prod cos(pi x_j / L) the exact
    solution of the capital equation with f = 0 and chi = 0, which tests
    the discrete operators without changing them.  The step follows
    dt = dt_factor * h^2 so the first-order time error refines at the same
    rate as the second-order space error.  Levels that diverge are excluded
    and reported.
    """
    levels: list[tuple[float, float]] = []
    excluded: list[float] = []
    for cloud in clouds:
        h = cloud.spacing_estimate()
        params, initial, forcing = _manufactured_setup(cloud, delta)
        table = build_all_stencils(cloud, s, criterion, weight_spec)
        config = SchemeConfig(dt=dt_factor * h ** 2, t_final=t_end)
        traj = run(cloud, table, params, initial, config, forcing=forcing)
        if traj.diverged is not None:
            excluded.append(h)
            continue
        exact = manufactured_solution(cloud.positions, traj.final.time, cloud.length)
        levels.append((h, float(np.abs(traj.final.k - exact).max())))
    return ConvergenceResult(tuple(levels), _fit_order(levels), tuple(excluded))


def temporal_convergence_study(
    cloud: NodeCloud,
    s: int,
    criterion: str = "distance",
    weight_spec: WeightSpec | None = None,
    *,
    dts: tuple[float, ...] = (1e-3, 5e-4, 2.5e-4),
    dt_ref: float | None = None,
    delta: float = 0.1,
    t_end: float = 0.5,
) -> ConvergenceResult:
    """Error against a small-step reference run on a fixed cloud.

    Comparing against the dt -> 0 limit on the same mesh cancels the spatial
    error, isolating the first-order time error of the forward Euler update.
    """
    params, initial, forcing = _manufactured_setup(cloud, delta)
    table = build_all_stencils(cloud, s, criterion, weight_spec)
    dt_ref = dt_ref if dt_ref is not None else min(dts) / 16.0
    ref = run(cloud, table, params, initial,
              SchemeConfig(dt=dt_ref, t_final=t_end), forcing=forcing)
    if ref.diverged is not None:
        raise DivergenceError(ref.diverged.node, ref.diverged.time, ref.diverged.step)
    levels: list[tuple[float, float]] = []
    excluded: list[float] = []
    for dt in dts:
        traj = run(cloud, table, params, initial,
                   SchemeConfig(dt=dt, t_final=t_end), forcing=forcing)
        if traj.diverged is not None:
            excluded.append(dt)
            continue
        levels.append((dt, float(np.abs(traj.final.k - ref.final.k).max())))
    return ConvergenceResult(tuple(levels), _fit_order(levels), tuple(excluded))


def regular_refinement(base: int, levels: int, length: float = 1.0, dim: int = 1):
    """Clouds with nodes-per-axis base, 2*base-1, ... (halving h each level)."""
    out = []
    n = base
    for _ in range(levels):
        out.append(generate_regular(n, length, dim))
        n = 2 * n - 1
    return out
