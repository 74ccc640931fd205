"""Explicit time stepping of the growth system on a stencil table.

Each step advances interior nodes with forward Euler on the stencil
derivatives and then overwrites boundary nodes so the discrete normal
derivative of both fields vanishes.  Boundary values are coupled when
boundary stars contain other boundary nodes, so the enforcement solves one
small linear system over the boundary set instead of sweeping node by node;
that keeps the residual at rounding level and makes the operation idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import NodeCloud
from .errors import DegenerateBoundaryStarError, DivergenceError
from .model import ModelParams, production, tech_rate_field
from .stencil import StencilTable

# A field beyond this magnitude is reported as divergence rather than value.
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class State:
    """Capital and technology fields at one time level."""

    k: np.ndarray
    A: np.ndarray
    time: float

    def __post_init__(self):
        if self.k.shape != self.A.shape:
            raise ValueError("k and A must have matching shapes")


@dataclass(frozen=True)
class SchemeConfig:
    dt: float | None
    t_final: float
    snapshot_times: tuple[float, ...] = ()
    stability_mode: str = "off"  # off | check | adapt
    stability_interval: int = 10

    def __post_init__(self):
        if self.stability_mode not in ("off", "check", "adapt"):
            raise ValueError(f"unknown stability_mode {self.stability_mode!r}")
        if self.dt is None:
            if self.stability_mode != "adapt":
                raise ValueError("dt may be omitted only with stability_mode=adapt")
        elif self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        if self.stability_interval < 1:
            raise ValueError("stability_interval must be at least 1")
        times = tuple(float(t) for t in self.snapshot_times)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot_times must be sorted")
        if times and (times[0] < 0 or times[-1] > self.t_final * (1 + 1e-12) + 1e-300):
            raise ValueError("snapshot_times must lie in [0, t_final]")
        object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class Snapshot:
    requested_time: float
    time: float
    k: np.ndarray
    A: np.ndarray


@dataclass(frozen=True)
class LogRecord:
    step: int
    time: float
    max_k: float
    min_k: float
    clamp_count: int
    dt_bound: float | None


@dataclass(frozen=True)
class StabilityEvent:
    step: int
    time: float
    dt: float
    global_dt: float
    action: str  # "violation" | "adapt"


@dataclass
class Trajectory:
    cloud: NodeCloud
    snapshots: list[Snapshot] = field(default_factory=list)
    final: State | None = None
    log: list[LogRecord] = field(default_factory=list)
    stability_events: list[StabilityEvent] = field(default_factory=list)
    diverged: DivergenceError | None = None


class NeumannOperator:
    """Linear solve that zeroes the stencil normal derivative on the boundary.

    Row b:  (n . m_0^b) U_b - sum_{i boundary} (n . m_i^b) U_i
            = sum_{i interior} (n . m_i^b) U_i

    The right-hand side reads only cols, the sorted interior nodes that
    boundary stars reach, so the solve is done once at construction:
    closure (n_b, len(cols)) maps the values at cols to the boundary values.
    """

    def __init__(self, cloud: NodeCloud, table: StencilTable):
        b_idx = cloud.boundary_indices
        n_b = b_idx.size
        grad_comps = slice(0, cloud.dim)  # first-derivative components
        cc = table.center_coeffs[b_idx]                    # (n_b, nd)
        nc = table.neighbor_coeffs[b_idx][:, :, grad_comps]  # (n_b, s, dim)
        normal = cloud.normals[b_idx]
        c0 = (normal[:, None, :] @ cc[:, grad_comps, None])[:, 0, 0]
        bad = np.flatnonzero(np.abs(c0) < 1e-14 * np.linalg.norm(cc, axis=1))
        if bad.size:
            raise DegenerateBoundaryStarError(
                int(b_idx[bad[0]]), "normal derivative has no center contribution"
            )
        ci = (nc @ normal[:, :, None])[:, :, 0]  # (n_b, s)
        col = np.full(cloud.n_nodes, -1)
        col[b_idx] = np.arange(n_b)
        nbrs = table.neighbors[b_idx]
        j = col[nbrs]
        rows = np.broadcast_to(np.arange(n_b)[:, None], nbrs.shape)
        on_b = j >= 0
        mat = np.zeros((n_b, n_b))
        mat[np.arange(n_b), np.arange(n_b)] = c0
        # 0.0 - c and 0.0 + c rather than -c and c: a zero coefficient is +0.0.
        mat[rows[on_b], j[on_b]] = 0.0 - ci[on_b]
        reached = np.zeros(cloud.n_nodes, dtype=bool)
        reached[nbrs[~on_b]] = True
        cols = np.flatnonzero(reached)
        col[cols] = np.arange(cols.size)  # gather columns of the interior nodes
        gather = np.zeros((n_b, cols.size))
        gather[rows[~on_b], col[nbrs[~on_b]]] = 0.0 + ci[~on_b]
        self.boundary_idx = b_idx
        self.cols = cols
        self.closure = np.linalg.solve(mat, gather)

    def project(self, field: np.ndarray) -> np.ndarray:
        out = field.copy()
        out[self.boundary_idx] = self.closure @ field[self.cols]
        return out


def enforce_neumann(state: State, table: StencilTable, cloud: NodeCloud) -> State:
    """Overwrite boundary values of k and A with the zero-flux solve."""
    op = NeumannOperator(cloud, table)
    return State(k=op.project(state.k), A=op.project(state.A), time=state.time)


def _check_finite(k: np.ndarray, A: np.ndarray, time: float) -> None:
    # Fast path: the max of |k| is NaN if k holds a NaN, which fails the
    # comparison, so any bad value falls through to the mask naming the node.
    if np.abs(k).max() <= DIVERGENCE_LIMIT and np.isfinite(A).all():
        return
    bad = ~np.isfinite(k) | ~np.isfinite(A) | (np.abs(k) > DIVERGENCE_LIMIT)
    if bad.any():
        raise DivergenceError(node=int(np.argmax(bad)), time=time)


def step(
    state: State,
    table: StencilTable,
    params: ModelParams,
    dt: float,
    *,
    g_field: np.ndarray | None = None,
    forcing=None,
    neumann: NeumannOperator | None = None,
) -> State:
    """One forward Euler step followed by boundary enforcement.

    Reads only level-n values, so the node update order is immaterial.
    forcing, if given, is called as forcing(positions, time) and added to
    the capital equation (used by manufactured-solution studies).
    """
    cloud = table.cloud
    k, A = state.k, state.A
    if g_field is None:
        g_field = tech_rate_field(cloud, params.g_spec)

    new_time = state.time + dt
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is reported, not warned
        dk = table.derivatives(k)
        lap_k = table.laplacian_parts(dk)
        need_a_derivs = params.chi != 0.0 or params.tech_diffusion != 0.0
        if need_a_derivs:
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

        # Undershoots from the explicit step feed the production term as zero.
        rhs_k = lap_k + flux + A * production(np.maximum(k, 0.0), params) - params.delta * k
        if forcing is not None:
            rhs_k = rhs_k + forcing(cloud.positions, state.time)
        rhs_a = params.tech_diffusion * lap_a + A * g_field

        k_new = k + dt * rhs_k
        a_new = A + dt * rhs_a
    _check_finite(k_new, a_new, new_time)

    op = neumann if neumann is not None else NeumannOperator(cloud, table)
    k_new = op.project(k_new)
    a_new = op.project(a_new)
    _check_finite(k_new, a_new, new_time)
    return State(k=k_new, A=a_new, time=new_time)


def run(
    cloud: NodeCloud,
    table: StencilTable,
    params: ModelParams,
    initial: State,
    config: SchemeConfig,
    *,
    forcing=None,
) -> Trajectory:
    """March the scheme to t_final, collecting snapshots and a step log.

    The final step is truncated so the end time is hit exactly.  In
    stability_mode "check" the per-star bound is recomputed every
    stability_interval steps and violations are recorded; in "adapt" the
    step additionally shrinks to 0.9x the bound whenever it exceeds it.
    Divergence aborts the march and returns the partial trajectory.
    """
    from .stability import dt_bound  # local import keeps module layering acyclic

    if initial.k.shape != (cloud.n_nodes,):
        raise ValueError("initial state size does not match the cloud")
    traj = Trajectory(cloud=cloud)
    g_field = tech_rate_field(cloud, params.g_spec)
    neumann = NeumannOperator(cloud, table)

    state = State(k=initial.k.astype(float), A=initial.A.astype(float), time=float(initial.time))
    # Project the initial data too, so even the t=0 snapshot honors zero flux.
    state = State(k=neumann.project(state.k), A=neumann.project(state.A), time=state.time)
    dt = config.dt
    pending = list(config.snapshot_times)
    while pending and pending[0] <= state.time + 1e-300:
        t_s = pending.pop(0)
        traj.snapshots.append(Snapshot(t_s, state.time, state.k, state.A))

    last_bound: float | None = None
    step_idx = 0
    traj.log.append(LogRecord(0, state.time, float(state.k.max()),
                              float(state.k.min()), 0, None))
    # Tolerance absorbs summation drift over long runs so the step count
    # stays at ceil(t_final / dt) and the end time is hit exactly.
    base_tol = 1e-9 * max(1.0, config.t_final)
    while True:
        remaining = config.t_final - state.time
        tol = base_tol if dt is None else min(base_tol, 0.5 * dt)
        if remaining <= tol:
            break

        if config.stability_mode != "off" and step_idx % config.stability_interval == 0:
            report = dt_bound(table, state, params)
            last_bound = report.global_dt
            if dt is None:
                dt = 0.9 * last_bound
            elif dt > last_bound * (1 + 1e-12):
                action = "adapt" if config.stability_mode == "adapt" else "violation"
                traj.stability_events.append(
                    StabilityEvent(step_idx, state.time, dt, last_bound, action)
                )
                if config.stability_mode == "adapt":
                    dt = 0.9 * last_bound
        if dt is None:
            raise ValueError("dt is unset and stability_mode is not adapt")

        step_dt = dt if remaining > dt + tol else remaining
        prev = state
        clamp_count = int((state.k < 0).sum())
        try:
            state = step(state, table, params, step_dt,
                         g_field=g_field, forcing=forcing, neumann=neumann)
        except DivergenceError as exc:
            exc.step = step_idx + 1
            traj.diverged = exc
            break
        step_idx += 1
        traj.log.append(LogRecord(step_idx, state.time, float(state.k.max()),
                                  float(state.k.min()), clamp_count, last_bound))
        while pending and state.time >= pending[0] - 1e-9 * step_dt:
            t_s = pending.pop(0)
            pick = prev if abs(prev.time - t_s) <= abs(state.time - t_s) else state
            traj.snapshots.append(Snapshot(t_s, pick.time, pick.k, pick.A))

    if traj.diverged is None:
        for t_s in pending:
            traj.snapshots.append(Snapshot(t_s, state.time, state.k, state.A))
    traj.final = state
    return traj
