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


def _check_finite(k: np.ndarray, A: np.ndarray, time: float, before=()) -> None:
    """Raise DivergenceError at the first node where k or A is not finite or
    |k| exceeds DIVERGENCE_LIMIT.  before may hold the (k, A) that the update
    made ahead of the boundary projection, whose nodes are named first."""
    # Fast path: the max of |k| is NaN if k holds a NaN, which fails the
    # comparison, so any bad value falls through to the mask naming the node.
    if (np.maximum.reduce(np.abs(k)) <= DIVERGENCE_LIMIT
            and np.logical_and.reduce(np.isfinite(A))):
        return
    for k_, a_ in (*before, (k, A)):
        bad = ~np.isfinite(k_) | ~np.isfinite(a_) | (np.abs(k_) > DIVERGENCE_LIMIT)
        if bad.any():
            raise DivergenceError(node=int(np.argmax(bad)), time=time)


def step(
    state: State,
    table: StencilTable,
    params: ModelParams,
    dt: float,
    *,
    g_field: np.ndarray,
    neumann: NeumannOperator,
    forcing=None,
) -> State:
    """One forward Euler step followed by boundary enforcement, checked
    once for divergence after it.

    g_field is tech_rate_field(cloud, params.g_spec) and neumann the
    cloud's NeumannOperator.  Reads only level-n values, so the node update
    order is immaterial.  forcing, if given, is called as forcing(positions,
    time) and added to the capital equation (manufactured solutions).  The
    right-hand sides are built in place in the order of lap + flux + A f(k)
    - delta k and D lap_A + A g, so each rounding is the plain expression's.
    """
    k, A = state.k, state.A
    new_time = state.time + dt
    chi = params.chi
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is reported, not warned
        dk = table.derivatives(k)
        rhs_k = table.laplacian_parts(dk)  # a fresh array, or a column of dk in 1D
        if chi != 0.0 or params.tech_diffusion != 0.0:
            da = table.derivatives(A)
            rhs_a = table.laplacian_parts(da)
            if chi != 0.0:
                flux = dk[:, 0] * da[:, 0]
                if table.cloud.dim == 2:
                    flux += dk[:, 1] * da[:, 1]
                flux *= -chi
                flux -= chi * k * rhs_a
                rhs_k += flux
            rhs_a *= params.tech_diffusion
            rhs_a += A * g_field
        else:  # a zero term is left out, not added: that could only turn -0.0 to +0.0
            rhs_a = A * g_field

        # Undershoots from the explicit step feed the production term as zero.
        rhs_k += A * production(np.maximum(k, 0.0), params)
        rhs_k -= params.delta * k
        if forcing is not None:
            rhs_k += forcing(table.cloud.positions, state.time)

        rhs_k *= dt
        rhs_k += k
        rhs_a *= dt
        rhs_a += A
        k_new = neumann.project(rhs_k)
        a_new = neumann.project(rhs_a)
    # Nodes are named as the update left them; a bad value the projection replaced is dropped.
    _check_finite(k_new, a_new, new_time, before=[(rhs_k, rhs_a)])
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

    # Project the initial data too, so even the t=0 snapshot honors zero flux.
    state = State(k=neumann.project(initial.k.astype(float)),
                  A=neumann.project(initial.A.astype(float)), time=float(initial.time))
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
        # The log holds this state's min k, so most steps need no count.
        clamp_count = int(np.count_nonzero(state.k < 0)) if traj.log[-1].min_k < 0 else 0
        try:
            state = step(state, table, params, step_dt,
                         g_field=g_field, neumann=neumann, forcing=forcing)
        except DivergenceError as exc:
            traj.diverged = DivergenceError(exc.node, exc.time, step_idx + 1)
            break
        step_idx += 1
        traj.log.append(LogRecord(step_idx, state.time, float(np.maximum.reduce(state.k)),
                                  float(np.minimum.reduce(state.k)), clamp_count, last_bound))
        while pending and state.time >= pending[0] - 1e-9 * step_dt:
            t_s = pending.pop(0)
            pick = prev if abs(prev.time - t_s) <= abs(state.time - t_s) else state
            traj.snapshots.append(Snapshot(t_s, pick.time, pick.k, pick.A))

    if traj.diverged is None:
        for t_s in pending:
            traj.snapshots.append(Snapshot(t_s, state.time, state.k, state.A))
    traj.final = state
    return traj
