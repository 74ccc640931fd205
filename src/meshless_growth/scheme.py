"""Explicit time stepping of the growth system on a stencil table.

Each step advances interior nodes with forward Euler on the stencil
derivatives and then overwrites boundary nodes so the discrete normal
derivative vanishes of k, and of A if a step differentiates it; every
state run records has both fields projected.  One method,
March.impose_zero_flux, imposes zero flux in either case.  Edge stars
hold interior nodes only and corner stars interior and edge nodes, so
each boundary value is an explicit weighted sum of interior values: no
system is solved, the residual stays at rounding level and the operation
is idempotent.  So only interior values go bad on their own, and a step
raises exactly when the state it would return holds a bad value, naming
its first bad interior node, or its first bad boundary node if no
interior one is bad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import stability
from .cloud import NodeCloud
from .errors import DegenerateBoundaryStarError, DivergenceError
from .model import ModelParams, State, production, tech_rate_field
from .stencil import StencilTable, c_einsum

# A field beyond this magnitude is reported as divergence rather than value.
DIVERGENCE_LIMIT = 1e12


def snapshot_filename(requested_time: float) -> str:
    """The file of the snapshot at requested_time; SchemeConfig keeps the
    names of its snapshot times distinct."""
    return f"snap_t{requested_time:.6f}.csv"


@dataclass
class SchemeConfig:
    """A run's step, horizon, snapshot times and stability mode, checked
    when built; snapshot_times is kept as a tuple of floats, -0 as 0."""

    dt: float
    t_final: float
    snapshot_times: tuple[float, ...] = ()
    stability_mode: str = "off"  # off | check | adapt
    stability_interval: int = 10

    def __post_init__(self):
        if self.stability_mode not in ("off", "check", "adapt"):
            raise ValueError("stability_mode: must be one of ['adapt', 'check', 'off'], "
                             f"got {self.stability_mode!r}")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt: must be positive and finite")
        if not 0 <= self.t_final < np.inf:
            raise ValueError("t_final: must be nonnegative and finite")
        if not self.stability_interval >= 1:
            raise ValueError("stability_interval: must be at least 1")
        times = tuple(float(t) + 0.0 for t in self.snapshot_times)  # -0 is the time 0
        if not all(a <= b for a, b in zip(times, times[1:])):
            raise ValueError("snapshot_times: must be sorted")
        if times and not (times[0] >= 0 and times[-1] <= self.t_final * (1 + 1e-12) + 1e-300):
            raise ValueError("snapshot_times: must lie in [0, t_final]")
        for a, b in zip(times, times[1:]):  # sorted, so a shared name is adjacent
            if snapshot_filename(a) == snapshot_filename(b):
                raise ValueError(f"snapshot_times: {a!r} and {b!r} "
                                 f"would both write {snapshot_filename(b)}")
        self.snapshot_times = times


@dataclass(frozen=True)
class Snapshot:
    requested_time: float
    time: float
    k: np.ndarray
    A: np.ndarray


class LogRecord(NamedTuple):
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
    """Explicit weights that zero the stencil normal derivative on the boundary.

    Row b:  sum_i (n . m_i^b) U_stars[i, b] = 0 over the s+1 slots of the
    star of boundary node b, whose own slot holds -m_0^b, so U_b is the sum
    of its neighbors weighted by w_i = (n . m_i^b) / (n . m_0^b).  An edge
    star holds interior nodes only, and a corner star adds edge nodes, each
    of which stands for its own weighted row.  The rows are padded columns
    (ELLPACK, as StencilTable's stars): boundary node boundary_idx[b] takes
    sum_j w[j, b] U_idx[j, b], idx and w (width, n_b), each row's interior
    nodes in ascending order, a corner's duplicate columns summed, and the
    row padded with its first column at weight 0.  A star that reads a
    boundary node whose own star reads the boundary is rejected.
    """

    def __init__(self, cloud: NodeCloud, table: StencilTable):
        b_idx = self.boundary_idx = cloud.boundary_indices
        stars = table.stars[:-1, b_idx].T                    # (n_b, s), the node itself left out
        # n . m_i over every slot, (n_b, s+1); the last is -(n . m_0)
        rows = (table.coeffs[:cloud.dim, :, b_idx] * cloud.normals[b_idx].T[:, None]).sum(axis=0).T
        on_boundary = cloud.boundary[stars]
        row = np.zeros(cloud.n_nodes, dtype=np.intp)  # a boundary node's closure row
        row[b_idx] = np.arange(b_idx.size)
        chained = (on_boundary & on_boundary.any(axis=1)[row[stars]]).any(axis=1)
        flat = np.abs(rows[:, -1]) < 1e-14 * np.sqrt((table.coeffs[:, -1, b_idx] ** 2).sum(axis=0))
        for bad, why in ((flat, "normal derivative has no center contribution"),
                         (chained, "its star reads a boundary node whose star reads the boundary")):
            if bad.any():
                raise DegenerateBoundaryStarError(int(b_idx[bad.argmax()]), why)
        weights = rows[:, :-1] / -rows[:, -1:]
        # A row's entries: its interior slots, then, for each edge node in a
        # corner's star, that node's row scaled by the corner's weight.
        b, i = np.nonzero(on_boundary)
        edge = row[stars[b, i]]
        owner = np.concatenate([np.nonzero(~on_boundary)[0], np.repeat(b, stars.shape[1])])
        node = np.concatenate([stars[~on_boundary], stars[edge].ravel()])
        weight = np.concatenate([weights[~on_boundary], (weights[b, i, None] * weights[edge]).ravel()])
        # One column per (row, node), its entries summed in the order above.
        key, entry = np.unique(owner * cloud.n_nodes + node, return_inverse=True)
        owner, node = np.divmod(key, cloud.n_nodes)
        slot = np.arange(key.size) - np.searchsorted(owner, owner)  # the entry's place in its row
        self.idx = np.repeat(node[slot == 0][None], slot.max() + 1, axis=0)
        self.w = np.zeros(self.idx.shape)
        self.idx[slot, owner], self.w[slot, owner] = node, np.bincount(entry, weight)

    def project(self, field: np.ndarray) -> np.ndarray:
        """field, its boundary values replaced in place by the closure's:
        idx holds interior nodes only, read before the write.  Like
        StencilTable.derivatives, the contraction reports no floating-point
        errors, and a non-finite value reaches only the rows that read it."""
        field[self.boundary_idx] = c_einsum("sn,sn->n", self.w, field[self.idx])
        return field


def _check_finite(k: np.ndarray, A: np.ndarray, time: float, boundary: np.ndarray) -> None:
    """Raise DivergenceError if k or A is not finite at some node or |k|
    exceeds DIVERGENCE_LIMIT there, naming the first such node off the
    boundary mask, or on it if there is none off it."""
    # Fast path: k.k < L^2 / 2 bounds every |k| below L, and a NaN or an
    # infinity fails both tests, so any bad node falls through to the mask
    # naming it.  np.vdot reports no floating-point error: a sum of squares
    # that overflows on finite values takes the mask too, without a warning.
    if np.vdot(k, k) < 0.5 * DIVERGENCE_LIMIT ** 2 and np.vdot(A, A) < np.inf:
        return
    bad = ~np.isfinite(k) | ~np.isfinite(A) | (np.abs(k) > DIVERGENCE_LIMIT)
    for nodes in (bad & ~boundary, bad):
        if nodes.any():
            raise DivergenceError(node=int(np.argmax(nodes)), time=time)


class March:
    """What every step of one run reads, built once from the table, the
    parameters and an optional forcing: g_field is tech_rate_field(cloud,
    params.g_spec) and neumann the cloud's NeumannOperator.  forcing, if
    given, is called as forcing(positions, time) and added to the capital
    equation (manufactured solutions).  rows is the C-contiguous block of
    coefficient rows A is contracted with: table.lap[None], or with taxis
    the gradient rows coeffs[:dim] before it.  differentiates_a: a step
    reads A's derivatives (taxis or technology diffusion), so it projects
    A."""

    def __init__(self, table: StencilTable, params: ModelParams,
                 forcing: Callable[[np.ndarray, float], np.ndarray] | None = None):
        self.table, self.params, self.forcing = table, params, forcing
        self.g_field = tech_rate_field(table.cloud, params.g_spec)
        self.neumann = NeumannOperator(table.cloud, table)
        lap = table.lap[None]
        self.rows = (lap if params.chi == 0.0 else
                     np.concatenate([table.coeffs[:table.cloud.dim], lap]))
        self.differentiates_a = params.chi != 0.0 or params.tech_diffusion != 0.0
        self._dt = self._update = None

    def update(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """The linear part of a forward Euler step of size dt, as the pair
        (rows, a_factor): rows is a copy of self.rows with its Laplacian
        (last) row times dt and the node's own slot raised by 1 - dt delta,
        so its last column contracted with k is k + dt (lap k - delta k) and
        any columns before it are the gradient; a_factor is 1 + dt g, by
        which A advances.  The pair of the last distinct dt is kept, so a
        run builds one per step size it steps with."""
        if dt != self._dt:
            rows = self.rows.copy()
            rows[-1] *= dt
            rows[-1, -1] += 1.0 - dt * self.params.delta
            self._dt, self._update = dt, (rows, 1.0 + dt * self.g_field)
        return self._update

    def impose_zero_flux(self, k: np.ndarray, A: np.ndarray | None = None) -> None:
        """Impose zero flux on k, and on A if given, in place: each boundary
        value becomes the closure's weighted sum of interior values, which
        the write leaves as they were."""
        for values in (k,) if A is None else (k, A):
            self.neumann.project(values)

    def project(self, k: np.ndarray, A: np.ndarray, time: float) -> State:
        """The State at time of copies of k and A, both with zero flux."""
        k, A = k.copy(), A.copy()
        self.impose_zero_flux(k, A)
        return State(k=k, A=A, time=time)


def step(state: State, march: March, dt: float) -> State:
    """One forward Euler step, zero flux on each field the next step
    differentiates (k, and A if march.differentiates_a), and one divergence
    check of the state it returns.  This is the one place the model's terms
    are written.

    k is contracted once with the rows of march.update(dt), whose last
    column is already k + dt (lap k - delta k); to it are added, in this
    order, -chi dt (grad k . grad A + k lap A) with taxis, dt A f(k+) and
    dt forcing, calling forcing once.  A advances as A (1 + dt g), plus
    (D lap A) dt with technology diffusion, its derivatives contracted with
    march.rows; D lap A is formed first, so a direct caller hears of an A
    that overflows there, as the contraction itself reports nothing.

    Reads only level-n values, so the node update order is immaterial, and
    writes none of them: the update owns its arrays and takes zero flux in
    place.  That write leaves each interior value as the update made it, so
    a DivergenceError names the first interior node that went bad, or, if
    none did, the first boundary node whose value in the state is bad; a
    bad boundary value the write replaced is not reported.  The zero-flux
    write, like the contractions, reports no floating-point errors.  run
    silences the overflow and invalid-value warnings of the rest of its
    march; a direct caller of step owns them.
    """
    table, params = march.table, march.params
    k, A = state.k, state.A
    rows, a_factor = march.update(dt)
    dk = table.derivatives(k, rows)
    new_k = dk[:, -1]
    new_a = A * a_factor
    if march.differentiates_a:
        da = table.derivatives(A, march.rows)
        lap_a = da[:, -1]
        if params.chi != 0.0:
            flux = dk[:, 0] * da[:, 0]
            if table.cloud.dim == 2:
                flux += dk[:, 1] * da[:, 1]
            flux += k * lap_a
            flux *= -params.chi * dt
            new_k += flux
        if params.tech_diffusion != 0.0:
            lap_a *= params.tech_diffusion
            lap_a *= dt
            new_a += lap_a

    # Undershoots from the explicit step feed the production term as zero.
    gain = production(np.maximum(k, 0.0), params)
    gain *= A
    gain *= dt
    new_k += gain
    if march.forcing is not None:
        new_k += dt * march.forcing(table.cloud.positions, state.time)
    march.impose_zero_flux(new_k, new_a if march.differentiates_a else None)
    new = State(k=new_k, A=new_a, time=state.time + dt)
    _check_finite(new_k, new_a, new.time, table.cloud.boundary)
    return new


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
    Divergence aborts the march and returns the partial trajectory; a
    non-finite initial value raises ValueError naming its field and node,
    and a non-finite initial time raises ValueError too.
    """
    if initial.k.shape != (cloud.n_nodes,):
        raise ValueError("initial state size does not match the cloud")
    if table.cloud is not cloud:  # the march reads the table's cloud, the snapshots this one
        raise ValueError("the stencil table was built on another cloud")
    for name, values in (("k", initial.k), ("A", initial.A)):  # the projection would spread it
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"initial {name} is not finite at node {bad[0]}: {values[bad[0]]}")
    if not np.isfinite(initial.time):
        raise ValueError(f"initial time is not finite: {initial.time}")
    traj = Trajectory(cloud=cloud)
    march = March(table, params, forcing)
    # Project the initial data too, so even the t=0 snapshot honors zero flux.
    state = march.project(initial.k.astype(float), initial.A.astype(float), float(initial.time))
    dt = config.dt
    pending = list(config.snapshot_times)
    prev, step_dt = state, 0.0
    step_idx, clamp_count, last_bound = 0, 0, None
    # Tolerance absorbs summation drift over long runs so the step count
    # stays at ceil(t_final / dt) and the end time is hit exactly.
    t_final, mode, interval = config.t_final, config.stability_mode, config.stability_interval
    base_tol = 1e-9 * max(1.0, t_final)
    log, k_max, k_min = traj.log.append, np.maximum.reduce, np.minimum.reduce  # read once per run
    # One errstate for the march: blow-up is reported by DivergenceError, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # Every state is recorded here, the initial one included: its log
            # record, then each requested time it reaches, which takes the
            # nearer of prev and state.  At the horizon a time still pending
            # lies past the final state, so it takes that state.
            min_k = float(k_min(state.k))
            log(LogRecord(step_idx, state.time, float(k_max(state.k)), min_k, clamp_count,
                          last_bound))
            remaining = t_final - state.time
            tol = min(base_tol, 0.5 * dt)
            while pending and (remaining <= tol or state.time >= pending[0] - 1e-9 * step_dt):
                t_s = pending.pop(0)
                pick = prev if abs(prev.time - t_s) <= abs(state.time - t_s) else state
                pick = march.project(pick.k, pick.A, pick.time)
                traj.snapshots.append(Snapshot(t_s, pick.time, pick.k, pick.A))
            if remaining <= tol:
                break

            if mode != "off" and step_idx % interval == 0:
                # The march's own state: boundary A goes unprojected only
                # where chi = 0, and the bound reads A off a star's own node
                # only times chi.
                last_bound = stability.dt_bound(table, state, params).global_dt
                if dt > last_bound * (1 + 1e-12):
                    action = "adapt" if mode == "adapt" else "violation"
                    traj.stability_events.append(
                        StabilityEvent(step_idx, state.time, dt, last_bound, action)
                    )
                    if mode == "adapt":
                        dt = 0.9 * last_bound

            step_dt = dt if remaining > dt + tol else remaining
            prev = state
            # The log holds this state's min k, so most steps need no count.
            clamp_count = int(np.count_nonzero(state.k < 0)) if min_k < 0 else 0
            try:
                state = step(state, march, step_dt)
            except DivergenceError as exc:
                traj.diverged = DivergenceError(exc.node, exc.time, step_idx + 1)
                break
            step_idx += 1

    traj.final = march.project(state.k, state.A, state.time)
    return traj
