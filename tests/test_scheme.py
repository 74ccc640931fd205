"""Explicit stepping: flux terms, boundary enforcement, run loop edges."""

import numpy as np
import pytest

from meshless_growth import (
    DegenerateBoundaryStarError,
    GrowthSpec,
    ModelParams,
    NeumannOperator,
    SchemeConfig,
    State,
    StencilTable,
    build_all_stencils,
    enforce_neumann,
    generate_jittered,
    generate_regular,
    production,
    run,
    step,
    tech_rate_field,
)
from oracles import apply_stencil, flux_term


def star_values(field, table, i):
    return np.concatenate([[field[i]], field[table.neighbors[i]]])


def test_flux_1d_frozen_example():
    # k = x, A = x^2: flux = -chi*(1)(2x0) - chi*x0*2 = -4 chi x0
    cloud = generate_regular(11, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    x = cloud.positions[:, 0]
    k, A = x.copy(), x**2
    chi = 1.7
    for i in cloud.interior_indices:
        got = flux_term(table, i, k, A, chi)
        assert got == pytest.approx(-4 * chi * x[i], rel=1e-10)


def test_flux_2d_frozen_example():
    # k = x + y, A = x^2 + y^2: flux = -chi*(2x0+2y0) - chi*(x0+y0)*4
    cloud = generate_regular(7, 1.0, dim=2)
    table = build_all_stencils(cloud, 8, "quadrant")
    x, y = cloud.positions[:, 0], cloud.positions[:, 1]
    k, A = x + y, x**2 + y**2
    chi = 0.6
    for i in cloud.interior_indices:
        got = flux_term(table, i, k, A, chi)
        assert got == pytest.approx(-6 * chi * (x[i] + y[i]), rel=1e-9)


def scalar_reference_step(state, table, params, dt, g_field, neumann):
    """Per-node loop in shuffled order; must equal the vectorized step."""
    cloud = table.cloud
    n = cloud.n_nodes
    k_new = np.empty(n)
    a_new = np.empty(n)
    for i in np.random.default_rng(0).permutation(n):
        cc, nc = table.center_coeffs[i], table.neighbor_coeffs[i]
        ks = star_values(state.k, table, i)
        As = star_values(state.A, table, i)
        dk = apply_stencil(cc, nc, ks[0], ks[1:])
        da = apply_stencil(cc, nc, As[0], As[1:])
        if cloud.dim == 1:
            lap_k, lap_a = dk[1], da[1]
        else:
            lap_k, lap_a = dk[2] + dk[3], da[2] + da[3]
        flux = flux_term(table, i, state.k, state.A, params.chi)
        rhs_k = lap_k + flux + As[0] * production(max(ks[0], 0.0), params) \
            - params.delta * ks[0]
        rhs_a = params.tech_diffusion * lap_a + As[0] * g_field[i]
        k_new[i] = ks[0] + dt * rhs_k
        a_new[i] = As[0] + dt * rhs_a
    return State(neumann.project(k_new), neumann.project(a_new), state.time + dt)


@pytest.mark.parametrize("dim,s,crit", [(1, 4, "distance"), (2, 8, "quadrant")])
def test_step_matches_scalar_reference(dim, s, crit):
    rng = np.random.default_rng(21)
    cloud = generate_jittered(6 if dim == 2 else 15, 1.0, dim=dim, jitter=0.2, seed=6)
    table = build_all_stencils(cloud, s, crit)
    params = ModelParams(alpha1=1.0, alpha2=1.0, p=2.0, q=2.0, delta=0.1,
                         chi=0.8, tech_diffusion=0.05,
                         g_spec=GrowthSpec("gaussian", 0.1, (0.5,) * dim, 0.2))
    g_field = tech_rate_field(cloud, params.g_spec)
    neumann = NeumannOperator(cloud, table)
    state = State(k=rng.uniform(0.5, 2.0, cloud.n_nodes),
                  A=rng.uniform(0.8, 1.2, cloud.n_nodes), time=0.0)
    got = step(state, table, params, 1e-4, g_field=g_field, neumann=neumann)
    ref = scalar_reference_step(state, table, params, 1e-4, g_field, neumann)
    assert np.allclose(got.k, ref.k, rtol=1e-12, atol=1e-14)
    assert np.allclose(got.A, ref.A, rtol=1e-12, atol=1e-14)


def test_enforce_neumann_idempotent_and_zero_flux():
    cloud = generate_jittered(7, 1.0, dim=2, jitter=0.25, seed=14)
    table = build_all_stencils(cloud, 8, "quadrant")
    rng = np.random.default_rng(4)
    state = State(k=rng.uniform(1, 2, cloud.n_nodes),
                  A=rng.uniform(1, 2, cloud.n_nodes), time=0.0)
    once = enforce_neumann(state, table, cloud)
    twice = enforce_neumann(once, table, cloud)
    assert np.allclose(once.k, twice.k, rtol=0, atol=1e-12)
    dk = table.derivatives(once.k)
    for b in cloud.boundary_indices:
        normal_deriv = cloud.normals[b] @ dk[b, :2]
        assert abs(normal_deriv) < 1e-10


def test_constant_fields_are_fixed_by_projection():
    cloud = generate_jittered(12, 1.0, dim=1, jitter=0.3, seed=2)
    table = build_all_stencils(cloud, 3)
    op = NeumannOperator(cloud, table)
    c = np.full(cloud.n_nodes, 3.7)
    assert np.allclose(op.project(c), c, rtol=0, atol=1e-12)


def test_uniform_state_stays_uniform():
    cloud = generate_jittered(6, 1.0, dim=2, jitter=0.2, seed=8)
    table = build_all_stencils(cloud, 8, "quadrant")
    params = ModelParams(p=2.0, q=2.0, delta=0.05, chi=1.0,
                         g_spec=GrowthSpec("constant", 0.02))
    init = State(k=np.full(cloud.n_nodes, 2.0), A=np.ones(cloud.n_nodes), time=0.0)
    traj = run(cloud, table, params, init, SchemeConfig(dt=1e-3, t_final=0.5))
    assert traj.diverged is None
    assert traj.final.k.max() - traj.final.k.min() < 1e-10
    assert traj.final.A.max() - traj.final.A.min() < 1e-12


def test_forcing_enters_capital_equation():
    cloud = generate_regular(9, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.0)
    state = State(k=np.ones(9), A=np.ones(9), time=0.0)
    dt = 1e-3
    plain = step(state, table, params, dt)
    forced = step(state, table, params, dt, forcing=lambda pos, t: np.ones(len(pos)))
    inner = cloud.interior_indices
    assert np.allclose(forced.k[inner] - plain.k[inner], dt, rtol=0, atol=1e-15)
    assert np.array_equal(forced.A, plain.A)


def test_run_initial_state_is_projected():
    cloud = generate_regular(11, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    x = cloud.positions[:, 0]
    init = State(k=1.0 + x, A=np.ones(11), time=0.0)  # nonzero boundary slope
    traj = run(cloud, table, ModelParams(alpha1=0.0, delta=0.0), init,
               SchemeConfig(dt=1e-3, t_final=0.0, snapshot_times=(0.0,)))
    snap = traj.snapshots[0]
    dk = table.derivatives(snap.k)
    for b in cloud.boundary_indices:
        assert abs(cloud.normals[b] @ dk[b, :1]) < 1e-10


def test_step_count_and_truncation():
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.0)
    init = State(k=np.ones(5), A=np.ones(5), time=0.0)
    traj = run(cloud, table, params, init, SchemeConfig(dt=0.1, t_final=0.35))
    assert traj.log[-1].step == 4  # three full steps and one truncated
    assert traj.final.time == 0.35
    exact = run(cloud, table, params, init, SchemeConfig(dt=0.1, t_final=0.3))
    assert exact.log[-1].step == 3
    assert exact.final.time == pytest.approx(0.3, abs=1e-15)


def test_long_run_step_count_resists_drift():
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.01)
    init = State(k=np.ones(5), A=np.ones(5), time=0.0)
    traj = run(cloud, table, params, init, SchemeConfig(dt=1e-3, t_final=50.0))
    assert traj.log[-1].step == 50000
    assert traj.final.time == pytest.approx(50.0, abs=1e-9)


def test_zero_horizon_takes_no_steps():
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    init = State(k=np.ones(5), A=np.ones(5), time=0.0)
    traj = run(cloud, table, ModelParams(), init, SchemeConfig(dt=0.1, t_final=0.0))
    assert len(traj.log) == 1 and traj.log[0].step == 0
    assert traj.final.time == 0.0


def test_snapshots_pick_nearest_step():
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.0)
    init = State(k=np.ones(5), A=np.ones(5), time=0.0)
    cfg = SchemeConfig(dt=0.1, t_final=1.0, snapshot_times=(0.0, 0.24, 0.26, 1.0))
    traj = run(cloud, table, params, init, cfg)
    taken = {s.requested_time: s.time for s in traj.snapshots}
    assert taken[0.0] == 0.0
    assert taken[0.24] == pytest.approx(0.2)
    assert taken[0.26] == pytest.approx(0.3)
    assert taken[1.0] == pytest.approx(1.0)


def test_divergence_reports_partial_trajectory():
    cloud = generate_regular(9, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    # negative delta is rejected, so drive blow-up with huge production
    params = ModelParams(alpha1=1e6, alpha2=0.0, p=2.0, q=1.0, delta=0.0)
    init = State(k=np.full(9, 100.0), A=np.full(9, 100.0), time=0.0)
    traj = run(cloud, table, params, init, SchemeConfig(dt=1.0, t_final=10.0))
    assert traj.diverged is not None
    assert traj.diverged.step is not None and traj.diverged.step <= 10
    assert traj.final is not None and np.all(np.isfinite(traj.final.k))
    assert len(traj.log) == traj.diverged.step  # log holds completed steps only


def test_stability_check_records_violations():
    cloud = generate_regular(21, 1.0, dim=1)  # h = 0.05, bound = 1.25e-3
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.0)
    init = State(k=np.ones(21), A=np.ones(21), time=0.0)
    cfg = SchemeConfig(dt=5e-3, t_final=0.05, stability_mode="check",
                       stability_interval=5)
    traj = run(cloud, table, params, init, cfg)
    assert traj.stability_events
    assert all(e.action == "violation" for e in traj.stability_events)
    assert traj.stability_events[0].global_dt == pytest.approx(1.25e-3, rel=1e-9)


def test_stability_adapt_shrinks_dt_and_survives():
    cloud = generate_regular(21, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.0)
    rng = np.random.default_rng(1)
    init = State(k=1 + 0.5 * rng.random(21), A=np.ones(21), time=0.0)
    bad = SchemeConfig(dt=5e-3, t_final=1.0, stability_mode="off")
    assert run(cloud, table, params, init, bad).diverged is not None
    good = SchemeConfig(dt=5e-3, t_final=1.0, stability_mode="adapt",
                        stability_interval=1)
    traj = run(cloud, table, params, init, good)
    assert traj.diverged is None
    assert any(e.action == "adapt" for e in traj.stability_events)
    assert traj.final.k.max() < 2.0


def test_adapt_mode_allows_missing_dt():
    cloud = generate_regular(11, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.1)
    init = State(k=np.ones(11), A=np.ones(11), time=0.0)
    cfg = SchemeConfig(dt=None, t_final=0.1, stability_mode="adapt")
    traj = run(cloud, table, params, init, cfg)
    assert traj.diverged is None
    assert traj.final.time == pytest.approx(0.1)


def test_clamp_count_logged():
    cloud = generate_regular(9, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.0)
    k0 = np.ones(9)
    k0[4] = -0.5  # interior negative survives the boundary projection
    init = State(k=k0, A=np.ones(9), time=0.0)
    traj = run(cloud, table, params, init, SchemeConfig(dt=1e-4, t_final=2e-4))
    assert traj.log[1].clamp_count >= 1


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(dt=None, t_final=1.0, stability_mode="check")
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, t_final=-1.0)
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, t_final=1.0, snapshot_times=(0.5, 0.2))
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, t_final=1.0, snapshot_times=(0.5, 2.0))
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, t_final=1.0, stability_mode="cfl")
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, t_final=1.0, stability_interval=0)


def test_state_shape_validation():
    with pytest.raises(ValueError):
        State(k=np.ones(3), A=np.ones(4), time=0.0)
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    with pytest.raises(ValueError):
        run(cloud, table, ModelParams(), State(np.ones(4), np.ones(4), 0.0),
            SchemeConfig(dt=0.1, t_final=0.1))


def test_degenerate_boundary_star_detected():
    cloud = generate_regular(7, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    # zero out the center x-coefficient of one boundary stencil
    cc = table.center_coeffs.copy()
    cc[0, 0] = 0.0
    bad_table = StencilTable(cloud, table.neighbors, cc, table.neighbor_coeffs)
    with pytest.raises(DegenerateBoundaryStarError):
        NeumannOperator(cloud, bad_table)
