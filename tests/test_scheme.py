"""Explicit stepping: flux terms, boundary enforcement, run loop edges."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from meshless_growth import (
    DegenerateBoundaryStarError,
    DivergenceError,
    GrowthSpec,
    ModelParams,
    NeumannOperator,
    PRESET_NAMES,
    SchemeConfig,
    State,
    StencilTable,
    build_all_stencils,
    generate_jittered,
    generate_regular,
    get_preset,
    production,
    run,
    step,
    tech_rate_field,
)
from meshless_growth.scheme import DIVERGENCE_LIMIT, _check_finite
from oracles import apply_stencil, euler_step, flux_term


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


def test_neumann_projection_idempotent_and_zero_flux():
    cloud = generate_jittered(7, 1.0, dim=2, jitter=0.25, seed=14)
    table = build_all_stencils(cloud, 8, "quadrant")
    rng = np.random.default_rng(4)
    op = NeumannOperator(cloud, table)
    once = op.project(rng.uniform(1, 2, cloud.n_nodes))
    twice = op.project(once)
    assert np.allclose(once, twice, rtol=0, atol=1e-12)
    dk = table.derivatives(once)
    for b in cloud.boundary_indices:
        normal_deriv = cloud.normals[b] @ dk[b, :2]
        assert abs(normal_deriv) < 1e-10


def test_step_requires_the_growth_field_and_the_closure():
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    state = State(k=np.ones(5), A=np.ones(5), time=0.0)
    with pytest.raises(TypeError, match="g_field"):
        step(state, table, ModelParams(), 1e-3, neumann=NeumannOperator(cloud, table))
    with pytest.raises(TypeError, match="neumann"):
        step(state, table, ModelParams(), 1e-3, g_field=np.zeros(5))


def _forcing(positions, t):
    return np.sin(3.0 * positions[:, 0]) * (1.0 + t)


# (preset, model changes, forced): every preset, technology diffusion
# without taxis, and in 1D and 2D taxis with diffusion and a forcing.  The
# presets' chi = 1 makes some roundings exact and their uniform A0 makes
# the taxis flux small, so the forced cases use chi = 0.7 and a rippled A0.
STEP_CASES = [(name, {}, False) for name in PRESET_NAMES] + [
    ("growth-2d-delta005", {"tech_diffusion": 3.0}, False),
    ("growth-2d-delta03-chi1", {"chi": 0.7, "tech_diffusion": 0.5}, True),
    ("growth-1d-chi1", {"chi": 0.7, "tech_diffusion": 0.5}, True),
]


@pytest.mark.parametrize("name,changes,forced", STEP_CASES,
                         ids=[f"{n}{'-D' if c else ''}{'-forced' if f else ''}"
                              for n, c, f in STEP_CASES])
def test_step_matches_the_plain_expressions_bit_for_bit(name, changes, forced):
    scenario = get_preset(name)
    params = replace(scenario.model, **changes)
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    neumann = NeumannOperator(cloud, table)
    kw = {"g_field": tech_rate_field(cloud, params.g_spec), "neumann": neumann,
          "forcing": _forcing if forced else None}
    init = scenario.initial_state(cloud)
    a0 = init.A * (1.0 + 0.3 * np.sin(7.0 * cloud.positions[:, 0])) if forced else init.A
    got = ref = State(k=neumann.project(init.k), A=neumann.project(a0), time=0.0)
    for _ in range(50):  # 5e-4 is under every case's step bound
        got = step(got, table, params, 5e-4, **kw)
        ref = euler_step(ref, table, params, 5e-4, **kw)
    assert got.k.tobytes() == ref.k.tobytes()
    assert got.A.tobytes() == ref.A.tobytes()
    assert got.time == ref.time


def _bad_node_setup():
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.1, seed=3)
    table = build_all_stencils(cloud, 8, "quadrant")
    neumann = NeumannOperator(cloud, table)
    params = ModelParams(p=2.0, q=2.0, g_spec=GrowthSpec("constant", 0.02))
    kw = {"g_field": tech_rate_field(cloud, params.g_spec), "neumann": neumann}
    return cloud, table, neumann, params, kw


def _at(node, value, n):
    return np.where(np.arange(n) == node, value, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["k", "A"])
def test_step_names_the_interior_node_that_went_bad(field, value):
    cloud, table, neumann, params, kw = _bad_node_setup()
    n = cloud.n_nodes
    # An interior node the boundary closure reads: projecting spreads its
    # value to every boundary node, lower-numbered ones included.
    node = int(neumann.cols[neumann.cols.size // 2])
    assert not np.isfinite(neumann.project(_at(node, value, n))[cloud.boundary_indices]).any()
    assert cloud.boundary_indices.min() < node
    state = State(k=np.ones(n), A=np.ones(n), time=0.5)
    if field == "k":
        kw["forcing"] = lambda pos, t: _at(node, value, len(pos))
    else:  # without taxis or diffusion only the node's own update reads A there
        state = State(k=state.k, A=state.A + _at(node, value, n), time=0.5)
    with pytest.raises(DivergenceError) as err:
        step(state, table, params, 1e-3, **kw)
    assert err.value.node == node and err.value.time == 0.5 + 1e-3


def test_step_drops_a_bad_boundary_value_the_projection_overwrites():
    cloud, table, neumann, params, kw = _bad_node_setup()
    n = cloud.n_nodes
    node = int(cloud.boundary_indices[3])
    state = State(k=np.ones(n), A=np.ones(n), time=0.0)
    out = step(state, table, params, 1e-3,
               forcing=lambda pos, t: _at(node, np.nan, len(pos)), **kw)
    assert np.isfinite(out.k).all()


def test_taxis_preset_divergence_is_reported_at_node_66():
    # growth-2d-delta03-chi1 blows up at an interior node (ROADMAP item 4).
    scenario = get_preset("growth-2d-delta03-chi1")
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    config = replace(scenario.scheme, t_final=14.0, snapshot_times=())
    traj = run(cloud, table, scenario.model, scenario.initial_state(cloud), config)
    err = traj.diverged
    assert (err.node, err.step) == (66, 13623)
    assert "(step 13623)" in str(err)
    assert err.time == pytest.approx(13.623, abs=5e-4)
    assert 66 in cloud.interior_indices


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
    kw = {"g_field": np.zeros(9), "neumann": NeumannOperator(cloud, table)}
    plain = step(state, table, params, dt, **kw)
    forced = step(state, table, params, dt, forcing=lambda pos, t: np.ones(len(pos)), **kw)
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


BAD_VALUES = [("k", np.nan), ("k", np.inf), ("k", -np.inf), ("k", 2 * DIVERGENCE_LIMIT),
              ("k", -2 * DIVERGENCE_LIMIT), ("A", np.nan), ("A", np.inf), ("A", -np.inf)]


@pytest.mark.parametrize("other_bad", [False, True])
@pytest.mark.parametrize("name,value", BAD_VALUES)
def test_check_finite_names_the_first_bad_node(name, value, other_bad):
    fields = {"k": np.ones(30), "A": np.ones(30)}
    fields[name][[11, 25]] = value
    if other_bad:  # a later bad node in the other field
        fields["k" if name == "A" else "A"][19] = np.nan
    with pytest.raises(DivergenceError) as err:
        _check_finite(fields["k"], fields["A"], 1.5)
    assert err.value.node == 11 and err.value.time == 1.5


def test_check_finite_passes_finite_fields_at_the_limits():
    k = np.full(30, DIVERGENCE_LIMIT)
    k[3] = -DIVERGENCE_LIMIT
    A = np.full(30, 1e308)  # finite values whose sum overflows
    A[7] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_finite(k, A, 0.0)
