"""Explicit stepping: flux terms, boundary enforcement, run loop edges."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from meshless_growth import (
    DegenerateBoundaryStarError,
    DivergenceError,
    GrowthSpec,
    March,
    ModelParams,
    NeumannOperator,
    PRESET_NAMES,
    SchemeConfig,
    State,
    StencilTable,
    build_all_stencils,
    dt_bound,
    generate_jittered,
    generate_regular,
    get_preset,
    production,
    run,
    step,
)
from meshless_growth.output import snapshot_filename
from meshless_growth import scheme
from meshless_growth.scheme import DIVERGENCE_LIMIT, _check_finite
from oracles import (
    apply_stencil,
    center_coeffs,
    euler_step,
    flux_term,
    folded_step,
    neighbor_coeffs,
    plain_rhs,
    two_column_rhs,
)


def star_values(field, table, i):
    return np.concatenate([[field[i]], field[table.stars[:-1, i]]])


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
    table = build_all_stencils(cloud, 8)
    x, y = cloud.positions[:, 0], cloud.positions[:, 1]
    k, A = x + y, x**2 + y**2
    chi = 0.6
    for i in cloud.interior_indices:
        got = flux_term(table, i, k, A, chi)
        assert got == pytest.approx(-6 * chi * (x[i] + y[i]), rel=1e-9)


def scalar_reference_step(state, march, dt):
    """Per-node loop in shuffled order; must equal the vectorized step."""
    table, params = march.table, march.params
    cloud = table.cloud
    n = cloud.n_nodes
    k_new = np.empty(n)
    a_new = np.empty(n)
    for i in np.random.default_rng(0).permutation(n):
        cc, nc = center_coeffs(table)[i], neighbor_coeffs(table)[i]
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
        rhs_a = params.tech_diffusion * lap_a + As[0] * march.g_field[i]
        k_new[i] = ks[0] + dt * rhs_k
        a_new[i] = As[0] + dt * rhs_a
    return State(march.neumann.project(k_new), march.neumann.project(a_new), state.time + dt)


@pytest.mark.parametrize("dim,s", [(1, 4), (2, 8)])
def test_step_matches_scalar_reference(dim, s):
    rng = np.random.default_rng(21)
    cloud = generate_jittered(6 if dim == 2 else 15, 1.0, dim=dim, jitter=0.2, seed=6)
    table = build_all_stencils(cloud, s)
    params = ModelParams(alpha1=1.0, alpha2=1.0, p=2.0, q=2.0, delta=0.1,
                         chi=0.8, tech_diffusion=0.05,
                         g_spec=GrowthSpec("gaussian", 0.1, (0.5,) * dim, 0.2))
    march = March(table, params)
    state = State(k=rng.uniform(0.5, 2.0, cloud.n_nodes),
                  A=rng.uniform(0.8, 1.2, cloud.n_nodes), time=0.0)
    got = step(state, march, 1e-4)
    ref = scalar_reference_step(state, march, 1e-4)
    assert np.allclose(got.k, ref.k, rtol=1e-12, atol=1e-14)
    assert np.allclose(got.A, ref.A, rtol=1e-12, atol=1e-14)


def test_neumann_projection_idempotent_and_zero_flux():
    cloud = generate_jittered(7, 1.0, dim=2, jitter=0.25, seed=14)
    table = build_all_stencils(cloud, 8)
    rng = np.random.default_rng(4)
    op = NeumannOperator(cloud, table)
    once = op.project(rng.uniform(1, 2, cloud.n_nodes))
    twice = op.project(once.copy())
    assert np.allclose(once, twice, rtol=0, atol=1e-12)
    dk = table.derivatives(once)
    for b in cloud.boundary_indices:
        normal_deriv = cloud.normals[b] @ dk[b, :2]
        assert abs(normal_deriv) < 1e-10


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


STEP_CASE_IDS = [f"{n}{'-D' if c else ''}{'-forced' if f else ''}" for n, c, f in STEP_CASES]


def _step_case(name, changes, forced):
    """The case's march and its projected initial state."""
    scenario = get_preset(name)
    cloud = scenario.cloud.build()
    march = March(scenario.star.build_table(cloud), replace(scenario.model, **changes),
                  _forcing if forced else None)
    init = scenario.initial_state(cloud)
    a0 = init.A * (1.0 + 0.3 * np.sin(7.0 * cloud.positions[:, 0])) if forced else init.A
    return march, State(k=march.neumann.project(init.k), A=march.neumann.project(a0), time=0.0)


@pytest.mark.parametrize("name,changes,forced", STEP_CASES, ids=STEP_CASE_IDS)
def test_step_matches_the_plain_expressions_bit_for_bit(name, changes, forced):
    # folded_step projects both fields; step projects A only where it
    # differentiates A.  Elsewhere each node's A, boundary ones included,
    # is its own forward Euler product, and its projection is folded_step's A.
    march, got = _step_case(name, changes, forced)
    ref, own = got, got.A
    for _ in range(50):  # 5e-4 is under every case's step bound
        got = step(got, march, 5e-4)
        ref = folded_step(ref, march, 5e-4)
        own = own * (1.0 + 5e-4 * march.g_field)
    assert got.k.tobytes() == ref.k.tobytes()
    if march.differentiates_a:
        assert got.A.tobytes() == ref.A.tobytes()
    else:
        inner = march.table.cloud.interior_indices
        assert got.A[inner].tobytes() == ref.A[inner].tobytes()
        assert got.A.tobytes() == own.tobytes()
        assert march.neumann.project(got.A).tobytes() == ref.A.tobytes()
    assert got.time == ref.time


@pytest.mark.parametrize("name,changes,forced", STEP_CASES, ids=STEP_CASE_IDS)
def test_step_leaves_the_state_arrays_as_they_were(name, changes, forced):
    # step projects its own update in place, never the arrays it reads.
    march, state = _step_case(name, changes, forced)
    k, A = state.k.tobytes(), state.A.tobytes()
    step(state, march, 5e-4)
    assert state.k.tobytes() == k and state.A.tobytes() == A


@pytest.mark.parametrize("name,changes,forced", STEP_CASES, ids=STEP_CASE_IDS)
def test_the_bound_of_a_marched_state_is_the_bound_of_its_projection(name, changes, forced):
    # run bounds the state its march holds.  Its boundary A goes unprojected
    # where chi = 0 and D = 0, and the bound reads A off a star's own node
    # only times chi, so the bound is the projected state's bit for bit.
    march, state = _step_case(name, changes, forced)
    for _ in range(50):
        state = step(state, march, 5e-4)
    projected = march.project(state.k, state.A, state.time)
    bound = dt_bound(march.table, state, march.params).global_dt
    assert bound == dt_bound(march.table, projected, march.params).global_dt


# (preset, model changes, the width of the derivatives step asks for each
# field it differentiates): the Laplacian row alone, for k without taxis or
# technology diffusion and for A too with diffusion, and with taxis the
# gradient rows before it.
PARTS_CASES = [
    ("growth-2d-delta005", {}, (1,)),
    ("growth-1d-delta005", {}, (1,)),
    ("growth-2d-delta005", {"tech_diffusion": 3.0}, (1, 1)),
    ("growth-1d-delta005", {"tech_diffusion": 3.0}, (1, 1)),
    ("growth-2d-delta03-chi1", {}, (3, 3)),
    ("growth-1d-chi1", {}, (2, 2)),
]
PARTS_IDS = [f"{n}{'-D' if c else ''}" for n, c, _ in PARTS_CASES]


@pytest.mark.parametrize("name,changes,widths", PARTS_CASES, ids=PARTS_IDS)
def test_step_differentiates_only_the_parts_its_terms_read(name, changes, widths, monkeypatch):
    march, state = _step_case(name, changes, False)
    shapes = []
    full = StencilTable.derivatives

    def recorder(table, field, *rows):
        out = full(table, field, *rows)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(StencilTable, "derivatives", recorder)
    step(state, march, 5e-4)
    assert shapes == [(march.table.cloud.n_nodes, w) for w in widths]


EQUALITY_IDS = [*STEP_CASE_IDS, "jittered-48x48"]


def _equality_case(case_id):
    """(march, projected initial state, dt) of a step case, or of
    growth-2d-delta005's model on a jittered 48x48 cloud at the
    large-cloud-2d workload's dt."""
    if case_id in STEP_CASE_IDS:
        return (*_step_case(*STEP_CASES[STEP_CASE_IDS.index(case_id)]), 5e-4)
    scenario = get_preset("growth-2d-delta005")
    cloud = generate_jittered(48, 1.0, dim=2, jitter=0.1, seed=11)
    march = March(scenario.star.build_table(cloud), scenario.model)
    init = scenario.initial_state(cloud)
    return march, march.project(init.k, init.A, 0.0), 1e-4


@pytest.mark.parametrize("case", EQUALITY_IDS)
def test_march_rows_are_the_laplacian_and_gradient_rows_bit_for_bit(case):
    march = _equality_case(case)[0]
    table, dim = march.table, march.table.cloud.dim
    expected = [table.lap] if march.params.chi == 0.0 else [*table.coeffs[:dim], table.lap]
    assert march.rows.flags.c_contiguous
    assert march.rows.shape == (len(expected), *table.stars.shape)
    for got, want in zip(march.rows, expected):
        assert got.tobytes() == want.tobytes()


def _assert_within_rounding(march, got, ref):
    """Each field of got lies within 1e-12 of ref's largest value there, A
    compared after its projection (a step leaves boundary A unprojected
    where no operator reads it)."""
    got_a = march.neumann.project(got.A.copy())  # idempotent: boundary values read interior ones
    assert got.time == ref.time
    assert np.abs(got.k - ref.k).max() <= 1e-12 * np.abs(ref.k).max()
    assert np.abs(got_a - ref.A).max() <= 1e-12 * np.abs(ref.A).max()


@pytest.mark.parametrize("case", EQUALITY_IDS)
def test_step_agrees_with_euler_on_the_right_hand_side(case):
    # 500 steps against forward Euler on plain_rhs, which forms the
    # right-hand side and adds the state back: step folds the linear part
    # of the update into its row, so the sums are reordered, in 1D too.
    march, got, dt = _equality_case(case)
    ref = got
    for _ in range(500):
        got = step(got, march, dt)
        ref = euler_step(ref, march, dt)
    _assert_within_rounding(march, got, ref)


@pytest.mark.parametrize("case", EQUALITY_IDS)
def test_one_row_laplacian_march_agrees_with_the_two_column_form(case):
    # 500 steps against two_column_rhs, whose Laplacian sums the xx and yy
    # columns: the sums are reordered, and the update row folds in the state.
    march, got, dt = _equality_case(case)
    ref = got
    for _ in range(500):
        got = step(got, march, dt)
        ref = euler_step(ref, march, dt, rhs=two_column_rhs)
    _assert_within_rounding(march, got, ref)


@pytest.mark.parametrize("case", EQUALITY_IDS)
def test_the_update_rows_fold_the_linear_part_into_march_rows(case):
    march, _, dt = _equality_case(case)
    before = march.rows.tobytes()
    rows, a_factor = update = march.update(dt)
    want = march.rows.copy()
    want[-1] = march.rows[-1] * dt
    want[-1, -1] = march.rows[-1, -1] * dt + (1.0 - dt * march.params.delta)
    assert rows.flags.c_contiguous
    assert rows.tobytes() == want.tobytes()
    assert a_factor.tobytes() == (1.0 + dt * march.g_field).tobytes()
    assert march.rows.tobytes() == before
    assert march.update(dt) is update


def _count_builds(monkeypatch):
    """The step sizes of every update built, told by rows that are not the
    last call's, and of every step taken."""
    built, stepped, last = [], [], None
    update, full_step = March.update, scheme.step

    def recorder(march, dt):
        nonlocal last
        rows, _ = pair = update(march, dt)
        if rows is not last:  # last is held, so new rows are another object
            built.append(dt)
            last = rows
        return pair

    def stepper(state, march, dt):
        stepped.append(dt)
        return full_step(state, march, dt)

    monkeypatch.setattr(March, "update", recorder)
    monkeypatch.setattr(scheme, "step", stepper)
    return built, stepped


def _changes(sizes):
    """The step sizes of a sequence at each change, the first included."""
    return [dt for i, dt in enumerate(sizes) if i == 0 or dt != sizes[i - 1]]


def test_a_run_builds_one_update_per_step_size(monkeypatch):
    # One for the run's dt and one for its truncated last step; adapt
    # builds one more per event, and no other step builds one.
    built, stepped = _count_builds(monkeypatch)
    cloud = generate_regular(21, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.01)
    init = State(k=1 + 0.5 * np.random.default_rng(1).random(21), A=np.ones(21), time=0.0)
    traj = run(cloud, table, params, init, SchemeConfig(dt=1e-4, t_final=0.01234))
    assert len(stepped) == traj.log[-1].step == 124 and stepped[-1] < 1e-4
    assert built == [1e-4, stepped[-1]] == _changes(stepped)
    # Capital growing past the peak of f' lowers the bound, so adapt shrinks
    # dt after the run's dt has stepped.
    built.clear(), stepped.clear()
    params = ModelParams(alpha1=1.0, delta=0.0)
    init = State(k=init.k - 0.5, A=np.full(21, 100.0), time=0.0)
    dt = 0.99 * dt_bound(table, init, params).global_dt
    traj = run(cloud, table, params, init, SchemeConfig(dt=dt, t_final=0.02,
                                                        stability_mode="adapt",
                                                        stability_interval=4))
    events = [e.step for e in traj.stability_events if e.action == "adapt"]
    assert events == [8] and traj.diverged is None
    assert built == _changes(stepped)
    assert len(built) == 1 + len(events) + (stepped[-1] != stepped[-2]) == 3


PROJECTION_IDS = [*PRESET_NAMES, "jittered-48x48"]


@pytest.mark.parametrize("case", PROJECTION_IDS)
def test_the_closure_reads_interior_nodes_only(case):
    # So the projection, which writes in place, reads no value it writes.
    op = _equality_case(case)[0].neumann
    assert np.intersect1d(op.cols, op.boundary_idx).size == 0


@pytest.mark.parametrize("name,changes,widths", PARTS_CASES, ids=PARTS_IDS)
def test_step_projects_only_the_fields_it_differentiates(name, changes, widths, monkeypatch):
    # One projection per field the next step reads the boundary values of:
    # k alone without taxis or technology diffusion, k and A with either.
    march, state = _step_case(name, changes, False)
    calls = []
    full = NeumannOperator.project

    def recorder(op, field):
        calls.append(field)
        return full(op, field)

    monkeypatch.setattr(NeumannOperator, "project", recorder)
    step(state, march, 5e-4)
    assert len(calls) == len(widths)


def _bad_node_setup():
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.1, seed=3)
    table = build_all_stencils(cloud, 8)
    return March(table, ModelParams(p=2.0, q=2.0, g_spec=GrowthSpec("constant", 0.02)))


def _at(node, value, n):
    return np.where(np.arange(n) == node, value, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["k", "A"])
def test_step_names_the_interior_node_that_went_bad(field, value):
    march = _bad_node_setup()
    cloud, neumann = march.table.cloud, march.neumann
    n = cloud.n_nodes
    # An interior node the boundary closure reads: projecting spreads its
    # value to every boundary node, lower-numbered ones included.  The
    # closure's zero weights times an infinity make NaN, which a direct
    # caller hears of.
    node = int(neumann.cols[neumann.cols.size // 2])
    with np.errstate(invalid="ignore"):
        spread_field = neumann.project(_at(node, value, n))
    assert not np.isfinite(spread_field[cloud.boundary_indices]).any()
    assert cloud.boundary_indices.min() < node
    state = State(k=np.ones(n), A=np.ones(n), time=0.5)
    if field == "k":
        march = March(march.table, march.params, lambda pos, t: _at(node, value, len(pos)))
    else:  # without taxis or diffusion only the node's own update reads A there
        state = State(k=state.k, A=state.A + _at(node, value, n), time=0.5)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        step(state, march, 1e-3)
    assert err.value.node == node and err.value.time == 0.5 + 1e-3


def test_step_drops_a_bad_boundary_value_the_projection_overwrites():
    march = _bad_node_setup()
    cloud = march.table.cloud
    n = cloud.n_nodes
    node = int(cloud.boundary_indices[3])
    state = State(k=np.ones(n), A=np.ones(n), time=0.0)
    march = March(march.table, march.params, lambda pos, t: _at(node, np.nan, len(pos)))
    out = step(state, march, 1e-3)
    assert np.isfinite(out.k).all()


def test_step_names_the_interior_node_before_a_lower_boundary_one():
    # The interior value is the update's own; the boundary value the update
    # made is replaced by the zero-flux closure, which the interior NaN
    # spreads to every boundary node.
    march = _bad_node_setup()
    cloud, neumann = march.table.cloud, march.neumann
    n = cloud.n_nodes
    node, low = int(neumann.cols[neumann.cols.size // 2]), int(cloud.boundary_indices[0])
    assert low < node
    state = State(k=np.ones(n), A=np.ones(n), time=0.0)
    march = March(march.table, march.params,
                  lambda pos, t: _at(node, np.nan, len(pos)) + _at(low, np.nan, len(pos)))
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        step(state, march, 1e-3)
    assert err.value.node == node


def test_a_step_that_diverges_calls_forcing_once():
    march = _bad_node_setup()
    n = march.table.cloud.n_nodes
    node = int(march.neumann.cols[0])
    calls = []

    def forcing(pos, t):
        calls.append(t)
        return _at(node, np.inf, len(pos))

    state = State(k=np.ones(n), A=np.ones(n), time=0.25)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        step(state, March(march.table, march.params, forcing), 1e-3)
    assert err.value.node == node and calls == [0.25]


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_interior_technology_grows_by_forward_euler(name):
    # With no technology diffusion, interior A is forward Euler on A' = g A:
    # (1 + g dt_1) ... (1 + g dt_n) lies between exp(g t)(1 - g^2 t dt_max / 2)
    # and exp(g t), up to a few roundings per step.  Boundary A is left out:
    # the zero-flux projection sets it.
    scenario = get_preset(name, {"scheme.t_final": 1.0, "scheme.snapshot_times": ""})
    assert scenario.model.tech_diffusion == 0.0
    cloud = scenario.cloud.build()
    initial = scenario.initial_state(cloud)
    traj = run(cloud, scenario.star.build_table(cloud), scenario.model, initial,
               scenario.scheme)
    assert traj.diverged is None
    spec, x = scenario.model.g_spec, cloud.positions
    g = spec.level * np.ones(cloud.n_nodes)
    if spec.kind == "gaussian":
        g *= np.exp(-((x - np.asarray(spec.center)) ** 2).sum(axis=1) / (2.0 * spec.sigma ** 2))
    steps = np.diff([rec.time for rec in traj.log])
    t, dt_max, n = steps.sum(), steps.max(), steps.size
    inner = cloud.interior_indices
    upper = initial.A[inner] * np.exp(g[inner] * t)
    lower = upper * (1.0 - g[inner] ** 2 * t * dt_max / 2.0)
    slack = 4 * n * np.finfo(float).eps

    def excursion(a):
        return np.max(np.maximum(a / upper - 1.0, 1.0 - a / lower))

    a = traj.final.A[inner]
    assert excursion(a) <= slack
    # The band has teeth: the Euler product sits at its lower edge, and where
    # the band is narrower than 1e-9 somewhere, also within 1e-9 of the upper one.
    assert excursion(a * (1 - 1e-9)) > slack
    if np.min(1.0 - lower / upper) < 1e-9:
        assert excursion(a * (1 + 1e-9)) > slack


def test_constant_fields_are_fixed_by_projection():
    cloud = generate_jittered(12, 1.0, dim=1, jitter=0.3, seed=2)
    table = build_all_stencils(cloud, 3)
    op = NeumannOperator(cloud, table)
    c = np.full(cloud.n_nodes, 3.7)
    assert np.allclose(op.project(c.copy()), c, rtol=0, atol=1e-12)


def test_uniform_state_stays_uniform():
    cloud = generate_jittered(6, 1.0, dim=2, jitter=0.2, seed=8)
    table = build_all_stencils(cloud, 8)
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
    plain = step(state, March(table, params), dt)
    forced = step(state, March(table, params, lambda pos, t: np.ones(len(pos))), dt)
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


def _is_projected(march, state):
    return all(march.neumann.project(f.copy()).tobytes() == f.tobytes() for f in (state.k, state.A))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_recorded_state_is_projected(name):
    # Steps leave boundary A unprojected where no operator reads it; run
    # projects each state it records.  It bounds the march's own state,
    # whose bound is the recorded state's: the bound reads boundary A only
    # times chi.
    scenario = get_preset(name, {"scheme.t_final": 1.0, "scheme.snapshot_times": "0, 0.5, 1"})
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    march = March(table, scenario.model)
    traj = run(cloud, table, scenario.model, scenario.initial_state(cloud), scenario.scheme)
    assert traj.diverged is None and len(traj.snapshots) == 3
    assert _is_projected(march, traj.final)
    steps = {rec.time: rec.step for rec in traj.log}
    bounded = 0
    for snap in traj.snapshots:
        assert _is_projected(march, snap)
        j = steps[snap.time]  # the bound taken at step j is logged with step j + 1
        if j % scenario.scheme.stability_interval == 0 and j < len(traj.log) - 1:
            bound = dt_bound(table, State(k=snap.k, A=snap.A, time=snap.time), scenario.model)
            assert traj.log[j + 1].dt_bound == bound.global_dt
            bounded += 1
    assert bounded >= 1 + (cloud.dim == 2)  # t = 0, and t = 0.5 at step 500 in 2D


def test_the_final_state_of_a_diverged_march_is_projected():
    # chi = 0 and D = 0, so the steps leave boundary A unprojected.
    scenario = get_preset("growth-2d-delta005")
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    march = March(table, scenario.model)
    given = scenario.initial_state(cloud)
    initial = march.project(given.k, given.A, given.time)
    dt = 20.0 * dt_bound(table, initial, scenario.model).global_dt
    traj = run(cloud, table, scenario.model, initial, SchemeConfig(dt=dt, t_final=1000 * dt))
    assert traj.diverged is not None and traj.diverged.step > 1
    assert not march.differentiates_a and _is_projected(march, traj.final)


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


def test_a_snapshot_time_past_the_final_state_takes_it():
    # A requested time may exceed t_final by 1e-12 relative, here 1e-9,
    # twice the 1e-9 * dt that lets a step reach it: only the horizon takes it.
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    init = State(k=np.zeros(5), A=np.ones(5), time=0.0)  # a fixed point at any dt
    params = ModelParams(g_spec=GrowthSpec(kind="constant", level=0.0))
    late = 1000.0 * (1 + 1e-12)
    traj = run(cloud, table, params, init,
               SchemeConfig(dt=0.5, t_final=1000.0, snapshot_times=(999.7, late)))
    assert traj.log[-1].step == 2000 and late - traj.final.time > 0.5e-9
    taken = {s.requested_time: s for s in traj.snapshots}
    assert taken[999.7].time == 999.5
    assert taken[late].time == traj.final.time
    assert taken[late].k.tobytes() == traj.final.k.tobytes()


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


def test_run_silences_the_warnings_of_a_march_that_overflows():
    # Technology diffusion at dt far above its bound 2 / (D rho): A, which is
    # checked only for finiteness, grows every step until it overflows.
    # alpha1 = 0 and chi = 0 keep k, which stays stable at this dt, apart from A.
    scenario = get_preset("growth-2d-delta005")
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    params = replace(scenario.model, alpha1=0.0, tech_diffusion=300.0)
    init = scenario.initial_state(cloud)
    init = State(k=init.k, A=init.A + 0.1 * cloud.positions[:, 0], time=0.0)
    config = SchemeConfig(dt=1e-3, t_final=1.0, stability_mode="off")
    assert config.dt > 100 * dt_bound(table, init, params).global_dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning out of run fails the test
        traj = run(cloud, table, params, init, config)
    err = traj.diverged
    assert err is not None and err.node is not None and err.step is not None
    assert np.abs(traj.final.A).max() > 1e300  # the last finite state
    # a direct caller of step owns the warnings
    march = March(table, params)
    state = State(march.neumann.project(init.k), march.neumann.project(init.A), 0.0)
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(DivergenceError):
        for _ in range(err.step):
            state = step(state, march, config.dt)


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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^dt: "):
            SchemeConfig(dt=bad, t_final=1.0)
        with pytest.raises(ValueError, match="^t_final: "):
            SchemeConfig(dt=0.1, t_final=bad)
    with pytest.raises(ValueError, match="^snapshot_times: "):
        SchemeConfig(dt=0.1, t_final=1.0, snapshot_times=(math.nan,))
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


@pytest.mark.parametrize("times, name", [((1e-7, 4e-7), "snap_t0.000000.csv"),
                                         ((0.5, 0.5), "snap_t0.500000.csv"),
                                         ((0.0, 0.1234561, 0.1234564), "snap_t0.123456.csv"),
                                         ((0.0, -0.0), "snap_t0.000000.csv")])
def test_snapshot_times_that_would_share_a_file_are_rejected(times, name):
    # The later snapshot would overwrite the earlier, and plot.gp plot that file twice.
    with pytest.raises(ValueError, match=rf"^snapshot_times: .* would both write {re.escape(name)}$"):
        SchemeConfig(dt=1e-8, t_final=1.0, snapshot_times=times)
    with pytest.raises(ValueError, match=r"^scheme\.snapshot_times: "):
        get_preset("growth-1d-chi1", {"scheme.snapshot_times": ", ".join(map(repr, times))})
    assert len({snapshot_filename(t) for t in (0.0, 1e-6, 0.5, 0.500001)}) == 4


def test_a_snapshot_time_of_minus_zero_is_the_time_zero():
    # -0 once wrote snap_t-0.000000.csv, beside snap_t0.000000.csv for 0.
    (time,) = SchemeConfig(dt=0.1, t_final=1.0, snapshot_times=(-0.0,)).snapshot_times
    assert math.copysign(1.0, time) == 1.0
    assert snapshot_filename(time) == "snap_t0.000000.csv"


def test_state_shape_validation():
    with pytest.raises(ValueError):
        State(k=np.ones(3), A=np.ones(4), time=0.0)
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    with pytest.raises(ValueError):
        run(cloud, table, ModelParams(), State(np.ones(4), np.ones(4), 0.0),
            SchemeConfig(dt=0.1, t_final=0.1))


def test_run_rejects_a_table_built_on_another_cloud():
    # The march reads the table's cloud and the snapshots the given one, so
    # a twin of the same size would pair one cloud's positions with values
    # marched on another.
    c1 = generate_jittered(8, 1.0, dim=2, jitter=0.1, seed=1)
    table = build_all_stencils(c1, 8)
    config = SchemeConfig(dt=1e-4, t_final=1e-3)
    for other in (generate_jittered(8, 1.0, dim=2, jitter=0.1, seed=2),
                  generate_jittered(9, 1.0, dim=2, jitter=0.1, seed=2)):
        init = State(np.ones(other.n_nodes), np.ones(other.n_nodes), 0.0)
        with pytest.raises(ValueError, match="^the stencil table was built on another cloud$"):
            run(other, table, ModelParams(), init, config)
    init = State(np.ones(c1.n_nodes), np.ones(c1.n_nodes), 0.0)
    assert run(c1, table, ModelParams(), init, config).cloud is c1


@pytest.mark.parametrize("name, node, value", [("k", 1, np.inf), ("k", 4, np.inf),
                                               ("A", 0, np.nan), ("A", 8, -np.inf)])
def test_run_rejects_a_non_finite_initial_state_before_its_march(name, node, value):
    # Projected, such a value would reach the neighbors of its node, and the
    # march would report it as divergence at a node where it did not start.
    cloud = generate_regular(9, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    fields = {"k": np.ones(9), "A": np.ones(9)}
    fields[name][node] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning out of run fails the test
        with pytest.raises(ValueError, match=rf"^initial {name} is not finite at node {node}: "):
            run(cloud, table, ModelParams(), State(fields["k"], fields["A"], 0.0),
                SchemeConfig(dt=1e-4, t_final=1e-3))


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
def test_run_rejects_a_non_finite_initial_time(time):
    # Marched, nan would end as a divergence at t = nan, and inf would take
    # no step and record snapshots at t = inf.
    cloud = generate_regular(9, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    with pytest.raises(ValueError, match="^initial time is not finite: "):
        run(cloud, table, ModelParams(), State(np.ones(9), np.ones(9), time),
            SchemeConfig(dt=1e-4, t_final=1e-3, snapshot_times=(0.0, 5e-4)))


def test_degenerate_boundary_star_detected():
    cloud = generate_regular(7, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    # zero out the center x-coefficient of one boundary stencil
    coeffs = table.coeffs.copy()
    coeffs[0, -1, 0] = 0.0
    bad_table = StencilTable(cloud, table.stars, coeffs)
    with pytest.raises(DegenerateBoundaryStarError):
        NeumannOperator(cloud, bad_table)


NO_BOUNDARY = np.zeros(30, dtype=bool)
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
        _check_finite(fields["k"], fields["A"], 1.5, NO_BOUNDARY)
    assert err.value.node == 11 and err.value.time == 1.5


@pytest.mark.parametrize("name,value", BAD_VALUES)
def test_check_finite_names_an_interior_node_before_a_boundary_one(name, value):
    fields = {"k": np.ones(30), "A": np.ones(30)}
    fields[name][[4, 11, 25]] = value
    boundary = np.zeros(30, dtype=bool)
    boundary[[0, 4, 11, 29]] = True
    with pytest.raises(DivergenceError) as err:
        _check_finite(fields["k"], fields["A"], 1.5, boundary)
    assert err.value.node == 25
    fields[name][25] = 1.0  # bad on the boundary alone
    with pytest.raises(DivergenceError) as err:
        _check_finite(fields["k"], fields["A"], 1.5, boundary)
    assert err.value.node == 4


@pytest.mark.parametrize("node", [0, 17, 29])
def test_check_finite_at_the_edges_of_its_fast_path(node):
    # Fast path: k.k < L^2 / 2 and a finite A.A; anything else takes the mask.
    def fields(k, A, k_node=None, a_node=None):
        k, A = np.full(30, k), np.full(30, A)
        if k_node is not None:
            k[node] = k_node
        if a_node is not None:
            A[node] = a_node
        return k, A

    above = np.nextafter(DIVERGENCE_LIMIT, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_finite(*fields(1.0, 1.0, k_node=DIVERGENCE_LIMIT), 0.0, NO_BOUNDARY)
        _check_finite(*fields(1.0, 1.0, k_node=-DIVERGENCE_LIMIT), 0.0, NO_BOUNDARY)
        _check_finite(*fields(0.8 * DIVERGENCE_LIMIT, 1.0), 0.0, NO_BOUNDARY)  # k.k is past L^2 / 2
        _check_finite(*fields(1.0, 1e200), 0.0, NO_BOUNDARY)  # A.A overflows
        for k, A in [fields(1.0, 1.0, k_node=above), fields(1.0, 1.0, k_node=-above),
                     fields(1.0, 1.0, a_node=np.nan),
                     fields(0.8 * DIVERGENCE_LIMIT, 1.0, k_node=np.nan),
                     fields(1.0, 1e200, a_node=np.inf)]:
            with pytest.raises(DivergenceError) as err:
                _check_finite(k, A, 2.5, NO_BOUNDARY)
            assert err.value.node == node and err.value.time == 2.5


def test_check_finite_passes_finite_fields_at_the_limits():
    k = np.full(30, DIVERGENCE_LIMIT)
    k[3] = -DIVERGENCE_LIMIT
    A = np.full(30, 1e308)  # finite values whose sum overflows
    A[7] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_finite(k, A, 0.0, NO_BOUNDARY)
