"""Explicit step bound: heat-equation values, taxis terms, the f' fallback,
and the least bound over every star."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshless_growth import (
    ModelParams,
    NoAdmissibleTimeStepError,
    State,
    build_all_stencils,
    dt_bound,
    generate_jittered,
    generate_regular,
    get_preset,
    production_derivative,
    run,
)
from oracles import center_coeffs, neighbor_coeffs


def heat_params(delta=0.0):
    return ModelParams(alpha1=0.0, delta=delta, chi=0.0)


def uniform_state(n):
    return State(k=np.ones(n), A=np.ones(n), time=0.0)


def star_terms(report, node):
    """(phi1, phi2, margin) of one interior star in a report."""
    i = int(np.flatnonzero(report.nodes == node)[0])
    return float(report.phi1[i]), float(report.phi2[i]), float(report.margin[i])


def test_heat_reduction_phi_values():
    # regular 1D, chi 0, f 0: m00 = 2/h^2, Phi1 = delta, Phi2 = 2/h^2
    cloud = generate_regular(11, 1.0, dim=1)  # h = 0.1
    table = build_all_stencils(cloud, 2)
    report = dt_bound(table, uniform_state(11), heat_params(delta=0.25))
    phi1, phi2, margin = star_terms(report, 5)
    assert phi1 == pytest.approx(0.25, abs=1e-12)
    assert phi2 == pytest.approx(200.0, rel=1e-12)
    assert margin > 0 and margin == pytest.approx(0.25, abs=1e-9)


def test_heat_bound_equals_half_h_squared():
    cloud = generate_regular(11, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    report = dt_bound(table, uniform_state(11), heat_params())
    assert report.global_dt == pytest.approx(0.1**2 / 2, rel=1e-12)
    # delta = 0 sits exactly on the sign boundary: all interior stars listed
    assert report.violations.size == 9
    with_delta = dt_bound(table, uniform_state(11), heat_params(delta=0.1))
    assert with_delta.violations.size == 0
    assert with_delta.global_dt == pytest.approx(2.0 / (400.0 + 0.1), rel=1e-12)


def test_heat_bound_2d_quarter_h_squared():
    # five-point star on a regular lattice: m00 = Phi2 = 4/h^2
    cloud = generate_regular(11, 1.0, dim=2)
    table = build_all_stencils(cloud, 8)
    report = dt_bound(table, uniform_state(121), heat_params())
    # the eight-ring stencil is not the five-point row; freeze the observed
    # family member instead of the classical 4/h^2
    m00 = -table.lap[-1, 60]
    assert report.global_dt == pytest.approx(2.0 / (2 * m00), rel=1e-12)


def test_interior_only():
    cloud = generate_regular(11, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    report = dt_bound(table, uniform_state(11), heat_params(delta=0.1))
    nodes = set(report.nodes.tolist())
    assert nodes == set(cloud.interior_indices.tolist())


@settings(max_examples=20, deadline=None)
@given(delta=st.floats(0.0, 2.0))
def test_margin_is_affine_in_delta(delta):
    cloud = generate_regular(9, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    state = uniform_state(9)
    base = star_terms(dt_bound(table, state, heat_params(0.0)), 4)[2]
    shifted = star_terms(dt_bound(table, state, heat_params(delta)), 4)[2]
    assert shifted == pytest.approx(base + delta, abs=1e-9)


def test_taxis_terms_enter_phi():
    cloud = generate_jittered(13, 1.0, dim=1, jitter=0.2, seed=3)
    table = build_all_stencils(cloud, 4)
    rng = np.random.default_rng(5)
    k = rng.uniform(0.5, 1.5, cloud.n_nodes)
    A = rng.uniform(0.8, 1.2, cloud.n_nodes)
    params = ModelParams(alpha1=1.0, p=2.0, q=3.0, delta=0.1, chi=0.7)
    node = int(cloud.interior_indices[4])
    phi1, phi2, _ = star_terms(dt_bound(table, State(k, A, 0.0), params), node)
    # independent reassembly of the published terms
    a0, ai = A[node], A[table.stars[:-1, node]]
    cc, nc = center_coeffs(table)[node], neighbor_coeffs(table)[node]
    m00, mi0 = cc[1], nc[:, 1]
    m01, mi1 = cc[0], nc[:, 0]
    lap_a = -m00 * a0 + mi0 @ ai
    fp = production_derivative(k[node], params)
    exp1 = params.delta - a0 * fp - params.chi * lap_a \
        + params.chi * m01**2 * a0 + params.chi * m01 * (mi1 @ ai)
    exp2 = np.abs(mi0).sum() + abs(params.chi * m01 * a0) * np.abs(mi1).sum() \
        + abs(params.chi) * np.abs(mi1).sum() * abs(mi1 @ ai)
    assert phi1 == pytest.approx(exp1, rel=1e-12)
    assert phi2 == pytest.approx(exp2, rel=1e-12)


def test_chi_zero_matches_heat_terms_in_2d():
    cloud = generate_regular(7, 1.0, dim=2)
    table = build_all_stencils(cloud, 8)
    state = uniform_state(49)
    node = int(cloud.interior_indices[0])
    phi1, phi2, _ = star_terms(dt_bound(table, state, heat_params(delta=0.3)), node)
    assert phi1 == pytest.approx(0.3, abs=1e-10)
    lap_neighbors = table.lap[:-1, node]
    assert phi2 == pytest.approx(np.abs(lap_neighbors).sum(), rel=1e-12)


def test_singular_f_prime_falls_back_to_sup(caplog):
    cloud = generate_regular(7, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    k = np.zeros(7)
    k[3] = 0.0
    state = State(k=k, A=np.ones(7), time=0.0)
    # alpha1 small enough that the sup of f' still leaves a positive bound
    params = ModelParams(alpha1=1e-3, p=0.5, q=2.0, delta=0.1)
    with caplog.at_level(logging.WARNING, logger="meshless_growth.stability"):
        report = dt_bound(table, state, params)
    assert np.all(np.isfinite(report.phi1))
    # every star is singular here; the fallback is logged once per call
    assert len([rec for rec in caplog.records if "singular" in rec.message]) == 1


def test_the_bound_is_the_least_over_every_star():
    # growth-1d-chi1 at t = 20: the tightest star, node 1, fails the sign
    # condition (margin -344), and its 1.581e-3 is the bound, not the
    # 2.054e-3 of the tightest star that passes it.
    scenario = get_preset("growth-1d-chi1")
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    traj = run(cloud, table, scenario.model, scenario.initial_state(cloud), scenario.scheme)
    report = dt_bound(table, traj.final, scenario.model)
    assert traj.diverged is None and report.global_dt == np.nanmin(report.dt_max)
    tightest = report.nodes[np.nanargmin(report.dt_max)]
    assert tightest == 1 and tightest in report.violations
    assert report.global_dt < report.dt_max[report.margin > 0].min()
    assert report.global_dt == pytest.approx(1.581e-3, rel=1e-3)


def test_no_admissible_step_raises():
    # a production slope dwarfing m00 + Phi2 drives every denominator negative
    cloud = generate_regular(5, 1.0, dim=1)  # h = 0.25, m00 = Phi2 = 32
    table = build_all_stencils(cloud, 2)
    state = State(k=np.ones(5), A=np.ones(5), time=0.0)
    params = ModelParams(alpha1=1e6, p=2.0, q=3.0, delta=0.0)  # f'(1) = 2.5e5
    with pytest.raises(NoAdmissibleTimeStepError):
        dt_bound(table, state, params)


def test_running_at_half_bound_is_stable_and_tenfold_diverges():
    from meshless_growth import SchemeConfig

    cloud = generate_regular(21, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    rng = np.random.default_rng(17)
    init = State(k=1 + 0.3 * rng.random(21), A=np.ones(21), time=0.0)
    params = heat_params(delta=0.0)
    bound = dt_bound(table, init, params).global_dt
    ok = run(cloud, table, params, init,
             SchemeConfig(dt=0.5 * bound, t_final=0.2))
    assert ok.diverged is None and ok.final.k.max() < 2.0
    bad = run(cloud, table, params, init,
              SchemeConfig(dt=10 * bound, t_final=10.0))
    assert bad.diverged is not None and bad.diverged.step <= 500


def test_tech_diffusion_bound_keeps_adapt_run_stable():
    # growth-2d-delta005 with D = 3: the technology bound 2/(D(m00 + sum|m_i0|) - g)
    # is about a third of the capital one; an adapt run that ignored it
    # diverged at t ~ 1.257
    from dataclasses import replace

    from meshless_growth import NeumannOperator, SchemeConfig

    scenario = get_preset("growth-2d-delta005")
    params = replace(scenario.model, tech_diffusion=3.0)
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    initial = scenario.initial_state(cloud)
    op = NeumannOperator(cloud, table)
    projected = State(k=op.project(initial.k.copy()), A=op.project(initial.A.copy()),
                      time=initial.time)
    report = dt_bound(table, projected, params)
    assert report.global_dt == pytest.approx(6.844e-4, rel=1e-3)
    assert report.global_dt < np.nanmin(report.dt_max)  # the technology bound is the minimum
    assert np.nanmin(report.dt_max) == pytest.approx(2.053e-3, rel=1e-3)
    traj = run(cloud, table, params, initial,
               SchemeConfig(dt=scenario.scheme.dt, t_final=3.0, stability_mode="adapt",
                            stability_interval=scenario.scheme.stability_interval))
    assert traj.stability_events[0].step == 0  # adapt shrinks the preset's dt at once
    assert traj.diverged is None
    assert traj.final.time == pytest.approx(3.0)
    assert np.all(np.isfinite(traj.final.A))
