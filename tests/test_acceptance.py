"""Acceptance gate: eight end-to-end checks at pinned tolerances.

Each test prints one pass/FAIL line (run pytest -s to see them all) and
asserts the same condition, so the suite doubles as a report.
"""

import numpy as np
import pytest

from meshless_growth import (
    ModelParams,
    SchemeConfig,
    State,
    build_all_stencils,
    dt_bound,
    fd_equivalence,
    generate_jittered,
    generate_regular,
    get_preset,
    polynomial_exactness,
    regular_refinement,
    convergence_study,
    temporal_convergence_study,
    run,
)
from meshless_growth.model import GrowthSpec
from oracles import ode_oracle


def report(idx, label, ok, detail):
    print(f"acceptance {idx} ({label}): {'pass' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {idx} ({label}): {detail}"


@pytest.fixture(scope="module")
def preset_runs():
    """The three preset trajectories reused by criteria 7 and 8."""
    out = {}
    for name in ("growth-1d-delta002", "growth-1d-chi1", "growth-2d-delta03"):
        sc = get_preset(name)
        cloud = sc.cloud.build()
        table = sc.star.build_table(cloud)
        traj = run(cloud, table, sc.model, sc.initial_state(cloud), sc.scheme)
        assert traj.diverged is None, f"{name} unexpectedly diverged"
        out[name] = (sc, cloud, table, traj)
    return out


def test_acceptance_1_quadratic_exactness():
    tol = 1e-9
    e1 = polynomial_exactness(generate_jittered(100, 1.0, dim=1, jitter=0.3, seed=1),
                              2, "distance").max_error
    e2 = polynomial_exactness(generate_jittered(20, 1.0, dim=2, jitter=0.25, seed=2),
                              8, "quadrant").max_error
    worst = max(e1, e2)
    report(1, "quadratic exactness", worst <= tol,
           f"1D N=100: {e1:.3e}, 2D N=400 s=8: {e2:.3e} (tol {tol:.0e})")


def test_acceptance_2_classical_fd_recovery():
    tol = 1e-12
    e1 = fd_equivalence(generate_regular(11, 1.0, dim=1))
    e2 = fd_equivalence(generate_regular(11, 1.0, dim=2))
    report(2, "classical FD recovery", max(e1, e2) <= tol,
           f"1D central: {e1:.3e}, 2D five-point: {e2:.3e} (tol {tol:.0e})")


def test_acceptance_3_consistency_condition():
    # a stencil applied to the constant field 1 evaluates m0 - sum(mi)
    # through the production path, independent of how m0 was assembled
    worst = 0.0
    for cloud, s, crit in [
        (generate_regular(21, 1.0, dim=1), 2, "distance"),
        (generate_jittered(40, 1.0, dim=1, jitter=0.3, seed=3), 4, "distance"),
        (generate_regular(9, 1.0, dim=2), 8, "quadrant"),
        (generate_jittered(14, 2.0, dim=2, jitter=0.25, seed=4), 8, "quadrant"),
        (generate_jittered(12, 1.0, dim=2, jitter=0.2, seed=5), 9, "distance"),
    ]:
        table = build_all_stencils(cloud, s, crit)
        resid = np.abs(table.derivatives(np.ones(cloud.n_nodes)))
        scale = np.linalg.norm(table.center_coeffs, axis=1)
        worst = max(worst, float((resid.max(axis=1) / scale).max()))
    report(3, "consistency condition", worst <= 1e-10,
           f"max |m0 - sum(mi)| / ||m0|| = {worst:.3e} over five clouds (tol 1e-10)")


def test_acceptance_4_ode_reduction():
    tol = 1e-3
    worst = 0.0
    details = []
    for dim, n, s, crit in [(1, 11, 2, "distance"), (2, 6, 8, "quadrant")]:
        cloud = generate_regular(n, 1.0, dim=dim)
        table = build_all_stencils(cloud, s, crit)
        params = ModelParams(alpha1=1.0, alpha2=1.0, p=2.0, q=3.0, delta=0.05,
                             chi=0.0, tech_diffusion=0.0,
                             g_spec=GrowthSpec("constant", 0.1))
        init = State(k=np.full(cloud.n_nodes, 1.0),
                     A=np.full(cloud.n_nodes, 1.0), time=0.0)
        traj = run(cloud, table, params, init, SchemeConfig(dt=0.001, t_final=10.0))
        k_ref, a_ref = ode_oracle(params, 1.0, 1.0, 0.1, 10.0, 0.001)
        rel = max(float(np.abs(traj.final.k - k_ref).max() / abs(k_ref)),
                  float(np.abs(traj.final.A - a_ref).max() / abs(a_ref)))
        worst = max(worst, rel)
        details.append(f"{dim}D rel {rel:.2e}")
    report(4, "ODE reduction", worst <= tol,
           f"{', '.join(details)} vs RK4 oracle at T=10 (tol {tol:.0e})")


def test_acceptance_5_stability_bound():
    cloud = generate_regular(21, 1.0, dim=1)  # h = 0.05
    table = build_all_stencils(cloud, 2)
    params = ModelParams(alpha1=0.0, delta=0.0, chi=0.0)
    init = State(k=1.0 + 0.1 * np.cos(np.pi * np.arange(21)),  # odd-even mode
                 A=np.ones(21), time=0.0)
    bound = dt_bound(table, init, params).global_dt
    h2 = 0.05**2 / 2
    bound_ok = abs(bound - h2) <= 1e-10 * h2

    dt_low = 0.5 * bound
    calm = run(cloud, table, params, init,
               SchemeConfig(dt=dt_low, t_final=10.0))
    calm_ok = calm.diverged is None and calm.final.k.max() <= init.k.max() + 1e-9

    hot = run(cloud, table, params, init,
              SchemeConfig(dt=10 * bound, t_final=10 * bound * 500))
    hot_ok = hot.diverged is not None and hot.diverged.step <= 500

    report(5, "stability bound", bound_ok and calm_ok and hot_ok,
           f"global_dt={bound:.10e} vs h^2/2={h2:.10e}; "
           f"0.5x stayed bounded over {calm.log[-1].step} steps; "
           f"10x diverged at step {hot.diverged.step if hot.diverged else 'never'}")


def test_acceptance_6_convergence_orders():
    spatial = convergence_study(regular_refinement(9, 3, 1.0, dim=1))
    temporal = temporal_convergence_study(generate_regular(41, 1.0, dim=1),
                                          dts=(2e-4, 1e-4, 5e-5))
    sp_ok = 1.7 <= spatial.observed_order <= 2.3
    tm_ok = 0.8 <= temporal.observed_order <= 1.2
    report(6, "convergence orders", sp_ok and tm_ok,
           f"spatial {spatial.observed_order:.3f} in [1.7, 2.3], "
           f"temporal {temporal.observed_order:.3f} in [0.8, 1.2]")


def test_acceptance_7a_low_depreciation_grows_everywhere(preset_runs):
    sc, cloud, table, traj = preset_runs["growth-1d-delta002"]
    k0 = sc.initial_state(cloud).k
    growth = traj.final.k - k0
    report(7, "delta=0.02 grows everywhere", bool((growth > 0).all()),
           f"min k(t_final) - k0 = {growth.min():.4g} over {cloud.n_nodes} nodes")


def test_acceptance_7b_high_depreciation_decays_to_zero(preset_runs):
    sc, cloud, table, traj = preset_runs["growth-2d-delta03"]
    maxk = np.array([r.max_k for r in traj.log])
    t = np.array([r.time for r in traj.log])
    rises = np.where(np.diff(maxk) > 0)[0]
    transient_end = t[rises[-1] + 1] if rises.size else 0.0
    tail = maxk[rises[-1] + 1:] if rises.size else maxk
    mono = bool(np.all(np.diff(tail) <= 0))
    ok = transient_end <= 0.1 * sc.scheme.t_final and mono and maxk[-1] < 1e-3
    report(7, "2D delta=0.3 decays to zero", ok,
           f"transient ends at t={transient_end:.3f}, monotone after: {mono}, "
           f"final max k={maxk[-1]:.3e}")


def test_acceptance_7c_taxis_pulls_capital_to_technology(preset_runs):
    _, cloud_c, _, traj_c = preset_runs["growth-1d-chi1"]
    _, _, _, traj_0 = preset_runs["growth-1d-delta002"]
    x_peak = float(cloud_c.positions[np.argmax(traj_c.final.k), 0])
    peak_c = float(traj_c.final.k.max())
    peak_0 = float(traj_0.final.k.max())
    ok = 0.0 <= x_peak <= 0.3 and peak_c > peak_0
    report(7, "chi=1 shifts and raises the peak", ok,
           f"argmax at x={x_peak:.3f} (needs [0, 0.3]), "
           f"peak {peak_c:.4g} vs chi=0 peak {peak_0:.4g}")


def test_acceptance_8_boundary_contract(preset_runs):
    tol = 1e-8
    worst = 0.0
    n_checked = 0
    for name, (sc, cloud, table, traj) in preset_runs.items():
        b = cloud.boundary_indices
        normals = cloud.normals[b, : cloud.dim]
        for snap in traj.snapshots:
            for field in (snap.k, snap.A):
                d = table.derivatives(field)[b, : cloud.dim]
                worst = max(worst, float(np.abs((normals * d).sum(axis=1)).max()))
                n_checked += b.size
    report(8, "boundary contract", worst <= tol,
           f"max |normal derivative| = {worst:.3e} over {n_checked} "
           f"boundary evaluations (tol {tol:.0e})")
