"""Verification harness: the RK4 oracle's self-checks and convergence machinery."""

import numpy as np
import pytest

from meshless_growth import (
    DivergenceError,
    ModelParams,
    NodeCloud,
    StencilTable,
    convergence_study,
    fd_equivalence,
    generate_jittered,
    generate_regular,
    manufactured_solution,
    polynomial_exactness,
    regular_refinement,
    temporal_convergence_study,
)
from oracles import ode_oracle


def test_ode_oracle_linear_case_exact():
    # alpha1 = 0: k' = -delta k, A' = g A have closed forms
    params = ModelParams(alpha1=0.0, delta=0.3)
    k, a = ode_oracle(params, 2.0, 1.5, 0.1, 4.0, 1e-3)
    assert k == pytest.approx(2.0 * np.exp(-1.2), rel=1e-10)
    assert a == pytest.approx(1.5 * np.exp(0.4), rel=1e-10)


def test_ode_oracle_fourth_order():
    params = ModelParams(alpha1=1.0, alpha2=1.0, p=2.0, q=3.0, delta=0.1)
    fine, _ = ode_oracle(params, 1.0, 1.0, 0.05, 5.0, 1e-4)
    e1 = abs(ode_oracle(params, 1.0, 1.0, 0.05, 5.0, 0.2)[0] - fine)
    e2 = abs(ode_oracle(params, 1.0, 1.0, 0.05, 5.0, 0.1)[0] - fine)
    assert e1 / e2 == pytest.approx(16.0, rel=0.35)


def test_ode_oracle_validation_and_divergence():
    with pytest.raises(ValueError):
        ode_oracle(ModelParams(), 1.0, 1.0, 0.0, 1.0, 0.0)
    wild = ModelParams(alpha1=1e30, alpha2=0.0, p=3.0, q=1.0, delta=0.0)
    with pytest.raises(DivergenceError):
        ode_oracle(wild, 10.0, 10.0, 0.0, 10.0, 1.0)


def test_zero_horizon_oracle_returns_initial():
    k, a = ode_oracle(ModelParams(), 1.3, 0.7, 0.2, 0.0, 1e-3)
    assert (k, a) == (1.3, 0.7)


@pytest.mark.parametrize("dim,n,s", [(1, 40, 2), (2, 12, 8)])
def test_polynomial_exactness_jittered(dim, n, s, monkeypatch):
    cloud = generate_jittered(n, 1.0, dim=dim, jitter=0.3, seed=1)
    calls = []
    derivatives = StencilTable.derivatives

    def spy(table, field, *args):
        calls.append(args)
        return derivatives(table, field, *args)

    monkeypatch.setattr(StencilTable, "derivatives", spy)
    result = polynomial_exactness(cloud, s)
    assert result.max_error < 1e-9
    # one call for all components per monomial: 1, x, x^2 or 1, x, y, x^2, y^2, xy
    assert calls == [()] * (3 if dim == 1 else 6)


def test_fd_equivalence_rejects_nonuniform():
    cloud = generate_jittered(11, 1.0, dim=1, jitter=0.2, seed=0)
    with pytest.raises(ValueError, match="uniform"):
        fd_equivalence(cloud)


@pytest.mark.parametrize("dim, center", [(1, r"\[0\.5\]"), (2, r"\[0\.5 0\.5\]")],
                         ids=["1d", "2d"])
def test_fd_equivalence_needs_a_node_at_the_center(dim, center):
    # An even number of nodes per axis puts no node at the center.
    with pytest.raises(ValueError, match=f"^no grid node at {center}$"):
        fd_equivalence(generate_regular(4, 1.0, dim=dim))


def test_manufactured_solution_satisfies_neumann():
    # cos(pi x / L) has zero slope at 0 and L by construction
    cloud = generate_regular(41, 2.0, dim=1)
    u = manufactured_solution(cloud.positions, 0.3, 2.0)
    x = cloud.positions[:, 0]
    assert np.allclose(u, np.exp(-0.3) * np.cos(np.pi * x / 2.0))
    h = x[1] - x[0]
    one_sided = (u[1] - u[0]) / h
    assert abs(one_sided) < 0.1  # slope vanishes at the face


def test_spatial_study_raises_on_a_diverged_level():
    # the finest level moves its middle node to 1e-2 h beside its neighbor:
    # the closed Laplacian's spectral radius grows from 6.2e3 to 4.7e4,
    # above the 1.2e4 that the study's dt = 0.2 h^2 allows, while the
    # median spacing, the study's h, does not move
    clouds = [generate_jittered(n, 1.0, dim=2, jitter=0.1, seed=2) for n in (9, 17, 33)]
    pos = clouds[-1].positions.copy()
    pos[544] = pos[545] - [1e-2 / 32, 0.0]
    clouds[-1] = NodeCloud(pos, 1.0)
    with pytest.raises(DivergenceError) as info:
        convergence_study(clouds)
    assert info.value.node == 544 and info.value.step is not None


def test_spatial_study_converges_on_rough_1d_clouds():
    # Jitter 0.45 leaves both nearest nodes of some interior node on one
    # side on most of these clouds.  With a node on each side, the second
    # order scheme must read a median fitted order of at least 1.5 and
    # finest errors below 1e-3 (of a solution bounded by 1).
    orders, finest = [], []
    for seed in range(6):
        result = convergence_study([generate_jittered(n, 1.0, dim=1, jitter=0.45, seed=seed)
                                    for n in (13, 25, 49)])
        orders.append(result.observed_order)
        finest.append(result.levels[-1][1])
    assert np.median(orders) >= 1.5, orders
    assert max(finest) < 1e-3, finest


def test_a_study_of_one_level_fits_no_order():
    result = convergence_study([generate_regular(9, 1.0, dim=1)])
    assert len(result.levels) == 1 and result.levels[0][0] == 0.125
    assert 0 < result.levels[0][1] < 1e-2 and result.observed_order is None


def test_temporal_study_raises_on_a_diverged_level():
    # dt = 1e-2 is eight times the h^2/2 bound of h = 0.05
    with pytest.raises(DivergenceError):
        temporal_convergence_study(generate_regular(21, 1.0, dim=1), dts=(1e-2, 1e-3))


def test_regular_refinement_halves_spacing():
    clouds = regular_refinement(5, 3, 1.0, dim=1)
    hs = [c.spacing_estimate() for c in clouds]
    assert hs == [0.25, 0.125, 0.0625]
    grid2d = regular_refinement(4, 2, 1.0, dim=2)
    assert [c.n_nodes for c in grid2d] == [16, 49]
