"""Stencil solves checked against frozen values and an independent fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshless_growth import (
    DegenerateStarError,
    StencilTable,
    build_all_stencils,
    compute_stencil,
    generate_jittered,
    generate_regular,
    select_star,
)
from oracles import apply_stencil, assemble_moment_matrix


def solve_one(offsets):
    """Center and neighbor coefficients of a single star with offsets (s, dim)."""
    center, neighbors = compute_stencil(np.asarray(offsets, dtype=float)[None])
    return center[0], neighbors[0]


def lstsq_derivatives(off, u0, ui):
    """Independent reference: unscaled weighted least squares via lstsq.

    Uses raw offsets and raw distances; the production solve scales both by
    the star radius, so agreement also exercises the scaling invariance.
    """
    dim = off.shape[1]
    d = np.sqrt((off ** 2).sum(axis=1))
    w = d ** -3.0
    if dim == 1:
        c = np.column_stack([off[:, 0], 0.5 * off[:, 0] ** 2])
    else:
        h, k = off[:, 0], off[:, 1]
        c = np.column_stack([h, k, 0.5 * h ** 2, 0.5 * k ** 2, h * k])
    sol, *_ = np.linalg.lstsq(w[:, None] * c, w * (np.asarray(ui) - u0), rcond=None)
    return sol


def test_moment_matrix_symmetric_pair():
    # offsets +-h scale to +-1; the weights d^-3 are 1 there, so
    # M = sum c c^T with c = (+-1, 0.5) exactly
    m = assemble_moment_matrix(np.array([[-0.1], [0.1]]))
    assert np.array_equal(m, np.array([[2.0, 0.0], [0.0, 0.5]]))


def test_symmetric_star_reproduces_central_differences():
    h = 0.1
    center, coeffs = solve_one([[-h], [h]])
    assert np.allclose(coeffs[:, 0], [-1 / (2 * h), 1 / (2 * h)],
                       rtol=0, atol=1e-12)
    assert np.allclose(coeffs[:, 1], [1 / h**2, 1 / h**2],
                       rtol=0, atol=1e-9)
    assert abs(center[0]) < 1e-12
    assert np.isclose(center[1], 2 / h**2)


def test_consistency_center_equals_neighbor_sum():
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.3, seed=2)
    table = build_all_stencils(cloud, 8, "quadrant")
    resid = np.abs(table.center_coeffs - table.neighbor_coeffs.sum(axis=1)).max(axis=1)
    assert np.all(resid <= 1e-10 * np.linalg.norm(table.center_coeffs, axis=1))


def test_derivatives_match_unscaled_lstsq_fit():
    rng = np.random.default_rng(12)
    cloud = generate_jittered(7, 1.0, dim=2, jitter=0.3, seed=4)
    field = rng.normal(size=cloud.n_nodes)
    table = build_all_stencils(cloud, 8, "quadrant")
    packed = table.derivatives(field)
    for node in rng.choice(cloud.n_nodes, size=10, replace=False):
        nbrs = table.neighbors[node]
        ref = lstsq_derivatives(cloud.positions[nbrs] - cloud.positions[node],
                                field[node], field[nbrs])
        assert np.allclose(packed[node], ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


def test_scaling_invariance_of_coefficients():
    # a star scaled by factor c has coefficients scaled by 1/c^order
    base = np.array([[0.11, 0.02], [-0.09, 0.01], [0.03, 0.12],
                     [-0.01, -0.1], [0.08, 0.09], [-0.12, 0.11],
                     [-0.1, -0.08], [0.09, -0.11]])
    factor = 37.0
    _, a = solve_one(base)
    _, b = solve_one(base * factor)
    orders = np.array([1.0, 1.0, 2.0, 2.0, 2.0])
    rescaled = b * factor ** orders
    assert np.allclose(rescaled, a, rtol=1e-10)


def test_collinear_star_is_degenerate():
    collinear = [[0.1, 0.0], [0.2, 0.0], [-0.1, 0.0], [-0.2, 0.0], [0.3, 0.0]]
    with pytest.raises(DegenerateStarError):
        solve_one(collinear)


def test_apply_stencil_arity():
    # a table needs exactly one star per node
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    with pytest.raises(ValueError):
        StencilTable(cloud, table.neighbors[1:], table.center_coeffs[1:],
                     table.neighbor_coeffs[1:])


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=6, max_size=6),
    seed=st.integers(0, 1000),
)
def test_quadratics_are_differentiated_exactly(coeffs, seed):
    a, b, c, d, e, f = coeffs
    cloud = generate_jittered(6, 1.0, dim=2, jitter=0.25, seed=seed)
    x, y = cloud.positions[:, 0], cloud.positions[:, 1]
    u = a + b * x + c * y + d * x**2 + e * y**2 + f * x * y
    node = int(cloud.interior_indices[0])
    star = select_star(cloud, [node], 8, "quadrant")[0]
    center, coeffs = solve_one(cloud.positions[star] - cloud.positions[node])
    got = apply_stencil(center, coeffs, u[node], u[star])
    expect = np.array([b + 2 * d * x[node] + f * y[node],
                       c + 2 * e * y[node] + f * x[node],
                       2 * d, 2 * e, f])
    assert np.allclose(got, expect, rtol=0, atol=1e-7 * (1 + np.abs(expect).max()))


def test_table_matches_per_star_application():
    rng = np.random.default_rng(3)
    cloud = generate_jittered(9, 1.0, dim=1, jitter=0.3, seed=8)
    table = build_all_stencils(cloud, 4, "distance")
    field = rng.normal(size=cloud.n_nodes)
    packed = table.derivatives(field)
    for i in range(cloud.n_nodes):
        one = apply_stencil(table.center_coeffs[i], table.neighbor_coeffs[i],
                            field[i], field[table.neighbors[i]])
        assert np.allclose(packed[i], one, rtol=0, atol=1e-13 * max(1, np.abs(one).max()))
    lap = table.laplacian(field)
    assert np.allclose(lap, packed[:, 1], rtol=0, atol=0)


def test_table_rejects_mixed_star_sizes():
    cloud = generate_regular(5, 1.0, dim=1)
    t2 = build_all_stencils(cloud, 2)
    t3 = build_all_stencils(cloud, 3)
    with pytest.raises(ValueError):
        StencilTable(cloud, t2.neighbors, t3.center_coeffs, t3.neighbor_coeffs)


def test_table_is_stored_component_major():
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.25, seed=4)
    table = build_all_stencils(cloud, 8, "quadrant")
    for arr in (table.neighbors, table.center_coeffs, table.neighbor_coeffs):
        assert arr.T.flags.c_contiguous
    # the table holds its own buffers, not the arrays it was given
    neighbors, cc, nc = (a.copy() for a in (table.neighbors, table.center_coeffs,
                                            table.neighbor_coeffs))
    own = StencilTable(cloud, neighbors, cc, nc)
    nc[5, 2, 0] += 1.0
    assert own.neighbor_coeffs[5, 2, 0] == table.neighbor_coeffs[5, 2, 0]


def test_in_place_coefficient_edit_reaches_derivatives():
    rng = np.random.default_rng(12)
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.25, seed=4)
    table = build_all_stencils(cloud, 8, "quadrant")
    field = rng.uniform(1.0, 2.0, cloud.n_nodes)
    before = table.derivatives(field).copy()
    table.neighbor_coeffs[17, 3, 2] += 0.5
    after = table.derivatives(field)
    expect = before.copy()
    expect[17, 2] += 0.5 * field[table.neighbors[17, 3]]
    assert np.allclose(after, expect, rtol=1e-14, atol=0)
    changed = after != before
    assert changed[17, 2] and changed.sum() == 1
