"""Stencil solves checked against frozen values and an independent fit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshless_growth import (
    PRESET_NAMES,
    DegenerateStarError,
    March,
    StencilTable,
    build_all_stencils,
    compute_stencil,
    generate_jittered,
    generate_regular,
    get_preset,
    select_star,
)
from oracles import apply_stencil, assemble_moment_matrix, center_coeffs, neighbor_coeffs


def solve_one(offsets):
    """The (nd, s+1) slots of a single star with offsets (s, dim): the
    neighbors' coefficients, then -m_0."""
    return compute_stencil(np.asarray(offsets, dtype=float)[None])[..., 0]


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
    slots = solve_one([[-h], [h]])
    assert np.allclose(slots[0, :2], [-1 / (2 * h), 1 / (2 * h)],
                       rtol=0, atol=1e-12)
    assert np.allclose(slots[1, :2], [1 / h**2, 1 / h**2],
                       rtol=0, atol=1e-9)
    assert abs(slots[0, 2]) < 1e-12
    assert np.isclose(slots[1, 2], -2 / h**2)


def test_consistency_center_equals_neighbor_sum():
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.3, seed=2)
    table = build_all_stencils(cloud, 8, "quadrant")
    m0 = center_coeffs(table)
    resid = np.abs(m0 - neighbor_coeffs(table).sum(axis=1)).max(axis=1)
    assert np.all(resid <= 1e-10 * np.linalg.norm(m0, axis=1))


def test_derivatives_match_unscaled_lstsq_fit():
    rng = np.random.default_rng(12)
    cloud = generate_jittered(7, 1.0, dim=2, jitter=0.3, seed=4)
    field = rng.normal(size=cloud.n_nodes)
    table = build_all_stencils(cloud, 8, "quadrant")
    packed = table.derivatives(field)
    for node in rng.choice(cloud.n_nodes, size=10, replace=False):
        nbrs = table.stars[:-1, node]
        ref = lstsq_derivatives(cloud.positions[nbrs] - cloud.positions[node],
                                field[node], field[nbrs])
        assert np.allclose(packed[node], ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


def test_scaling_invariance_of_coefficients():
    # a star scaled by factor c has coefficients scaled by 1/c^order
    base = np.array([[0.11, 0.02], [-0.09, 0.01], [0.03, 0.12],
                     [-0.01, -0.1], [0.08, 0.09], [-0.12, 0.11],
                     [-0.1, -0.08], [0.09, -0.11]])
    factor = 37.0
    a = solve_one(base)
    b = solve_one(base * factor)
    orders = np.array([1.0, 1.0, 2.0, 2.0, 2.0])
    rescaled = b * factor ** orders[:, None]
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
        StencilTable(cloud, table.stars[:, 1:], table.coeffs[..., 1:])


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
    star = select_star(cloud, 8, "quadrant")[node]
    slots = solve_one(cloud.positions[star] - cloud.positions[node])
    got = slots @ u[np.append(star, node)]
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
        one = apply_stencil(center_coeffs(table)[i], neighbor_coeffs(table)[i],
                            field[i], field[table.stars[:-1, i]])
        assert np.allclose(packed[i], one, rtol=0, atol=1e-13 * max(1, np.abs(one).max()))


def _preset_table(name):
    scenario = get_preset(name)
    return scenario.star.build_table(scenario.cloud.build())


# (table, the slices of coeffs contracted as blocks): the Laplacian parts,
# alone and after the gradient.
PART_CASES = {
    "growth-1d-chi1": (lambda: _preset_table("growth-1d-chi1"), (slice(1, 2), slice(0, 2))),
    "growth-2d-delta005": (lambda: _preset_table("growth-2d-delta005"),
                           (slice(2, 4), slice(0, 4))),
    "jittered-48x48": (lambda: build_all_stencils(
        generate_jittered(48, 1.0, dim=2, jitter=0.1, seed=11), 8, "quadrant"),
        (slice(2, 4), slice(0, 4))),
}


@pytest.mark.parametrize("case", PART_CASES)
def test_derivative_parts_have_the_bits_of_the_full_columns(case):
    make_table, slices = PART_CASES[case]
    table = make_table()
    field = np.random.default_rng(5).uniform(0.5, 2.0, table.cloud.n_nodes)
    full = table.derivatives(field)
    dim = table.cloud.dim
    full_lap = full[:, dim] if dim == 1 else full[:, dim] + full[:, dim + 1]
    for parts in slices:
        got = table.derivatives(field, table.coeffs[parts])
        assert got.shape == (table.cloud.n_nodes, parts.stop - parts.start)
        assert got.T.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(full[:, parts]).tobytes()
        lap = got[:, -1] if dim == 1 else got[:, -2] + got[:, -1]
        assert lap.tobytes() == full_lap.tobytes()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_derivatives_have_the_bits_of_unoptimized_einsum(name):
    # coeffs, and the march's row blocks without and with taxis.
    scenario = get_preset(name)
    table = scenario.star.build_table(scenario.cloud.build())
    field = np.random.default_rng(13).uniform(0.5, 2.0, table.cloud.n_nodes)
    blocks = [March(table, replace(scenario.model, chi=chi)).rows for chi in (0.0, 1.0)]
    for rows in (table.coeffs, *blocks):
        got = table.derivatives(field, rows)
        want = np.einsum("dsn,sn->dn", rows, field[table.stars]).T
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_table_rejects_mixed_star_sizes():
    cloud = generate_regular(5, 1.0, dim=1)
    t2 = build_all_stencils(cloud, 2)
    t3 = build_all_stencils(cloud, 3)
    with pytest.raises(ValueError):
        StencilTable(cloud, t2.stars, t3.coeffs)


def test_table_rejects_stars_whose_last_slot_is_not_their_node():
    cloud = generate_regular(5, 1.0, dim=1)
    table = build_all_stencils(cloud, 2)
    with pytest.raises(ValueError, match="last slot"):
        StencilTable(cloud, table.stars[[0, 2, 1]], table.coeffs)


def test_table_is_stored_component_major():
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.25, seed=4)
    table = build_all_stencils(cloud, 8, "quadrant")
    s, n = table.coeffs.shape[1] - 1, cloud.n_nodes
    # each star is packed with its node as the last slot
    stars, coeffs = table.stars, table.coeffs
    assert stars.flags.c_contiguous and stars.shape == (s + 1, n)
    assert coeffs.flags.c_contiguous and coeffs.shape == (5, s + 1, n)
    assert np.array_equal(stars[s], np.arange(n))
    # neighbor_coeffs is a node-major view of the first s slots
    assert np.shares_memory(table.neighbor_coeffs, coeffs)
    assert np.array_equal(table.neighbor_coeffs, coeffs[:, :s].T)
    # the table keeps the arrays it was given
    given_stars, given_coeffs = stars.copy(), coeffs.copy()
    kept = StencilTable(cloud, given_stars, given_coeffs)
    assert kept.stars is given_stars and kept.coeffs is given_coeffs
    assert np.shares_memory(kept.neighbor_coeffs, given_coeffs)


def test_in_place_coefficient_edit_reaches_derivatives():
    rng = np.random.default_rng(12)
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.25, seed=4)
    table = build_all_stencils(cloud, 8, "quadrant")
    field = rng.uniform(1.0, 2.0, cloud.n_nodes)
    before, lap_before = table.derivatives(field).copy(), table.lap
    table.neighbor_coeffs[17, 3, 2] += 0.5
    after = table.derivatives(field)
    lap_changed = table.lap != lap_before  # xx is a Laplacian part
    assert lap_changed[3, 17] and lap_changed.sum() == 1
    expect = before.copy()
    expect[17, 2] += 0.5 * field[table.stars[3, 17]]
    assert np.allclose(after, expect, rtol=1e-14, atol=0)
    changed = after != before
    assert changed[17, 2] and changed.sum() == 1


def test_table_holds_only_its_cloud_and_two_arrays():
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.25, seed=4)
    table = build_all_stencils(cloud, 8, "quadrant")
    assert set(vars(table)) == {"cloud", "stars", "coeffs"}


def test_in_place_center_slot_edit_reaches_center_coeffs():
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.25, seed=4)
    table = build_all_stencils(cloud, 8, "quadrant")
    field = np.random.default_rng(2).uniform(1.0, 2.0, cloud.n_nodes)
    table.coeffs[2, -1, 5] += 1.0
    # an oracle built from the two views follows derivatives
    one = apply_stencil(center_coeffs(table)[5], neighbor_coeffs(table)[5],
                        field[5], field[table.stars[:-1, 5]])
    assert np.allclose(one, table.derivatives(field)[5], rtol=1e-13, atol=0)


@pytest.mark.parametrize("bad", [-1, 64])
def test_table_rejects_star_indices_outside_the_cloud(bad):
    cloud = generate_jittered(8, 1.0, dim=2, jitter=0.25, seed=4)
    table = build_all_stencils(cloud, 8, "quadrant")
    stars = table.stars.copy()
    stars[0, 5] = bad
    with pytest.raises(ValueError, match=r"star indices must lie in \[0, 64\)"):
        StencilTable(cloud, stars, table.coeffs)


@pytest.mark.parametrize("case", [*PRESET_NAMES, "jittered-48x48"])
def test_lap_is_the_sum_of_the_laplacian_slots(case):
    table = _preset_table(case) if case in PRESET_NAMES else PART_CASES[case][0]()
    coeffs = table.coeffs
    expect = coeffs[1] if table.cloud.dim == 1 else coeffs[2] + coeffs[3]
    lap = table.lap
    assert lap.shape == table.stars.shape and lap.flags.c_contiguous
    assert lap.tobytes() == expect.tobytes()

