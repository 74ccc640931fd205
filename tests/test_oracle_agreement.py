"""The array build, bound, writers and per-step kernels agree with the references.

Neighbor arrays must be equal and stencil coefficients equal bit for bit,
since the array code performs the same floating-point operations per star.
So must derivatives on the component-major table, and the CSV files must
equal byte for byte those the row-by-row writers produce; the
explicit boundary closure, which composes corner rows from edge rows
instead of inverting, agrees with the dense inverse to rounding.
"""

import math
import runpy
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from meshless_growth import (
    PRESET_NAMES,
    DegenerateStarError,
    FieldSpec,
    GrowthSpec,
    ModelParams,
    NeumannOperator,
    NodeCloud,
    State,
    build_all_stencils,
    compute_stencil,
    dt_bound,
    generate_jittered,
    generate_regular,
    get_preset,
    parse_scenario_text,
    polynomial_exactness,
    run,
    select_star,
    tech_rate_field,
)
from meshless_growth import cloud as cloud_module
from meshless_growth.output import (
    write_run_log,
    write_snapshots,
    write_stability_report,
    write_stencil_dump,
)
from meshless_growth.stencil import STAR_RULE

ROOT = Path(__file__).resolve().parents[1]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_matches_oracle(cloud, s):
    table = build_all_stencils(cloud, s)
    neighbors, center, coeffs = oracles.build_table_arrays(cloud, s)
    assert np.array_equal(table.stars[:-1].T, neighbors)
    assert same_bits(oracles.center_coeffs(table), center)
    assert same_bits(oracles.neighbor_coeffs(table), coeffs)


def _cases():
    yield "regular-1d-9", generate_regular(9, 1.0, dim=1), 2
    yield "regular-1d-30", generate_regular(30, 1.0, dim=1), 4
    for n, s in [(7, 8), (11, 8), (10, 12)]:
        yield f"regular-2d-{n}-s{s}", generate_regular(n, 1.0, dim=2), s
    # rough 1D clouds, where the two nearest nodes are often on one side
    for jitter in (0.3, 0.45):
        for seed in range(4):
            for n in (13, 25, 49):
                yield (f"jittered-1d-{n}-jitter{jitter}-seed{seed}",
                       generate_jittered(n, 1.0, dim=1, jitter=jitter, seed=seed), 2)
    for seed in range(3):
        yield (f"jittered-1d-25-jitter0.45-seed{seed}-s4",
               generate_jittered(25, 1.0, dim=1, jitter=0.45, seed=seed), 4)
    for seed in range(20):
        yield (f"jittered-12-seed{seed}-quadrant",
               generate_jittered(12, 1.0, dim=2, jitter=0.25, seed=seed), 8)
    for seed in range(5):
        yield (f"jittered-24-seed{seed}-quadrant",
               generate_jittered(24, 1.0, dim=2, jitter=0.25, seed=seed), 8)
    yield "jittered-48-seed11-quadrant", generate_jittered(48, 1.0, dim=2, jitter=0.25, seed=11), 8


CASES = list(_cases())


@pytest.mark.parametrize("name,cloud,s", CASES, ids=[c[0] for c in CASES])
def test_build_matches_loop_oracle(name, cloud, s):
    assert_matches_oracle(cloud, s)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_build_matches_loop_oracle(preset):
    scenario = get_preset(preset)
    cloud = scenario.cloud.build()
    assert_matches_oracle(cloud, scenario.star.s)


def test_corner_star_is_its_nearest_nodes_off_the_corners():
    # the corner takes its 8 nearest nodes, edge nodes included, ties broken
    # by index; the edge node at (0.5, 0) ranks interior nodes only, so two
    # quadrants hold none, the round robin takes two from each of the others
    # and the nearest remaining nodes fill the star
    cloud = generate_regular(5, 1.0, dim=2)
    stars = select_star(cloud, 8)
    assert stars[0].tolist() == [1, 5, 6, 2, 10, 7, 11, 12]
    assert stars[2].tolist() == [8, 7, 13, 6, 12, 11, 17, 16]
    for node in (0, 2):
        assert stars[node].tolist() == oracles.select_star(cloud, node, 8).tolist()


def uneven_cloud():
    """A dense patch beside a sparse lattice, with a hole in the patch: stars
    in the sparse part and on the rim of the hole reach past the cells
    searched first and are recomputed against all nodes."""
    patch = generate_jittered(20, 1.0, dim=2, jitter=0.25, seed=2)
    dense = 0.5 * patch.positions[patch.interior_indices]
    dense = dense[np.hypot(*(dense - 0.25).T) > 0.12]
    sparse = generate_jittered(6, 1.0, dim=2, jitter=0.3, seed=4).positions
    sparse = sparse[(sparse > 0.5).any(axis=1)]
    pos = np.vstack([dense, sparse])
    return NodeCloud(pos, 1.0)


def uneven_line():
    """A dense 1D run beside three sparse nodes: the stars of the sparse
    nodes, and of the last dense node, have a side whose nearest node lies
    past the cells searched first, and are recomputed against all nodes,
    though the searched cells hold two nodes on the other side."""
    dense = 0.5 * generate_jittered(41, 1.0, dim=1, jitter=0.3, seed=2).positions
    return NodeCloud(np.vstack([dense, [[0.75], [0.9], [1.0]]]), 1.0)


@pytest.mark.parametrize("make_cloud,s", [(uneven_cloud, 8), (uneven_line, 2)], ids=["2d", "1d"])
def test_rows_the_grid_cannot_prove_are_recomputed(monkeypatch, make_cloud, s):
    cloud = make_cloud()
    widths = []
    choose = cloud_module._choose

    def spy(cloud_, centers, cand, s, nearest):
        widths.append(cand.shape[1])
        return choose(cloud_, centers, cand, s, nearest)

    monkeypatch.setattr(cloud_module, "_choose", spy)
    assert_matches_oracle(cloud, s)
    assert cloud.n_nodes in widths


def test_select_star_matches_the_oracle_on_random_clouds(monkeypatch):
    # every row, whether the grid proves it or the all-nodes search redoes it,
    # equals the node-by-node ranking; at least one row is redone
    redone = []
    choose = cloud_module._choose

    def spy(cloud_, centers, cand, s, nearest):
        if cand.shape[1] == cloud_.n_nodes:
            redone.append(centers.size)
        return choose(cloud_, centers, cand, s, nearest)

    monkeypatch.setattr(cloud_module, "_choose", spy)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]), s=st.integers(1, 12), extra=st.integers(0, 10),
           jitter=st.floats(0.0, 0.45), seed=st.integers(0, 2**32 - 1))
    @example(dim=2, s=8, extra=7, jitter=0.1, seed=11)  # 12x12: 2 redone
    def check(dim, s, extra, jitter, seed):
        # at least s interior nodes
        n = s + 2 + 3 * extra if dim == 1 else math.isqrt(s) + 3 + extra
        cloud = generate_jittered(n, 1.0, dim=dim, jitter=jitter, seed=seed)
        stars = select_star(cloud, s)
        for node in range(cloud.n_nodes):
            assert stars[node].tolist() == oracles.select_star(cloud, node, s).tolist()

    check()
    assert redone


def test_faces_inside_the_tolerance_send_no_more_rows_to_the_all_nodes_search(monkeypatch):
    # The grid spans [0, L]^dim and reads a node's face from cloud.normals,
    # so face nodes 5e-13 inside the face are proven like those on it: the
    # same two edge rows beside a corner are redone, and every star equals
    # the node-by-node ranking.
    redone = []
    choose = cloud_module._choose

    def spy(cloud_, centers, cand, s, nearest):
        if cand.shape[1] == cloud_.n_nodes:
            redone.extend(centers.tolist())
        return choose(cloud_, centers, cand, s, nearest)

    monkeypatch.setattr(cloud_module, "_choose", spy)
    snapped = generate_jittered(12, 1.0, dim=2, jitter=0.1, seed=11)
    nudged = oracles.nudge_faces(snapped)
    assert np.array_equal(nudged.normals, snapped.normals)
    assert not np.array_equal(nudged.positions, snapped.positions)
    rows = {}
    for name, cloud in (("snapped", snapped), ("nudged", nudged)):
        redone.clear()
        stars = select_star(cloud, 8)
        rows[name] = sorted(redone)
        for node in range(cloud.n_nodes):
            assert stars[node].tolist() == oracles.select_star(cloud, node, 8).tolist()
    assert len(rows["snapped"]) == 2
    assert rows["nudged"] == rows["snapped"]


def test_spacing_estimate_equals_dense_nearest_neighbor_median():
    for cloud in (generate_jittered(24, 1.0, dim=2, jitter=0.3, seed=5), uneven_cloud(),
                  generate_jittered(40, 2.0, dim=1, jitter=0.3, seed=1)):
        diffs = cloud.positions[:, None, :] - cloud.positions[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert cloud.spacing_estimate() == float(np.median(dist.min(axis=1)))


def star_offsets(cloud, s):
    """(N, s, dim) offsets of every node's star, as build_all_stencils stacks them."""
    return cloud.positions[select_star(cloud, s)] - cloud.positions[:, None, :]


def assert_same_solve(offsets):
    """compute_stencil raises what the eigenvalue-first solve raises, with
    its type, node and message, or else returns its bits."""
    try:
        want = oracles.batched_stencil(offsets)
    except Exception as err:
        with pytest.raises(Exception) as got:
            compute_stencil(offsets)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        assert getattr(got.value, "node", None) == getattr(err, "node", None)
        return
    assert same_bits(compute_stencil(offsets), want)


@pytest.fixture
def eig_rows(monkeypatch):
    """The row count of every stack np.linalg.eigvalsh is called on."""
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        rows.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return rows


def test_degenerate_star_names_the_lowest_bad_node(eig_rows):
    rng = np.random.default_rng(1)
    offsets = rng.uniform(-1, 1, size=(10, 6, 2))

    def batch(scales):  # the y offsets of each row scaled by scales[row]
        out = offsets.copy()
        for row, scale in scales.items():
            out[row, :, 1] *= scale
        return out

    # y scaled by 1e-3: rcond 2.4e-15, yet the Cholesky factor exists, so the
    # eigenvalue test sees that row alone (by 1e-80 too, whose M^-1 overflows);
    # y scaled by 0: collinear, so the batched Cholesky fails and the test
    # sees every row
    batches = {"collinear at 3 and 7": (batch({3: 0.0, 7: 0.0}), [10]),
               "thin at 3": (batch({3: 1e-3}), [1]),
               "overflowing at 3": (batch({3: 1e-80}), [1]),
               "thin at 3, collinear at 7": (batch({3: 1e-3, 7: 0.0}), [10]),
               "collinear at 3, thin at 7": (batch({3: 0.0, 7: 1e-3}), [10])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (stack, rows) in batches.items():
            with pytest.raises(DegenerateStarError) as want:
                oracles.batched_stencil(stack)
            eig_rows.clear()
            with pytest.raises(DegenerateStarError) as err:
                compute_stencil(stack)
            assert err.value.node == want.value.node == 3, name
            assert str(err.value) == str(want.value), name
            assert eig_rows == rows, name
        # rcond 2.6e-11, above the floor but not certified: accepted after its eigenvalues
        near = batch({3: 1e-2})
        want = oracles.batched_stencil(near)
        eig_rows.clear()
        assert same_bits(compute_stencil(near), want)
        assert eig_rows == [1]
    # the s = 5 stars on this lattice fail first at the node that the
    # node-by-node build names
    lattice = generate_regular(8, 1.0, dim=2)
    with pytest.raises(DegenerateStarError) as err:
        build_all_stencils(lattice, 5)
    with pytest.raises(DegenerateStarError) as want:
        oracles.build_table_arrays(lattice, 5)
    assert err.value.node == want.value.node
    assert str(err.value) == str(want.value)
    assert_same_solve(star_offsets(lattice, 5))


def _solve_clouds(dim, jitter):
    if jitter == 0.0:
        for n in (5, 9, 11, 20, 30) if dim == 1 else (5, 7, 11, 20):
            yield generate_regular(n, 1.0, dim=dim)
    for seed in range(20):
        for n in (5, 8, 12, 24, 48) if seed < 5 else (5, 8, 12, 24):
            yield generate_jittered(n, 1.0, dim=dim, jitter=jitter, seed=seed)


@pytest.mark.parametrize("jitter", [0.0, 0.15, 0.3, 0.45])
@pytest.mark.parametrize("dim", [1, 2])
def test_solve_equals_the_eigenvalue_first_solve_on_clouds(dim, jitter):
    # regular clouds, and jittered ones at 5 to 48 nodes per axis and seeds
    # 0 to 19: the same stencils, bit for bit
    for cloud in _solve_clouds(dim, jitter):
        assert_same_solve(star_offsets(cloud, STAR_RULE[dim]))


@pytest.mark.parametrize("case", ["presets", "jittered-96"])
def test_solve_equals_the_eigenvalue_first_solve_on_named_clouds(case):
    if case == "presets":
        for name in PRESET_NAMES:
            scenario = get_preset(name)
            assert_same_solve(star_offsets(scenario.cloud.build(), scenario.star.s))
    else:
        cloud = generate_jittered(96, 1.0, dim=2, jitter=0.25, seed=11)
        assert_same_solve(star_offsets(cloud, 8))


@st.composite
def moment_stacks(draw):
    """Random stars of nd = 2 (1D) or 5 (2D), some squeezed toward a point
    (1D) or a line through the center (2D) by 10^-e, or onto it exactly;
    e from 0 to 4 puts many rows near the floor, between it and the
    certified bound."""
    dim = draw(st.sampled_from([1, 2]))
    s = draw(st.integers(2, 4) if dim == 1 else st.integers(5, 10))
    squeeze = draw(st.lists(st.one_of(st.none(), st.floats(0, 4), st.integers(0, 17)),
                            min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offsets = rng.uniform(-1, 1, size=(len(squeeze), s, dim))
    for row, e in enumerate(squeeze):
        if e is None:
            continue
        scale = 0.0 if e == 17 else 10.0 ** -e
        if dim == 1:  # every neighbor near the first
            offsets[row, :, 0] = offsets[row, 0, 0] * (1.0 + scale * rng.uniform(-1, 1, s))
        else:  # every neighbor near a line at a random angle
            offsets[row, :, 1] *= scale
            turn = rng.uniform(0, 2 * np.pi)
            offsets[row] = offsets[row] @ np.array([[np.cos(turn), np.sin(turn)],
                                                    [-np.sin(turn), np.cos(turn)]])
    return offsets


def near_floor_stack():
    """Four random 2D stars, row 2 with its y offsets scaled by 1e-2: rcond
    1.9e-12, above the floor but past what the traces certify."""
    offsets = np.random.default_rng(1).uniform(-1, 1, size=(4, 6, 2))
    offsets[2, :, 1] *= 1e-2
    return offsets


@settings(max_examples=300, deadline=None)
@given(moment_stacks())
@example(near_floor_stack())
@example(np.array([[[0.1], [0.100002]], [[0.2], [-0.3]]]))  # row 0: rcond 1.6e-11
def test_solve_equals_the_eigenvalue_first_solve_on_random_stacks(offsets):
    # the same verdict, node and message, or the same bits
    assert_same_solve(offsets)


def test_no_preset_or_benchmark_star_needs_eigenvalues(eig_rows, monkeypatch, tmp_path):
    # every moment matrix of these clouds is certified by its traces
    scenarios = {name: get_preset(name) for name in PRESET_NAMES}
    monkeypatch.setattr(sys, "path", list(sys.path))  # workloads.py prepends src
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    for w in workloads["WORKLOADS"].values():
        config = w.config(1, workloads["PRESET_CLOUD_SEED"], str(tmp_path))
        scenarios[w.name] = parse_scenario_text(workloads["scenario_text"](config))
    assert len(scenarios) == len(PRESET_NAMES) + 3
    for name, scenario in scenarios.items():
        scenario.star.build_table(scenario.cloud.build())
        assert eig_rows == [], name
    # the spy sees the rows the traces leave open
    compute_stencil(near_floor_stack())
    assert eig_rows == [1]


def test_large_build_is_exact():
    # N = 9,216: quadratics differentiate exactly, and sampled stars,
    # corners and edges included, equal the loop oracle bit for bit
    cloud = generate_jittered(96, 1.0, dim=2, jitter=0.25, seed=11)
    assert polynomial_exactness(cloud, 8).max_error <= 1e-9
    table = build_all_stencils(cloud, 8)
    rng = np.random.default_rng(0)
    sample = np.concatenate([[0, 95, 9120, 9215], rng.choice(cloud.boundary_indices, 12),
                             rng.choice(cloud.n_nodes, 48)])
    for node in sample:
        star = oracles.select_star(cloud, node, 8)
        assert table.stars[:-1, node].tolist() == star.tolist()
        center, coeffs = oracles.compute_stencil(
            cloud.positions[star] - cloud.positions[node], node)
        assert same_bits(oracles.center_coeffs(table)[node], center)
        assert same_bits(oracles.neighbor_coeffs(table)[node], coeffs)


def _bound_cases():
    rng = np.random.default_rng(9)
    c2 = generate_jittered(12, 1.0, dim=2, jitter=0.25, seed=11)
    t2 = build_all_stencils(c2, 8)
    c1 = generate_jittered(15, 1.0, dim=1, jitter=0.2, seed=3)
    t1 = build_all_stencils(c1, 4)
    for table in (t1, t2):
        n = table.cloud.n_nodes
        k = rng.uniform(0.2, 2.0, n)
        k[::5] = 0.0  # where f' is singular for p < 1
        state = State(k=k, A=rng.uniform(0.8, 1.5, n), time=0.0)
        for params in (ModelParams(chi=1.0, delta=0.3),
                       ModelParams(alpha1=1e-3, chi=-0.4, delta=0.05, p=0.5, q=2.0),
                       ModelParams(chi=0.0, delta=0.05, tech_diffusion=3.0)):
            yield table, state, params


BOUND_CASES = list(_bound_cases())
# Ids keep the numbering of a two-mode grid, whose odd cases tested a removed
# f' mode, so results stay comparable across versions.
BOUND_IDS = [f"table{i}-state{i}-params{i}-local" for i in range(0, 2 * len(BOUND_CASES), 2)]


@pytest.mark.parametrize("table,state,params", BOUND_CASES, ids=BOUND_IDS)
def test_dt_bound_matches_per_star_oracle(table, state, params):
    report = dt_bound(table, state, params)
    rows, global_dt = oracles.dt_bound(table, state, params)
    nodes, phi1, phi2, margin, dt_max = zip(*rows)
    assert report.nodes.tolist() == list(nodes)
    np.testing.assert_allclose(report.phi1, phi1, rtol=1e-12)
    np.testing.assert_allclose(report.phi2, phi2, rtol=1e-12)
    np.testing.assert_allclose(report.margin, margin, rtol=1e-12, atol=1e-12 * max(map(abs, margin)))
    expect = np.array([np.nan if d is None else d for d in dt_max])
    np.testing.assert_allclose(report.dt_max, expect, rtol=1e-12)
    assert report.global_dt == pytest.approx(global_dt, rel=1e-12)
    assert report.violations.tolist() == [r[0] for r in rows if not r[3] > 0]


def _kernel_cases():
    for preset in PRESET_NAMES:
        scenario = get_preset(preset)
        cloud = scenario.cloud.build()
        yield preset, cloud, scenario.star.build_table(cloud)
    for seed in range(20):
        cloud = generate_jittered(12, 1.0, dim=2, jitter=0.25, seed=seed)
        yield f"jittered-12-seed{seed}", cloud, build_all_stencils(cloud, 8)
    cloud = generate_jittered(48, 1.0, dim=2, jitter=0.25, seed=11)
    yield "jittered-48-seed11", cloud, build_all_stencils(cloud, 8)


KERNEL_CASES = list(_kernel_cases())
KERNEL_IDS = [c[0] for c in KERNEL_CASES]


def _fields(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n), rng.uniform(0.5, 2.0, n), np.exp(rng.normal(0, 3, n))]


@pytest.mark.parametrize("name,cloud,table", KERNEL_CASES, ids=KERNEL_IDS)
def test_compressed_closure_matches_dense_inverse(name, cloud, table):
    op = NeumannOperator(cloud, table)
    b_idx = cloud.boundary_indices
    reached = set(table.stars[:-1].T[b_idx].ravel().tolist()) - set(b_idx.tolist())
    assert np.unique(op.idx).tolist() == sorted(reached)  # only the interior nodes boundary stars reach
    assert not np.isin(op.idx, b_idx).any()
    assert op.idx.shape == op.w.shape == (op.idx.shape[0], b_idx.size)
    ref = oracles.dense_projection(cloud, table)[b_idx]
    assert np.abs(oracles.closure_matrix(op, cloud.n_nodes) - ref).max() <= 1e-12 * np.abs(ref).max()
    for field in _fields(cloud.n_nodes, 3):
        got = op.project(field.copy())
        ref = oracles.dense_project(cloud, table, field)
        assert np.array_equal(got[cloud.interior_indices], field[cloud.interior_indices])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name,cloud,table", KERNEL_CASES, ids=KERNEL_IDS)
def test_derivatives_equal_node_major_einsum(name, cloud, table):
    fields = _fields(cloud.n_nodes, 8) + [cloud.positions[:, 0] ** 2]
    for field in fields:
        assert same_bits(np.ascontiguousarray(table.derivatives(field)),
                         oracles.derivatives(table, field))


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_gaussians_equal_their_written_out_forms(preset):
    scenario = get_preset(preset)
    cloud = scenario.cloud.build()
    spec = scenario.model.g_spec
    assert same_bits(tech_rate_field(cloud, spec), oracles.tech_rate_field(cloud, spec))
    for field in (scenario.k0, scenario.A0):
        if field.kind == "gaussians":
            assert same_bits(field.evaluate(cloud),
                             oracles.bump_field(cloud, field.base, field.bumps))


@pytest.mark.parametrize("dim", [1, 2])
def test_gaussians_equal_their_written_out_forms_on_every_width(dim):
    # every sigma whose 2 sigma^2 is positive and finite, both ends included
    sigmas = np.geomspace(oracles.SIGMA_MIN, oracles.SIGMA_MAX, 97).tolist()
    assert sigmas[0] == oracles.SIGMA_MIN and sigmas[-1] == oracles.SIGMA_MAX
    for outside in (math.nextafter(sigmas[0], 0), math.nextafter(sigmas[-1], math.inf)):
        with pytest.raises(ValueError, match=r"^sigma: .* 2 sigma\^2 (underflows|overflows)"):
            GrowthSpec("gaussian", 0.1, sigma=outside)
    clouds = [generate_regular(11, 1.0, dim=dim),
              generate_jittered(12, 1.0, dim=dim, jitter=0.2, seed=4)]
    for cloud in clouds:
        for sigma in sigmas:
            for center in (None, (0.3, 0.7)[:dim]):
                spec = GrowthSpec("gaussian", 0.1, center=center, sigma=sigma)
                assert same_bits(tech_rate_field(cloud, spec),
                                 oracles.tech_rate_field(cloud, spec))
            bumps = ((1.2, *(0.3, 0.7)[:dim], sigma), (0.9, *(0.7, 0.6)[:dim], 0.1))
            field = FieldSpec(kind="gaussians", bumps=bumps, base=0.05)
            assert same_bits(field.evaluate(cloud), oracles.bump_field(cloud, 0.05, bumps))


def _read(path):
    with open(path, newline="") as fh:
        return fh.read().splitlines(keepends=True)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_stencil_dump_equals_row_by_row_writer(preset, tmp_path):
    scenario = get_preset(preset)
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    arrays = oracles.build_table_arrays(cloud, scenario.star.s)
    path = write_stencil_dump(table, tmp_path / "dump.csv")
    assert _read(path) == oracles.stencil_dump_text(*arrays, cloud.dim).splitlines(keepends=True)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_run_outputs_equal_row_by_row_writers(preset, tmp_path):
    # a short march whose middle snapshot time falls between two steps
    scenario = get_preset(preset)
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    config = replace(scenario.scheme, t_final=0.05, snapshot_times=(0.0, 0.0205, 0.05))
    traj = run(cloud, table, scenario.model, scenario.initial_state(cloud), config)
    paths = write_snapshots(traj, tmp_path)
    assert len(paths) == len(traj.snapshots) == 3
    for path, snap in zip(paths, traj.snapshots):
        assert _read(path) == oracles.snapshot_text(cloud, snap).splitlines(keepends=True)
    assert _read(write_run_log(traj, tmp_path)) == \
        oracles.run_log_text(traj).splitlines(keepends=True)


def test_stability_report_equals_row_by_row_writer(tmp_path):
    table, state, params = BOUND_CASES[1]
    report = dt_bound(table, state, params)
    dt_max = report.dt_max.copy()
    dt_max[[0, 3]] = np.nan  # stars whose denominator is not positive
    for rep in (report, replace(report, dt_max=dt_max)):
        path = write_stability_report(rep, tmp_path / "stability.csv")
        assert _read(path) == oracles.stability_text(rep).splitlines(keepends=True)
    assert _read(path)[1].endswith(",\r\n")
