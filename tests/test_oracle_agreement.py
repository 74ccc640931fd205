"""The array build, bound, writers and per-step kernels agree with the references.

Neighbor arrays must be equal and stencil coefficients equal bit for bit,
since the array code performs the same floating-point operations per star.
So must derivatives on the component-major table, and the CSV files must
equal byte for byte those the row-by-row writers produce; the
explicit boundary closure, which composes corner rows from edge rows
instead of inverting, agrees with the dense inverse to rounding.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from meshless_growth import (
    PRESET_NAMES,
    DegenerateStarError,
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
    polynomial_exactness,
    run,
    select_star,
)
from meshless_growth import cloud as cloud_module
from meshless_growth.output import (
    write_run_log,
    write_snapshots,
    write_stability_report,
    write_stencil_dump,
)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_matches_oracle(cloud, s, criterion):
    table = build_all_stencils(cloud, s, criterion)
    neighbors, center, coeffs = oracles.build_table_arrays(cloud, s, criterion)
    assert np.array_equal(table.stars[:-1].T, neighbors)
    assert same_bits(table.center_coeffs, center)
    assert same_bits(table.neighbor_coeffs, coeffs)


def _cases():
    yield "regular-1d-9", generate_regular(9, 1.0, dim=1), 2, "distance"
    yield "regular-1d-30", generate_regular(30, 1.0, dim=1), 4, "distance"
    for n, s in [(7, 8), (11, 8), (10, 12)]:
        yield f"regular-2d-{n}-s{s}", generate_regular(n, 1.0, dim=2), s, "quadrant"
    yield "regular-2d-9-distance", generate_regular(9, 1.0, dim=2), 8, "distance"
    for crit in ("distance", "quadrant"):
        for seed in range(20):
            yield (f"jittered-12-seed{seed}-{crit}",
                   generate_jittered(12, 1.0, dim=2, jitter=0.25, seed=seed), 8, crit)
        for seed in range(5):
            yield (f"jittered-24-seed{seed}-{crit}",
                   generate_jittered(24, 1.0, dim=2, jitter=0.25, seed=seed), 8, crit)
        yield (f"jittered-48-seed11-{crit}",
               generate_jittered(48, 1.0, dim=2, jitter=0.25, seed=11), 8, crit)


CASES = list(_cases())


@pytest.mark.parametrize("name,cloud,s,criterion", CASES, ids=[c[0] for c in CASES])
def test_build_matches_loop_oracle(name, cloud, s, criterion):
    assert_matches_oracle(cloud, s, criterion)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_build_matches_loop_oracle(preset):
    scenario = get_preset(preset)
    cloud = scenario.cloud.build()
    assert_matches_oracle(cloud, scenario.star.s, scenario.star.criterion)


def test_corner_star_is_its_nearest_nodes_off_the_corners():
    # the corner takes its 8 nearest nodes, edge nodes included, ties broken
    # by index; the edge node at (0.5, 0) ranks interior nodes only, so two
    # quadrants hold none, the round robin takes two from each of the others
    # and the nearest remaining nodes fill the star
    cloud = generate_regular(5, 1.0, dim=2)
    stars = select_star(cloud, 8, "quadrant")
    assert stars[0].tolist() == [1, 5, 6, 2, 10, 7, 11, 12]
    assert stars[2].tolist() == [8, 7, 13, 6, 12, 11, 17, 16]
    for node in (0, 2):
        assert stars[node].tolist() == oracles.select_star(cloud, node, 8, "quadrant").tolist()


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


@pytest.mark.parametrize("criterion", ["distance", "quadrant"])
def test_rows_the_grid_cannot_prove_are_recomputed(monkeypatch, criterion):
    cloud = uneven_cloud()
    widths = []
    choose = cloud_module._choose

    def spy(cloud_, centers, cand, s, crit):
        widths.append(cand.shape[1])
        return choose(cloud_, centers, cand, s, crit)

    monkeypatch.setattr(cloud_module, "_choose", spy)
    assert_matches_oracle(cloud, 8, criterion)
    assert cloud.n_nodes in widths


def test_select_star_matches_the_oracle_on_random_clouds(monkeypatch):
    # every row, whether the grid proves it or the all-nodes search redoes it,
    # equals the node-by-node ranking; at least one row is redone
    redone = []
    choose = cloud_module._choose

    def spy(cloud_, centers, cand, s, crit):
        if cand.shape[1] == cloud_.n_nodes:
            redone.append(centers.size)
        return choose(cloud_, centers, cand, s, crit)

    monkeypatch.setattr(cloud_module, "_choose", spy)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]), criterion=st.sampled_from(["distance", "quadrant"]),
           s=st.integers(1, 12), extra=st.integers(0, 10), jitter=st.floats(0.0, 0.45),
           seed=st.integers(0, 2**32 - 1))
    @example(dim=2, criterion="quadrant", s=8, extra=7, jitter=0.1, seed=11)  # 12x12: 2 redone
    def check(dim, criterion, s, extra, jitter, seed):
        if dim == 1:
            criterion, n = "distance", s + 2 + 3 * extra
        else:
            s = max(s, 5) if criterion == "quadrant" else s
            n = math.isqrt(s) + 3 + extra  # at least s interior nodes
        cloud = generate_jittered(n, 1.0, dim=dim, jitter=jitter, seed=seed)
        stars = select_star(cloud, s, criterion)
        for node in range(cloud.n_nodes):
            assert stars[node].tolist() == oracles.select_star(cloud, node, s, criterion).tolist()

    check()
    assert redone


def test_faces_inside_the_tolerance_send_no_more_rows_to_the_all_nodes_search(monkeypatch):
    # The grid spans [0, L]^dim and reads a node's face from cloud.normals,
    # so face nodes 5e-13 inside the face are proven like those on it: the
    # same two edge rows beside a corner are redone, and every star equals
    # the node-by-node ranking.
    redone = []
    choose = cloud_module._choose

    def spy(cloud_, centers, cand, s, crit):
        if cand.shape[1] == cloud_.n_nodes:
            redone.extend(centers.tolist())
        return choose(cloud_, centers, cand, s, crit)

    monkeypatch.setattr(cloud_module, "_choose", spy)
    snapped = generate_jittered(12, 1.0, dim=2, jitter=0.1, seed=11)
    nudged = oracles.nudge_faces(snapped)
    assert np.array_equal(nudged.normals, snapped.normals)
    assert not np.array_equal(nudged.positions, snapped.positions)
    rows = {}
    for name, cloud in (("snapped", snapped), ("nudged", nudged)):
        redone.clear()
        stars = select_star(cloud, 8, "quadrant")
        rows[name] = sorted(redone)
        for node in range(cloud.n_nodes):
            assert stars[node].tolist() == oracles.select_star(cloud, node, 8, "quadrant").tolist()
    assert len(rows["snapped"]) == 2
    assert rows["nudged"] == rows["snapped"]


def test_spacing_estimate_equals_dense_nearest_neighbor_median():
    for cloud in (generate_jittered(24, 1.0, dim=2, jitter=0.3, seed=5), uneven_cloud(),
                  generate_jittered(40, 2.0, dim=1, jitter=0.3, seed=1)):
        diffs = cloud.positions[:, None, :] - cloud.positions[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert cloud.spacing_estimate() == float(np.median(dist.min(axis=1)))


def test_degenerate_star_names_the_lowest_bad_node():
    rng = np.random.default_rng(1)
    offsets = rng.uniform(-1, 1, size=(10, 6, 2))
    offsets[7, :, 1] = 0.0  # collinear stars
    offsets[3, :, 1] = 0.0
    with pytest.raises(DegenerateStarError) as err:
        compute_stencil(offsets)
    assert err.value.node == 3
    # the distance stars on this lattice fail first at node 1, as node by node
    lattice = generate_regular(8, 1.0, dim=2)
    with pytest.raises(DegenerateStarError) as err:
        build_all_stencils(lattice, 5, "distance")
    assert err.value.node == 1
    with pytest.raises(DegenerateStarError) as err:
        oracles.build_table_arrays(lattice, 5, "distance")
    assert err.value.node == 1


def test_large_build_is_exact():
    # N = 9,216: quadratics differentiate exactly, and sampled stars,
    # corners and edges included, equal the loop oracle bit for bit
    cloud = generate_jittered(96, 1.0, dim=2, jitter=0.25, seed=11)
    assert polynomial_exactness(cloud, 8, "quadrant").max_error <= 1e-9
    table = build_all_stencils(cloud, 8, "quadrant")
    rng = np.random.default_rng(0)
    sample = np.concatenate([[0, 95, 9120, 9215], rng.choice(cloud.boundary_indices, 12),
                             rng.choice(cloud.n_nodes, 48)])
    for node in sample:
        star = oracles.select_star(cloud, node, 8, "quadrant")
        assert table.stars[:-1, node].tolist() == star.tolist()
        center, coeffs = oracles.compute_stencil(
            cloud.positions[star] - cloud.positions[node], node)
        assert same_bits(table.center_coeffs[node], center)
        assert same_bits(table.neighbor_coeffs[node], coeffs)


def _bound_cases():
    rng = np.random.default_rng(9)
    c2 = generate_jittered(12, 1.0, dim=2, jitter=0.25, seed=11)
    t2 = build_all_stencils(c2, 8, "quadrant")
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
        yield f"jittered-12-seed{seed}", cloud, build_all_stencils(cloud, 8, "quadrant")
    cloud = generate_jittered(48, 1.0, dim=2, jitter=0.25, seed=11)
    yield "jittered-48-seed11", cloud, build_all_stencils(cloud, 8, "quadrant")


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
    assert op.cols.tolist() == sorted(reached)  # only the interior nodes boundary stars reach
    assert not np.isin(op.cols, b_idx).any()
    assert op.closure.shape == (b_idx.size, op.cols.size)
    for field in _fields(cloud.n_nodes, 3):
        got = op.project(field)
        ref = oracles.dense_project(cloud, table, field)
        assert np.array_equal(got[cloud.interior_indices], field[cloud.interior_indices])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name,cloud,table", KERNEL_CASES, ids=KERNEL_IDS)
def test_derivatives_equal_node_major_einsum(name, cloud, table):
    fields = _fields(cloud.n_nodes, 8) + [cloud.positions[:, 0] ** 2]
    for field in fields:
        assert same_bits(np.ascontiguousarray(table.derivatives(field)),
                         oracles.derivatives(table, field))


def _read(path):
    with open(path, newline="") as fh:
        return fh.read().splitlines(keepends=True)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_stencil_dump_equals_row_by_row_writer(preset, tmp_path):
    scenario = get_preset(preset)
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    arrays = oracles.build_table_arrays(cloud, scenario.star.s, scenario.star.criterion)
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
