"""Node cloud construction, persistence, and star selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshless_growth import (
    CloudError,
    InsufficientNodesError,
    NodeCloud,
    compute_stencil,
    generate_jittered,
    generate_regular,
    load_cloud,
    select_star,
)
from oracles import save_cloud


def test_regular_1d_positions():
    cloud = generate_regular(5, 1.0, dim=1)
    assert cloud.positions[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert cloud.boundary.tolist() == [True, False, False, False, True]
    assert cloud.normals[0, 0] == -1.0
    assert cloud.normals[-1, 0] == 1.0
    assert np.all(cloud.normals[1:4] == 0.0)
    assert cloud.spacing_estimate() == 0.25


def test_regular_2d_counts_and_normals():
    cloud = generate_regular(3, 2.0, dim=2)
    assert cloud.n_nodes == 9
    assert cloud.interior_indices.tolist() == [4]
    # corner normal = normalized sum of the two face normals
    corner = cloud.positions[:, 0] + cloud.positions[:, 1] == 0.0
    assert np.allclose(cloud.normals[corner], [-math.sqrt(0.5), -math.sqrt(0.5)])
    edge = (cloud.positions[:, 0] == 1.0) & (cloud.positions[:, 1] == 0.0)
    assert np.allclose(cloud.normals[edge], [0.0, -1.0])


def test_cloud_rejects_out_of_domain():
    pos = np.array([[0.0], [0.5], [1.5]])
    flags = np.array([True, False, True])
    with pytest.raises(CloudError):
        NodeCloud(1, pos, flags, np.zeros_like(pos), 1.0)


def test_cloud_rejects_duplicates():
    pos = np.array([[0.0], [0.5], [0.5], [1.0]])
    flags = np.array([True, False, False, True])
    with pytest.raises(CloudError):
        NodeCloud(1, pos, flags, np.zeros_like(pos), 1.0)


def test_cloud_rejects_false_boundary_flag():
    pos = np.array([[0.0], [0.5], [1.0]])
    flags = np.array([True, True, True])  # middle node is not on a face
    with pytest.raises(CloudError):
        NodeCloud(1, pos, flags, np.zeros_like(pos), 1.0)


def test_jitter_zero_is_regular():
    a = generate_regular(7, 1.0, dim=2)
    b = generate_jittered(7, 1.0, dim=2, jitter=0.0, seed=5)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.boundary, b.boundary)


def test_jitter_determinism_and_bounds():
    a = generate_jittered(9, 1.0, dim=2, jitter=0.3, seed=42)
    b = generate_jittered(9, 1.0, dim=2, jitter=0.3, seed=42)
    c = generate_jittered(9, 1.0, dim=2, jitter=0.3, seed=43)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)
    h = 1.0 / 8
    lattice = generate_regular(9, 1.0, dim=2).positions
    assert np.abs(a.positions - lattice).max() <= 0.3 * h


def test_jitter_keeps_boundary_on_faces():
    cloud = generate_jittered(8, 2.0, dim=2, jitter=0.4, seed=1)
    b = cloud.positions[cloud.boundary]
    onface = np.minimum(b, 2.0 - b).min(axis=1)
    assert onface.max() == 0.0
    # corners pinned exactly
    for corner in ([0, 0], [0, 2], [2, 0], [2, 2]):
        assert any(np.all(cloud.positions == corner, axis=1))


def test_jitter_range_validated():
    with pytest.raises(CloudError):
        generate_jittered(5, 1.0, dim=1, jitter=0.49)
    with pytest.raises(CloudError):
        generate_jittered(5, 1.0, dim=1, jitter=-0.1)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 12),
    dim=st.sampled_from([1, 2]),
    jitter=st.floats(0.0, 0.45),
    seed=st.integers(0, 2**32 - 1),
)
def test_jittered_clouds_always_valid(n, dim, jitter, seed):
    # construction runs the full NodeCloud validation; boundary count matches
    # the lattice count because no node leaves or enters a face
    cloud = generate_jittered(n, 1.0, dim=dim, jitter=jitter, seed=seed)
    expected_boundary = 2 if dim == 1 else 4 * (n - 1)
    assert int(cloud.boundary.sum()) == expected_boundary
    assert cloud.n_nodes == n**dim


def test_save_load_round_trip(tmp_path):
    cloud = generate_jittered(6, 3.0, dim=2, jitter=0.25, seed=9)
    path = tmp_path / "cloud.csv"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert back.dim == 2
    assert back.length == 3.0
    assert np.array_equal(back.positions, cloud.positions)
    assert np.array_equal(back.boundary, cloud.boundary)
    assert np.array_equal(back.normals, cloud.normals)


def test_load_cloud_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,boundary\n0.0,1\n0.5,zebra\n1.0,1\n")
    with pytest.raises(CloudError, match=":3:"):
        load_cloud(path)


def test_load_cloud_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.0,1\n")
    with pytest.raises(CloudError, match="header"):
        load_cloud(path)


def test_load_cloud_rejects_bad_flag(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,boundary\n0.0,1\n0.5,2\n1.0,1\n")
    with pytest.raises(CloudError, match="flag"):
        load_cloud(path)


def test_star_validation():
    # rows hold distinct neighbors and never the center itself
    cloud = generate_jittered(9, 1.0, dim=2, jitter=0.3, seed=4)
    for crit in ("distance", "quadrant"):
        rows = select_star(cloud, np.arange(cloud.n_nodes), 8, crit)
        assert rows.shape == (cloud.n_nodes, 8)
        for center, row in enumerate(rows):
            assert np.unique(row).size == 8 and center not in row
    with pytest.raises(ValueError, match="zero offset"):
        compute_stencil(np.array([[[0.1], [0.0]]]))
    with pytest.raises(ValueError):
        select_star(cloud, np.zeros((2, 2), dtype=int), 8, "distance")


def test_select_star_distance_matches_brute_force():
    rng = np.random.default_rng(7)
    cloud = generate_jittered(6, 1.0, dim=2, jitter=0.3, seed=3)
    for center in rng.choice(cloud.n_nodes, size=8, replace=False):
        star = select_star(cloud, [center], 8, "distance")[0]
        d = np.sqrt(((cloud.positions - cloud.positions[center]) ** 2).sum(axis=1))
        order = sorted(i for i in range(cloud.n_nodes) if i != center)
        order.sort(key=lambda i: (d[i], i))
        assert star.tolist() == order[:8]


def _quadrant_oracle(h, k):
    if h > 0 and k >= 0:
        return 0
    if h <= 0 and k > 0:
        return 1
    if h < 0 and k <= 0:
        return 2
    return 3


def test_select_star_quadrant_matches_brute_force():
    cloud = generate_jittered(7, 1.0, dim=2, jitter=0.35, seed=11)
    for center in cloud.interior_indices[:10]:
        s = 8
        star = select_star(cloud, [center], s, "quadrant")[0]
        d = np.sqrt(((cloud.positions - cloud.positions[center]) ** 2).sum(axis=1))
        ranked = sorted((i for i in range(cloud.n_nodes) if i != center),
                        key=lambda i: (d[i], i))
        buckets = [[], [], [], []]
        for i in ranked:
            off = cloud.positions[i] - cloud.positions[center]
            buckets[_quadrant_oracle(off[0], off[1])].append(i)
        expect = []
        for r in range(math.ceil(s / 4)):
            for b in buckets:
                if len(expect) < s and r < len(b):
                    expect.append(b[r])
        for i in ranked:
            if len(expect) == s:
                break
            if i not in expect:
                expect.append(i)
        assert star.tolist() == expect


def test_quadrant_star_on_lattice_is_eight_ring():
    cloud = generate_regular(5, 1.0, dim=2)
    center = 12  # middle of the 5x5 lattice
    star = select_star(cloud, [center], 8, "quadrant")[0]
    offsets = cloud.positions[star] - cloud.positions[center]
    ring = sorted(map(tuple, np.round(offsets / 0.25).astype(int).tolist()))
    assert ring == [(-1, -1), (-1, 0), (-1, 1), (0, -1),
                    (0, 1), (1, -1), (1, 0), (1, 1)]


def test_select_star_errors():
    cloud = generate_regular(3, 1.0, dim=1)
    with pytest.raises(InsufficientNodesError):
        select_star(cloud, [1], 3, "distance")
    with pytest.raises(ValueError):
        select_star(cloud, [1], 1, "distance")
    with pytest.raises(ValueError):
        select_star(cloud, [1], 2, "quadrant")  # 2D only
    with pytest.raises(ValueError):
        select_star(generate_regular(4, 1.0, dim=2), [5], 5, "voronoi")
