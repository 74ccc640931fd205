"""Node cloud construction, persistence, and star selection."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshless_growth import (
    CloudError,
    InsufficientNodesError,
    NodeCloud,
    build_all_stencils,
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
    with pytest.raises(CloudError):
        NodeCloud(pos, 1.0)
    with pytest.raises(CloudError, match=r"^length: must be positive, got nan$"):
        NodeCloud(pos, math.nan)
    with pytest.raises(CloudError, match=r"^length: must be finite, got inf$"):
        NodeCloud(pos, math.inf)


@pytest.mark.parametrize("dim,s", [(1, 2), (2, 8)])
def test_cloud_stores_its_positions_as_a_float_array(dim, s):
    # integer nodes on [0, 4]^dim, given as a list of rows and as an int array
    grid = np.stack(np.meshgrid(*[np.arange(5)] * dim, indexing="xy"), axis=-1).reshape(-1, dim)
    floats = NodeCloud(grid.astype(float), 4.0)
    assert NodeCloud(floats.positions, 4.0).positions is floats.positions
    expect = build_all_stencils(floats, s)
    for given in (grid.tolist(), grid):
        cloud = NodeCloud(given, 4.0)
        assert cloud.positions.dtype == float and cloud.n_nodes == grid.shape[0]
        table = build_all_stencils(cloud, s)
        assert np.array_equal(table.stars, expect.stars)
        assert table.coeffs.tobytes() == expect.coeffs.tobytes()


@pytest.mark.parametrize("build, why", [
    (lambda: NodeCloud(np.eye(3), 1.0), r"^positions must have shape \(N, 1\) or \(N, 2\), "
                                        r"got \(3, 3\)$"),
    (lambda: generate_jittered(5, 1.0, dim=3), r"^dim: must be 1 or 2, got 3$"),
], ids=["positions", "generator"])
def test_a_cloud_of_three_dimensions_is_rejected(build, why):
    with pytest.raises(CloudError, match=why):
        build()


def test_cloud_rejects_duplicates():
    # the error names the lowest node that repeats an earlier one and the
    # first node at its position; -0.0 and 0.0 compare equal, so they coincide
    pos = np.array([[0.0], [0.5], [0.5], [1.0]])
    with pytest.raises(CloudError, match=r"^nodes 1 and 2 coincide at \[0\.5\]$"):
        NodeCloud(pos, 1.0)
    square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    for extra, message in [([[1.0, 0.0], [-0.0, 0.0]], r"nodes 1 and 4 coincide at \[1\.0, 0\.0\]"),
                           ([[0.5, 0.5], [-0.0, 0.0], [0.5, 0.5]], r"nodes 0 and 5 coincide")]:
        with pytest.raises(CloudError, match=f"^{message}"):
            NodeCloud(np.array(square + extra), 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cloud_rejects_a_non_finite_position(value):
    # NaN fails every comparison, so the range check alone would let it in
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, value]])
    with pytest.raises(CloudError, match=re.escape(f"node 4: position must be finite, "
                                                   f"got [0.5, {value}]")):
        NodeCloud(pos, 1.0)


def test_cloud_rejects_an_empty_face():
    # without a node at x = 0 the node at 0.25 would silently lose its boundary condition
    with pytest.raises(CloudError, match=r"^no node on the face x = 0$"):
        NodeCloud(np.array([[0.25], [0.5], [1.0]]), 1.0)


def test_load_cloud_names_the_file_of_a_cloud_with_an_empty_face(tmp_path):
    # a 6x6 lattice without its y = 1 row: the length is still 1 (from x),
    # and the row at y = 0.8 would otherwise be taken for interior nodes
    lattice = generate_regular(6, 1.0, dim=2)
    kept = lattice.positions[:, 1] < 1.0
    path = tmp_path / "bad.csv"
    path.write_text("x,y,boundary\n" + "".join(
        f"{x!r},{y!r},{int(b)}\n"
        for (x, y), b in zip(lattice.positions[kept].tolist(), lattice.boundary[kept])))
    with pytest.raises(CloudError, match=r"bad\.csv: no node on the face y = 1 "):
        load_cloud(path)


def test_cloud_rejects_false_boundary_flag(tmp_path):
    # a flag that disagrees with the position, in either direction, names its line
    for text, line in [("x,boundary\n0.0,1\n0.5,1\n1.0,1\n", 3),  # interior node flagged 1
                       ("x,y,boundary\n0,0,1\n0.5,0.5,0\n1,0,0\n1,1,1\n", 4)]:  # on a face, flagged 0
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CloudError, match=f"bad.csv:{line}: boundary flag"):
            load_cloud(path)


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


def test_load_cloud_names_both_lines_of_coincident_nodes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,boundary\n0.0,1\n0.5,0\n0.25,0\n0.5,0\n1.0,1\n")
    with pytest.raises(CloudError, match="bad.csv:5: node coincides with the node on line 3"):
        load_cloud(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_cloud_names_the_line_of_a_non_finite_position(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,boundary\n0.0,1\n{value},0\n1.0,1\n")
    with pytest.raises(CloudError, match=re.escape(f"bad.csv:3: position must be finite, "
                                                   f"got [{value}]")):
        load_cloud(path)


def test_load_cloud_names_the_file_when_no_coordinate_is_positive(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,boundary\n-0.5,0.0,1\n0.0,-0.5,1\n")
    with pytest.raises(CloudError, match="bad.csv: length: must be positive, got 0.0"):
        load_cloud(path)


@pytest.mark.parametrize("text, where", [
    ("", r"bad\.csv: empty cloud file$"),
    ("x,boundary\n0.0,1\n0.5\n1.0,1\n", r"bad\.csv:3: expected 2 columns, got 1$"),
    ("x,y,boundary\n0.0,0.0,1\n0.5,0.5,0,7\n", r"bad\.csv:3: expected 3 columns, got 4$"),
    ("x,y,boundary\n", r"bad\.csv: no nodes$"),
    ("x,boundary\n\n\n", r"bad\.csv: no nodes$"),
])
def test_load_cloud_names_the_file_or_line_of_a_malformed_file(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CloudError, match=where):
        load_cloud(path)


def test_star_validation():
    # rows hold distinct neighbors and never the center itself
    cloud = generate_jittered(9, 1.0, dim=2, jitter=0.3, seed=4)
    rows = select_star(cloud, 8)
    assert rows.shape == (cloud.n_nodes, 8)
    for center, row in enumerate(rows):
        assert np.unique(row).size == 8 and center not in row
    with pytest.raises(ValueError, match="zero offset"):
        compute_stencil(np.array([[[0.1], [0.0]]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_compute_stencil_rejects_a_non_finite_offset(bad):
    # Scaled, inf once read as a zero offset after a divide warning, and nan
    # failed the eigenvalue solve.
    offsets = np.array([[[0.1], [-0.1]], [[0.2], [bad]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^star at node 1 contains a non-finite offset$"):
            compute_stencil(offsets)


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
    s = 8
    stars = select_star(cloud, s)
    for center in cloud.interior_indices[:10]:
        star = stars[center]
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
    star = select_star(cloud, 8)[center]
    offsets = cloud.positions[star] - cloud.positions[center]
    ring = sorted(map(tuple, np.round(offsets / 0.25).astype(int).tolist()))
    assert ring == [(-1, -1), (-1, 0), (-1, 1), (0, -1),
                    (0, 1), (1, -1), (1, 0), (1, 1)]


def test_select_star_errors():
    cloud = generate_regular(3, 1.0, dim=1)
    with pytest.raises(InsufficientNodesError):
        select_star(cloud, 3)
    with pytest.raises(ValueError):
        select_star(cloud, 0)
    with pytest.raises(ValueError):
        build_all_stencils(cloud, 1)  # the 1D fit needs two neighbors
    with pytest.raises(ValueError):
        build_all_stencils(generate_regular(4, 1.0, dim=2), 4)  # the 2D fit needs five
    # the star of an edge node, or of a 1D end, is drawn from the interior nodes alone
    with pytest.raises(InsufficientNodesError, match="only 1 candidates exist"):
        select_star(cloud, 2)
    with pytest.raises(InsufficientNodesError, match="only 4 candidates exist"):
        select_star(generate_regular(4, 1.0, dim=2), 8)
    assert select_star(generate_regular(5, 1.0, dim=2), 8).shape == (25, 8)
