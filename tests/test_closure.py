"""The 2D zero-flux closure: no growing mode, and runs that once diverged.

Boundary stars hold interior nodes, corners adding edge nodes, so every
boundary value is an explicit weighted sum of interior values.  A closure
that solved one system over all boundary nodes gave a growing mode to 27
of the 160 swept clouds, and the runs below diverged under it with no
stability event.
"""

import numpy as np
import pytest

import oracles
from meshless_growth import (
    DegenerateBoundaryStarError,
    NeumannOperator,
    build_all_stencils,
    generate_jittered,
    generate_regular,
    get_preset,
    run,
)

SWEEP = [(n, jitter) for n in (12, 16, 20, 24) for jitter in (0.1, 0.15)]


@pytest.mark.parametrize("n,jitter", SWEEP, ids=[f"{n}x{n}-jitter{j}" for n, j in SWEEP])
def test_closed_laplacian_has_no_growing_mode(n, jitter):
    # a growing mode has Re(lambda) > 1e-8 rho, rho the spectral radius
    growing = []
    for seed in range(20):
        cloud = generate_jittered(n, 1.0, dim=2, jitter=jitter, seed=seed)
        table = build_all_stencils(cloud, 8, "quadrant")
        eig = np.linalg.eigvals(oracles.closed_laplacian(cloud, table))
        if eig.real.max() > 1e-8 * np.abs(eig).max():
            growing.append(seed)
    assert growing == []


# Settings and the step at which the solved closure diverged: 16x16 seed 11
# in adapt mode at steps 19 and 20, 48x48 seeds 1, 2 and 4 at steps 14, 19
# and 37, and the 12x12 seed-13 cloud at steps 35 and 37.
ADAPT_16 = {"cloud.nodes_per_axis": "16", "cloud.seed": "11", "scheme.stability_mode": "adapt",
            "scheme.t_final": "1.0"}
RUNS = [
    ("growth-2d-delta005", ADAPT_16),
    ("growth-2d-delta03-chi1", ADAPT_16),
    *[("growth-2d-delta005", {"cloud.nodes_per_axis": "48", "cloud.seed": str(seed),
                              "scheme.dt": "1e-4", "scheme.t_final": "0.05"})
      for seed in (1, 2, 4)],
    ("growth-2d-delta005", {"cloud.seed": "13", "scheme.t_final": "1.0"}),
    ("growth-2d-delta03-chi1", {"cloud.seed": "13", "scheme.t_final": "1.0"}),
]


@pytest.mark.parametrize("preset,overrides", RUNS, ids=[
    f"{p}-{o.get('cloud.nodes_per_axis', '12')}-seed{o['cloud.seed']}" for p, o in RUNS])
def test_run_that_diverged_under_the_solved_closure_completes(preset, overrides):
    scenario = get_preset(preset, {**overrides, "scheme.snapshot_times": "0"})
    cloud = scenario.cloud.build()
    traj = run(cloud, scenario.star.build_table(cloud), scenario.model,
               scenario.initial_state(cloud), scenario.scheme)
    assert traj.diverged is None
    assert traj.final.time == pytest.approx(scenario.scheme.t_final, rel=1e-12)


def test_closure_rejects_a_star_that_reads_a_dependent_boundary_node():
    # 2D distance stars chain edge nodes along their edge
    cloud = generate_regular(6, 1.0, dim=2)
    table = build_all_stencils(cloud, 8, "distance")
    with pytest.raises(DegenerateBoundaryStarError, match="node 0: its star reads a boundary node"):
        NeumannOperator(cloud, table)


def test_closure_rows_read_their_stars_and_their_edge_neighbors_stars():
    # an edge row reads its own star, all interior; a corner row also reads
    # the stars of the edge nodes in its star, and nothing else
    cloud = generate_jittered(9, 1.0, dim=2, jitter=0.2, seed=3)
    table = build_all_stencils(cloud, 8, "quadrant")
    op = NeumannOperator(cloud, table)
    for row, node in enumerate(cloud.boundary_indices):
        star = table.stars[:-1, node]
        edges = star[cloud.boundary[star]]
        assert edges.size == 0 or np.count_nonzero(cloud.normals[node]) == 2
        reach = np.union1d(star, table.stars[:-1].T[edges].ravel())
        assert op.cols[op.closure[row] != 0].tolist() == reach[~cloud.boundary[reach]].tolist()
