"""Node clouds on rectangular domains and star (neighborhood) selection.

A cloud is a scattered set of nodes covering [0, L]^dim for dim 1 or 2.
Boundary nodes carry outward unit normals; corners get the normalized sum
of the adjacent edge normals.  Stars are the per-node neighbor sets the
difference stencils are built on.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CloudError, InsufficientNodesError

# Tolerance (relative to L) for deciding that a node sits on a face.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class NodeCloud:
    """Scattered nodes over [0, length]^dim with boundary flags and normals."""

    dim: int
    positions: np.ndarray  # (N, dim)
    boundary: np.ndarray   # (N,) bool
    normals: np.ndarray    # (N, dim), zero rows for interior nodes
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise CloudError(f"dim must be 1 or 2, got {self.dim}")
        if self.length <= 0:
            raise CloudError(f"length must be positive, got {self.length}")
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != self.dim:
            raise CloudError(f"positions must have shape (N, {self.dim})")
        tol = BOUNDARY_TOL * self.length
        if pos.min() < -tol or pos.max() > self.length + tol:
            raise CloudError("positions fall outside [0, length]^dim")
        uniq = np.unique(pos, axis=0)
        if uniq.shape[0] != pos.shape[0]:
            raise CloudError("cloud contains coincident nodes")
        onface = self._face_distance(pos) <= tol
        if np.any(np.asarray(self.boundary, dtype=bool) & ~onface):
            raise CloudError("node flagged boundary does not lie on the boundary")

    def _face_distance(self, pos: np.ndarray) -> np.ndarray:
        return np.minimum(pos, self.length - pos).min(axis=1)

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary)

    @property
    def boundary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.boundary)

    def spacing_estimate(self) -> float:
        """Median nearest-neighbor distance; the h used by refinement studies."""
        if self.n_nodes < 2:
            return math.inf
        nearest = _select(self, np.arange(self.n_nodes), 1, "distance")[:, 0]
        offsets = self.positions[nearest] - self.positions
        return float(np.median(np.sqrt((offsets ** 2).sum(axis=1))))


def _edge_normals(dim: int, pos: np.ndarray, length: float) -> np.ndarray:
    """Outward normals from face membership; corners sum adjacent faces."""
    tol = BOUNDARY_TOL * length
    n = np.zeros_like(pos)
    for axis in range(dim):
        n[pos[:, axis] <= tol, axis] -= 1.0
        n[pos[:, axis] >= length - tol, axis] += 1.0
    norms = np.sqrt((n ** 2).sum(axis=1, keepdims=True))
    nz = norms[:, 0] > 0
    n[nz] /= norms[nz]
    return n


def _lattice(nodes_per_axis: int, length: float, dim: int):
    if nodes_per_axis < 2:
        raise CloudError("nodes_per_axis must be at least 2")
    axis = np.linspace(0.0, length, nodes_per_axis)
    if dim == 1:
        pos = axis[:, None]
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="xy")
        pos = np.column_stack([xx.ravel(), yy.ravel()])
    return pos


def generate_regular(nodes_per_axis: int, length: float = 1.0, dim: int = 1) -> NodeCloud:
    """Uniform lattice over [0, length]^dim."""
    if dim not in (1, 2):
        raise CloudError(f"dim must be 1 or 2, got {dim}")
    pos = _lattice(nodes_per_axis, length, dim)
    tol = BOUNDARY_TOL * length
    onface = np.minimum(pos, length - pos).min(axis=1) <= tol
    return NodeCloud(dim, pos, onface, _edge_normals(dim, pos, length), length)


def generate_jittered(
    nodes_per_axis: int,
    length: float = 1.0,
    dim: int = 1,
    jitter: float = 0.2,
    seed: int = 0,
) -> NodeCloud:
    """Lattice perturbed by uniform noise of at most jitter*h per axis.

    Interior nodes move freely; 2D edge nodes move only along their edge so
    the boundary stays on the boundary; corners are pinned.  jitter < 0.49
    keeps the node ordering intact, so neighbors never cross.
    """
    if not 0.0 <= jitter < 0.49:
        raise CloudError(f"jitter must lie in [0, 0.49), got {jitter}")
    if dim not in (1, 2):
        raise CloudError(f"dim must be 1 or 2, got {dim}")
    pos = _lattice(nodes_per_axis, length, dim)
    h = length / (nodes_per_axis - 1)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-jitter * h, jitter * h, size=pos.shape)
    tol = BOUNDARY_TOL * length
    for axis in range(dim):
        onface = (pos[:, axis] <= tol) | (pos[:, axis] >= length - tol)
        shift[onface, axis] = 0.0  # never move a node off its face
    pos = pos + shift
    onface = np.minimum(pos, length - pos).min(axis=1) <= tol
    return NodeCloud(dim, pos, onface, _edge_normals(dim, pos, length), length)


def load_cloud(path) -> NodeCloud:
    """Read a cloud CSV (header x[,y],boundary); normals are recomputed.

    The domain length is inferred as the largest coordinate present, so a
    valid file must include nodes on the far faces.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CloudError(f"{path}: empty cloud file")
    header = [c.strip() for c in rows[0]]
    if header == ["x", "boundary"]:
        dim = 1
    elif header == ["x", "y", "boundary"]:
        dim = 2
    else:
        raise CloudError(f"{path}: header must be x[,y],boundary, got {header}")
    pos, flags = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != dim + 1:
            raise CloudError(f"{path}:{lineno}: expected {dim + 1} columns, got {len(row)}")
        try:
            pos.append([float(v) for v in row[:dim]])
            flag = int(row[dim])
        except ValueError as exc:
            raise CloudError(f"{path}:{lineno}: {exc}") from exc
        if flag not in (0, 1):
            raise CloudError(f"{path}:{lineno}: boundary flag must be 0 or 1")
        flags.append(bool(flag))
    if not pos:
        raise CloudError(f"{path}: no nodes")
    positions = np.asarray(pos, dtype=float)
    length = float(positions.max())
    normals = _edge_normals(dim, positions, length)
    return NodeCloud(dim, positions, np.asarray(flags), normals, length)


# Caps on what one block of centers allocates: centers per block of the grid
# search, and candidate slots (centers x candidates) per block of any search.
BLOCK_CENTERS = 256
BLOCK_SLOTS = 1 << 18


def _quadrants(offsets: np.ndarray) -> np.ndarray:
    # Half-open, rotationally symmetric partition: each positive half-axis
    # belongs to the quadrant counterclockwise from it.  On a lattice this
    # assigns one axis neighbor and one diagonal neighbor to every quadrant.
    h, k = offsets[..., 0], offsets[..., 1]
    return np.select([(h > 0) & (k >= 0), (h <= 0) & (k > 0), (h < 0) & (k <= 0)],
                     [0, 1, 2], 3)


def _choose(cloud: NodeCloud, centers: np.ndarray, cand: np.ndarray, s: int, criterion: str):
    """Pick each center's star among its row of candidates.

    cand is (B, K) node indices, -1 marking an empty slot.  Candidates are
    ranked by distance, ties broken by ascending index.  Returns per row:
    the chosen (B, s) neighbors, the largest chosen distance, whether the
    row held s candidates, and for the quadrant criterion whether each
    quadrant held ceil(s/4) of them, (B, 4) (None for distance).
    """
    pos = cloud.positions
    valid = (cand >= 0) & (cand != centers[:, None])
    offsets = pos[np.where(valid, cand, 0)] - pos[centers][:, None, :]
    dist = np.sqrt((offsets ** 2).sum(axis=2))
    dist[~valid] = np.inf
    order = np.lexsort((np.where(valid, cand, cloud.n_nodes), dist), axis=1)
    cand = np.take_along_axis(cand, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    enough = valid.sum(axis=1) >= s

    if criterion == "distance":
        return cand[:, :s], dist[:, s - 1], enough, None

    quad = np.take_along_axis(np.where(valid, _quadrants(offsets), 4), order, axis=1)
    rounds = math.ceil(s / 4)
    running = np.cumsum(quad[..., None] == np.arange(4), axis=1)  # (B, K, 4)
    rank = np.take_along_axis(running, np.minimum(quad, 3)[..., None], axis=2)[..., 0] - 1
    counts = running[:, -1, :]
    # Round robin over quadrants takes the rank-r member of each quadrant in
    # turn for r < rounds; what it leaves short is topped up with the
    # nearest remaining candidates in ranked order.
    position = np.arange(cand.shape[1])
    key = np.where((quad < 4) & (rank < rounds), 4 * rank + quad, 4 * rounds + position)
    pick = np.argsort(key, axis=1, kind="stable")[:, :s]
    chosen_dist = np.take_along_axis(dist, pick, axis=1).max(axis=1)
    return np.take_along_axis(cand, pick, axis=1), chosen_dist, enough, counts >= rounds


class _CellGrid:
    """Uniform cells over the cloud's bounding box, nodes bucketed by cell.

    The side is chosen so that the ball inscribed in a center's 3^dim window
    of cells holds about 3s nodes on a uniform cloud.
    """

    def __init__(self, cloud: NodeCloud, s: int):
        pos = cloud.positions
        self.lo, self.hi = pos.min(axis=0), pos.max(axis=0)
        extent = self.hi - self.lo
        ball = 2.0 if cloud.dim == 1 else math.pi
        side = (3.0 * s * cloud.length ** cloud.dim / (cloud.n_nodes * ball)) ** (1.0 / cloud.dim)
        self.shape = np.maximum(1, np.floor(extent / side)).astype(np.intp)
        self.side = extent / self.shape
        self.scale = np.divide(self.shape, extent, out=np.zeros(cloud.dim), where=extent > 0)
        cells = self.cell_of(pos)
        lin = np.ravel_multi_index(cells.T, self.shape)
        self.order = np.argsort(lin, kind="stable")
        self.counts = np.bincount(lin, minlength=int(np.prod(self.shape)))
        self.starts = np.cumsum(self.counts) - self.counts
        self.window = np.array(list(itertools.product((-1, 0, 1), repeat=cloud.dim)))

    def cell_of(self, p: np.ndarray) -> np.ndarray:
        return np.clip(np.floor((p - self.lo) * self.scale).astype(np.intp), 0, self.shape - 1)

    def candidates(self, cells: np.ndarray) -> np.ndarray:
        """(B, K) nodes in each center's window of cells, -1 for empty slots."""
        near = cells[:, None, :] + self.window  # (B, W, dim)
        inside = ((near >= 0) & (near < self.shape)).all(axis=2)
        lin = np.ravel_multi_index(np.where(inside[..., None], near, 0).transpose(2, 0, 1),
                                   self.shape)
        count = np.where(inside, self.counts[lin], 0)
        slot = np.arange(self.counts.max())
        taken = slot < count[..., None]  # (B, W, cmax)
        nodes = self.order[np.where(taken, self.starts[lin][..., None] + slot, 0)]
        return np.where(taken, nodes, -1).reshape(cells.shape[0], -1)

    def reach(self, p: np.ndarray, cells: np.ndarray):
        """Per center: the radius within which every node lies in its
        window, and per side of each axis whether the window reaches the
        last cell, so that no node lies beyond it."""
        lo_cov = cells - 1 <= 0
        hi_cov = cells + 1 >= self.shape - 1
        below = np.where(lo_cov, np.inf, p - (self.lo + (cells - 1) * self.side))
        above = np.where(hi_cov, np.inf, self.lo + (cells + 2) * self.side - p)
        # A margin absorbs rounding in the binning and in the distances.
        rho = np.minimum(below, above).min(axis=1) - 1e-9 * self.side.max()
        return rho, lo_cov, hi_cov

    def complete_quadrants(self, p: np.ndarray, lo_cov: np.ndarray, hi_cov: np.ndarray):
        """(B, 4): quadrant q of the center holds no node outside its window."""
        (x, y), (lx, ly), (hx, hy) = p.T, lo_cov.T, hi_cov.T
        return np.column_stack([
            (x >= self.hi[0]) | (hx & hy),   # h > 0, k >= 0
            (y >= self.hi[1]) | (lx & hy),   # h <= 0, k > 0
            (x <= self.lo[0]) | (lx & ly),   # h < 0, k <= 0
            (y <= self.lo[1]) | (hx & ly),   # h >= 0, k < 0
        ])


def select_star(cloud: NodeCloud, centers, s: int, criterion: str = "distance") -> np.ndarray:
    """Pick s neighbors for each of a block of centers; returns (len(centers), s).

    distance: the s nearest nodes, distance ties broken by node index.
    quadrant (2D only): nearest ceil(s/4) per sign quadrant of the offset,
    cycling quadrants and falling back to global nearest when quadrants
    run short.

    Candidates come from the 3^dim window of grid cells around each center.
    A row is kept only when the window provably holds its whole answer: every
    chosen node lies strictly inside the radius the window covers, and each
    quadrant either has ceil(s/4) members there or none outside it.  Other
    rows are recomputed against all nodes.
    """
    min_s = 2 if cloud.dim == 1 else 5
    if s < min_s:
        raise ValueError(f"s must be at least {min_s} in {cloud.dim}D, got {s}")
    if criterion not in ("distance", "quadrant"):
        raise ValueError(f"unknown star criterion {criterion!r}")
    if criterion == "quadrant" and cloud.dim != 2:
        raise ValueError("quadrant criterion requires a 2D cloud")
    return _select(cloud, centers, s, criterion)


def _select(cloud: NodeCloud, centers, s: int, criterion: str) -> np.ndarray:
    """select_star without the lower bound on s (spacing_estimate asks for 1)."""
    centers = np.asarray(centers, dtype=np.intp)
    if centers.ndim != 1:
        raise ValueError("centers must be a 1D array of node indices")
    n = cloud.n_nodes
    if s > n - 1:
        raise InsufficientNodesError(
            f"star of size {s} requested but only {n - 1} candidates exist"
        )
    out = np.empty((centers.size, s), dtype=np.intp)
    grid = _CellGrid(cloud, s)
    block = max(1, min(BLOCK_CENTERS, BLOCK_SLOTS // (grid.window.shape[0] * grid.counts.max())))
    redo = [np.empty(0, dtype=np.intp)]
    for b0 in range(0, centers.size, block):
        c = centers[b0:b0 + block]
        p = cloud.positions[c]
        cells = grid.cell_of(p)
        chosen, farthest, enough, full = _choose(cloud, c, grid.candidates(cells), s, criterion)
        rho, lo_cov, hi_cov = grid.reach(p, cells)
        ok = enough & (farthest < rho)
        if full is not None:
            ok &= (full | grid.complete_quadrants(p, lo_cov, hi_cov)).all(axis=1)
        out[b0:b0 + block] = chosen
        redo.append(b0 + np.flatnonzero(~ok))
    redo = np.concatenate(redo)
    block = max(1, BLOCK_SLOTS // n)
    for b0 in range(0, redo.size, block):
        rows = redo[b0:b0 + block]
        cand = np.broadcast_to(np.arange(n), (rows.size, n))
        out[rows] = _choose(cloud, centers[rows], cand, s, criterion)[0]
    return out
