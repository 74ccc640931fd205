"""Node clouds on rectangular domains and star (neighborhood) selection.

A cloud is a scattered set of nodes covering [0, L]^dim for dim 1 or 2.
The nodes on a face are its boundary nodes and carry outward unit normals;
corners get the normalized sum of the adjacent edge normals.  Stars are the
per-node neighbor sets the difference stencils are built on.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CloudError, InsufficientNodesError

# Tolerance (relative to L) for deciding that a node sits on a face.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class NodeCloud:
    """Scattered nodes over [0, length]^dim; dim, boundary (the nodes on a
    face) and normals follow from the positions and are stored once."""

    positions: np.ndarray  # (N, dim)
    length: float
    dim: int = field(init=False)
    normals: np.ndarray = field(init=False)   # (N, dim), zero rows for interior nodes
    boundary: np.ndarray = field(init=False)  # (N,) bool, the rows with a nonzero normal

    def __post_init__(self):
        if not self.length > 0:
            raise CloudError(f"length: must be positive, got {self.length}")
        if not math.isfinite(self.length):
            raise CloudError(f"length: must be finite, got {self.length}")
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] not in (1, 2):
            raise CloudError(f"positions must have shape (N, 1) or (N, 2), got {pos.shape}")
        bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
        if bad.size:
            raise CloudError(f"node {bad[0]}: position must be finite, got {pos[bad[0]].tolist()}")
        tol = BOUNDARY_TOL * self.length
        if pos.min() < -tol or pos.max() > self.length + tol:
            raise CloudError("positions fall outside [0, length]^dim")
        pair = _coincident_pair(pos)
        if pair is not None:
            raise CloudError(f"nodes {pair[0]} and {pair[1]} coincide at {pos[pair[0]].tolist()}")
        low, high = pos <= tol, pos >= self.length - tol  # (N, dim) face membership
        for axis in range(pos.shape[1]):
            for on, face in ((low, 0.0), (high, self.length)):
                if not on[:, axis].any():
                    raise CloudError(f"no node on the face {'xy'[axis]} = {face:g}")
        normals = _edge_normals(low, high)
        object.__setattr__(self, "positions", pos)  # the same object for float64 input
        object.__setattr__(self, "dim", pos.shape[1])
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "boundary", normals.any(axis=1))

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
        nearest = select_star(self, 1)[:, 0]
        offsets = self.positions[nearest] - self.positions
        return float(np.median(np.sqrt((offsets ** 2).sum(axis=1))))


def _edge_normals(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Outward normals from face membership; corners sum adjacent faces."""
    n = high.astype(float) - low
    norms = np.sqrt((n ** 2).sum(axis=1, keepdims=True))
    nz = norms[:, 0] > 0
    n[nz] /= norms[nz]
    return n


def _coincident_pair(pos: np.ndarray) -> tuple[int, int] | None:
    """The first row of pos that repeats an earlier row, as (earlier, later),
    or None.  "First" is the lowest later row; earlier is the first row at
    its position.  Rows are compared with ==, so -0.0 and 0.0 coincide."""
    order = np.lexsort(pos.T)
    ranked = pos[order]
    repeats = order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]
    if not repeats.size:
        return None
    later = int(repeats.min())
    return int(np.flatnonzero((pos == pos[later]).all(axis=1))[0]), later


def _lattice(nodes_per_axis: int, length: float, dim: int):
    if dim not in (1, 2):
        raise CloudError(f"dim: must be 1 or 2, got {dim}")
    if nodes_per_axis < 2:
        raise CloudError(f"nodes_per_axis: must be at least 2, got {nodes_per_axis}")
    axis = np.linspace(0.0, length, nodes_per_axis)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="xy"), axis=-1).reshape(-1, dim)


def generate_regular(nodes_per_axis: int, length: float = 1.0, dim: int = 1) -> NodeCloud:
    """Uniform lattice over [0, length]^dim."""
    return generate_jittered(nodes_per_axis, length, dim, jitter=0.0)


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
        raise CloudError(f"jitter: must lie in [0, 0.49), got {jitter}")
    if seed < 0:
        raise CloudError(f"seed: must be nonnegative, got {seed}")
    pos = _lattice(nodes_per_axis, length, dim)
    h = length / (nodes_per_axis - 1)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-jitter * h, jitter * h, size=pos.shape)
    # Never move a node off its face; linspace sets both ends exactly.
    shift[(pos == 0.0) | (pos == length)] = 0.0
    return NodeCloud(pos + shift, length)


def load_cloud(path) -> NodeCloud:
    """Read a cloud CSV (header x[,y],boundary); normals are recomputed.

    The domain length is inferred as the largest coordinate present, and
    every face of the domain must hold a node.  Each boundary flag must
    say whether its node lies on a face; a row where it does not is rejected.
    Errors name the file, and the line where there is one: a repeated node
    names its own line and the line of the first node at its position.
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
    pos, flags, linenos = [], [], []
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
        flags.append(flag)
        linenos.append(lineno)
    if not pos:
        raise CloudError(f"{path}: no nodes")
    positions = np.asarray(pos, dtype=float)
    bad = np.flatnonzero(~np.isfinite(positions).all(axis=1))
    if bad.size:
        raise CloudError(f"{path}:{linenos[bad[0]]}: position must be finite, "
                         f"got {positions[bad[0]].tolist()}")
    pair = _coincident_pair(positions)
    if pair is not None:
        raise CloudError(f"{path}:{linenos[pair[1]]}: node coincides with the node on line "
                         f"{linenos[pair[0]]}")
    try:
        cloud = NodeCloud(positions, float(positions.max()))
    except CloudError as exc:
        raise CloudError(f"{path}: {exc} (the length is the largest coordinate)") from exc
    wrong = np.flatnonzero(cloud.boundary != np.asarray(flags, dtype=bool))
    if wrong.size:
        i = wrong[0]
        raise CloudError(f"{path}:{linenos[i]}: boundary flag is {flags[i]} but the node "
                         f"lies {'on a face' if cloud.boundary[i] else 'off the boundary'}")
    return cloud


# Caps on what one block of centers allocates: centers per block of the grid
# search, and candidate slots (centers x candidates) per block of any search.
BLOCK_CENTERS = 256
BLOCK_SLOTS = 1 << 18


def _quadrants(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    # Half-open, rotationally symmetric partition: each positive half-axis
    # belongs to the quadrant counterclockwise from it.  On a lattice this
    # assigns one axis neighbor and one diagonal neighbor to every quadrant.
    # The upper half (quadrants 0 and 1) holds k > 0 and the half-axis h > 0.
    upper = (k > 0) | ((k == 0) & (h > 0))
    return np.where(upper, h <= 0, 2 + (h >= 0))


def _choose(cloud: NodeCloud, centers: np.ndarray, cand: np.ndarray, s: int, criterion: str):
    """Pick each center's star among its row of candidates.

    cand is (B, K) node indices, -1 marking an empty slot.  Candidates are
    ranked by distance, ties broken by ascending index.  Under the quadrant
    criterion an edge center ranks interior candidates only and a corner
    every candidate but the corners, taking the nearest.  Returns per row:
    the chosen (B, s) neighbors, the largest chosen distance (inf where the
    row held fewer than s candidates), and for the quadrant criterion
    whether each quadrant held ceil(s/4) of them, (B, 4), corners counting
    as full (None for distance).
    """
    rows, width = cand.shape
    invalid = (cand < 0) | (cand == centers[:, None])
    if criterion == "quadrant":
        faces = np.count_nonzero(cloud.normals, axis=1)  # 0 interior, 1 edge, 2 corner
        own = faces[centers][:, None]
        invalid |= (own > 0) & (faces[cand] >= own)
    # Offsets one axis at a time; an empty slot reads node -1 and is masked.
    offsets = [x[cand] - x[centers, None] for x in cloud.positions.T]
    dist = offsets[0] ** 2
    for o in offsets[1:]:
        dist += o ** 2
    dist[invalid] = np.inf
    np.sqrt(dist, out=dist)
    order = np.lexsort((np.where(invalid, cloud.n_nodes, cand), dist), axis=1)
    # Row offsets turn per-row slot numbers into indices of the flat arrays.
    base = np.arange(0, rows * width, width)[:, None]

    if criterion == "distance":
        first = order[:, :s] + base
        return cand.ravel()[first], dist.ravel()[first[:, -1]], None

    corner = own == 2
    # A corner's candidates all sit in quadrant 4, so its key is its ranking.
    quad = _quadrants(*offsets)
    quad[invalid | corner] = 4
    quad = quad.ravel()[order + base]  # in ranked order
    rounds = math.ceil(s / 4)
    # Per quadrant, how many of the row's first j ranked candidates it holds,
    # counted along the contiguous axis; int32 holds any row, the all-nodes
    # rows included.
    member = quad[:, None, :] == np.arange(4)[:, None]  # (B, 4, K)
    running = np.cumsum(member, axis=2, dtype=np.int32)
    rank = running.ravel()[4 * base + width * np.minimum(quad, 3) + np.arange(width)] - 1
    counts = running[:, :, -1]
    # Round robin over quadrants takes the rank-r member of each quadrant in
    # turn for r < rounds; what it leaves short is topped up with the
    # nearest remaining candidates in ranked order.
    position = np.arange(width)
    key = np.where((quad < 4) & (rank < rounds), 4 * rank + quad, 4 * rounds + position)
    pick = np.argsort(key, axis=1, kind="stable")[:, :s]
    slot = order.ravel()[pick + base] + base
    return cand.ravel()[slot], dist.ravel()[slot].max(axis=1), (counts >= rounds) | corner


class _CellGrid:
    """Uniform cells over [0, L]^dim, nodes bucketed by cell.

    The side is chosen so that the ball inscribed in a center's 3^dim window
    of cells holds about 3s nodes on a uniform cloud.
    """

    def __init__(self, cloud: NodeCloud, s: int):
        ball = 2.0 if cloud.dim == 1 else math.pi
        side = (3.0 * s * cloud.length ** cloud.dim / (cloud.n_nodes * ball)) ** (1.0 / cloud.dim)
        cells = max(1, math.floor(cloud.length / side))  # per axis
        self.shape = np.full(cloud.dim, cells, dtype=np.intp)
        self.side = cloud.length / cells
        self.scale = cells / cloud.length
        self.normals = cloud.normals
        lin = np.ravel_multi_index(self.cell_of(cloud.positions).T, self.shape)
        self.order = np.argsort(lin, kind="stable")
        self.counts = np.bincount(lin, minlength=int(np.prod(self.shape)))
        self.starts = np.cumsum(self.counts) - self.counts
        self.window = np.array(list(itertools.product((-1, 0, 1), repeat=cloud.dim)))

    def cell_of(self, p: np.ndarray) -> np.ndarray:
        return np.clip(np.floor(p * self.scale).astype(np.intp), 0, self.shape - 1)

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
        below = np.where(lo_cov, np.inf, p - (cells - 1) * self.side)
        above = np.where(hi_cov, np.inf, (cells + 2) * self.side - p)
        # A margin absorbs rounding in the binning and in the distances.
        rho = np.minimum(below, above).min(axis=1) - 1e-9 * self.side
        return rho, lo_cov, hi_cov

    def complete_quadrants(self, centers: np.ndarray, lo_cov: np.ndarray, hi_cov: np.ndarray):
        """(B, 4): quadrant q of the center holds no candidate outside its
        window.  On a face, the quadrants that reach only the face hold no
        candidate at all: an edge center ranks interior nodes only."""
        normals = self.normals[centers]
        (x_lo, y_lo), (x_hi, y_hi) = (normals < 0).T, (normals > 0).T
        (lx, ly), (hx, hy) = lo_cov.T, hi_cov.T
        return np.column_stack([
            x_hi | y_hi | (hx & hy),   # h > 0, k >= 0
            y_hi | x_lo | (lx & hy),   # h <= 0, k > 0
            x_lo | y_lo | (lx & ly),   # h < 0, k <= 0
            y_lo | x_hi | (hx & ly),   # h >= 0, k < 0
        ])


def select_star(cloud: NodeCloud, s: int, criterion: str = "distance") -> np.ndarray:
    """Pick s neighbors for every node of the cloud; returns (N, s).

    distance: the s nearest nodes, distance ties broken by node index.
    quadrant (2D only): nearest ceil(s/4) per sign quadrant of the offset,
    cycling quadrants and falling back to global nearest when quadrants
    run short.  An edge node ranks interior nodes only, and a corner takes
    its s nearest nodes off the corners, so no boundary value of the
    zero-flux closure reads another through more than one corner-on-edge
    step.

    Candidates come from the 3^dim window of grid cells around each center.
    A row is kept only when the window provably holds its whole answer: every
    chosen node lies strictly inside the radius the window covers, and each
    quadrant either has ceil(s/4) members there or none outside it.  Other
    rows are recomputed against all nodes.
    """
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if criterion not in ("distance", "quadrant"):
        raise ValueError(f"unknown star criterion {criterion!r}")
    if criterion == "quadrant" and cloud.dim != 2:
        raise ValueError("quadrant criterion requires a 2D cloud")
    n = cloud.n_nodes
    # Under the quadrant criterion an edge node, the node with the fewest
    # candidates, ranks the interior nodes.
    pool = n - 1 if criterion == "distance" else cloud.interior_indices.size
    if s > pool:
        raise InsufficientNodesError(f"star of size {s} requested but only {pool} candidates exist")
    out = np.empty((n, s), dtype=np.intp)
    grid = _CellGrid(cloud, s)
    block = max(1, min(BLOCK_CENTERS, BLOCK_SLOTS // (grid.window.shape[0] * grid.counts.max())))
    redo = [np.empty(0, dtype=np.intp)]
    for b0 in range(0, n, block):
        c = np.arange(b0, min(b0 + block, n))
        p = cloud.positions[c]
        cells = grid.cell_of(p)
        chosen, farthest, full = _choose(cloud, c, grid.candidates(cells), s, criterion)
        rho, lo_cov, hi_cov = grid.reach(p, cells)
        ok = farthest < rho
        if full is not None:
            ok &= (full | grid.complete_quadrants(c, lo_cov, hi_cov)).all(axis=1)
        out[c] = chosen
        redo.append(c[~ok])
    redo = np.concatenate(redo)
    block = max(1, BLOCK_SLOTS // n)
    for b0 in range(0, redo.size, block):
        rows = redo[b0:b0 + block]
        cand = np.broadcast_to(np.arange(n), (rows.size, n))
        out[rows] = _choose(cloud, rows, cand, s, criterion)[0]
    return out
