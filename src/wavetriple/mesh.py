"""Interval and unit-square meshes with labeled boundary facets.

Nodes are stored as an (N, dim) float array, cells as index tuples into it
(segments in 1-D, counterclockwise triangles in 2-D).  Each boundary facet
(an endpoint in 1-D, an edge in 2-D) carries exactly one behavioral label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import MeshValidationError

# Tolerance for snapping partition break points onto facet boundaries.
SNAP_TOL = 1e-9


class BoundaryLabel(enum.Enum):
    """What a stretch of boundary does to the wave."""

    FIXED = "fixed"              # displacement pinned to zero
    FREE = "free"                # stress-free, no attachment
    ELASTIC = "elastic"          # linear spring restoring force
    DAMPED = "damped"            # velocity-proportional absorber
    ELASTIC_DAMPED = "elastic_damped"  # spring and absorber together

    @property
    def has_spring(self) -> bool:
        return self in (BoundaryLabel.ELASTIC, BoundaryLabel.ELASTIC_DAMPED)

    @property
    def has_damper(self) -> bool:
        return self in (BoundaryLabel.DAMPED, BoundaryLabel.ELASTIC_DAMPED)


@dataclass(frozen=True)
class Segment:
    """One labeled piece of a square side, in side parameter t in [0, 1]."""

    label: BoundaryLabel
    start: float = 0.0
    stop: float = 1.0


#: Sides of the unit square, each parameterized by its free coordinate
#: increasing (bottom/top by x, left/right by y).
SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class Mesh:
    """Simplicial mesh with labeled boundary facets.

    dim: 1 or 2.
    nodes: (N, dim) coordinates.
    cells: (ncell, dim + 1) node indices; triangles are counterclockwise.
    boundary_facets: (nf, dim) node indices; 1-D facets are single nodes.
    facet_labels: tuple of BoundaryLabel, one per boundary facet.
    """

    dim: int
    nodes: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray
    facet_labels: tuple[BoundaryLabel, ...]

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_facets(self) -> int:
        return self.boundary_facets.shape[0]


def interval_mesh(
    n: int,
    left: BoundaryLabel = BoundaryLabel.FIXED,
    right: BoundaryLabel = BoundaryLabel.FIXED,
) -> Mesh:
    """Uniform mesh of [0, 1] with n cells and labeled endpoints."""
    if n < 1:
        raise MeshValidationError(f"interval mesh needs at least 1 cell, got {n}")
    if 8 * (n + 1) > np.iinfo(np.intp).max:
        raise MeshValidationError(f"interval mesh of {n} cells: more than numpy can address")
    nodes = np.linspace(0.0, 1.0, n + 1).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    facets = np.array([[0], [n]])
    return Mesh(1, nodes, cells, facets, (left, right))


def rectangle_mesh(nx: int, ny: int, sides: Mapping[str, Sequence[Segment]]) -> Mesh:
    """Criss-cross-free triangulation of the unit square, nx by ny squares.

    Each square is split along its bottom-left to top-right diagonal into
    two counterclockwise triangles.  sides maps each name in SIDES to its
    segments, which must tile [0, 1] in order; boundary edges are labeled
    from them.  A missing side, a break point off the facet corners, or a
    node array beyond numpy's address range raises MeshValidationError.
    """
    if nx < 1 or ny < 1:
        raise MeshValidationError(f"rectangle mesh needs nx, ny >= 1, got {nx}, {ny}")
    if 16 * (nx + 1) * (ny + 1) > np.iinfo(np.intp).max:
        raise MeshValidationError(f"{nx} by {ny} mesh: more than numpy can address")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    grid = np.arange(nodes.shape[0]).reshape(ny + 1, nx + 1)
    a, b, c, d = grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1]
    cells = np.stack([a, b, c, a, c, d], -1).reshape(-1, 3)

    # Each side's nodes in order of its free coordinate.
    side_nodes = {"left": grid[:, 0], "right": grid[:, nx], "bottom": grid[0], "top": grid[ny]}
    facets, labels = [], []
    for side in SIDES:
        line = side_nodes[side]
        breaks = np.arange(line.size) / (line.size - 1)
        segs = sides.get(side, ())
        _check_segments(side, segs, breaks)
        mids = 0.5 * (breaks[:-1, None] + breaks[1:, None])
        bounds = np.array([(seg.start, seg.stop) for seg in segs])
        inside = (bounds[:, 0] - SNAP_TOL <= mids) & (mids <= bounds[:, 1] + SNAP_TOL)
        facets.append(np.column_stack([line[:-1], line[1:]]))
        labels += [segs[k].label for k in inside.argmax(axis=1)]
    return Mesh(2, nodes, cells, np.concatenate(facets), tuple(labels))


def _check_segments(side: str, segs: Sequence[Segment], breaks: np.ndarray) -> None:
    """Segments must tile [0, 1] in order and break only at facet corners.

    Each comparison is negated so that a NaN bound fails it; an infinite
    bound cannot tile [0, 1].
    """
    if not segs:
        raise MeshValidationError(f"side {side!r} has no boundary label")
    cursor = 0.0
    for seg in segs:
        if not abs(seg.start - cursor) <= SNAP_TOL:
            raise MeshValidationError(
                f"side {side!r}: segment starts at {seg.start}, expected {cursor}"
            )
        if not seg.stop > seg.start:
            raise MeshValidationError(
                f"side {side!r}: segment from {seg.start} to {seg.stop}"
                " does not end after it starts"
            )
        cursor = seg.stop
    if not abs(cursor - 1.0) <= SNAP_TOL:
        raise MeshValidationError(f"side {side!r}: segments end at {cursor}, not 1")
    for seg in segs:
        for t in (seg.start, seg.stop):
            if not np.abs(breaks - t).min() <= SNAP_TOL:
                raise MeshValidationError(
                    f"side {side!r}: break point {t} falls strictly inside a facet"
                )


def cell_volumes(mesh: Mesh) -> np.ndarray:
    """Length of each segment or area of each triangle."""
    pts = mesh.nodes[mesh.cells]
    if mesh.dim == 1:
        return pts[:, 1, 0] - pts[:, 0, 0]
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def cell_midpoints(mesh: Mesh) -> np.ndarray:
    """Barycenter of each cell, shape (ncell, dim)."""
    return mesh.nodes[mesh.cells].mean(axis=1)


def facet_measures(mesh: Mesh) -> np.ndarray:
    """Measure of each boundary facet: 1 for endpoints, length for edges."""
    if mesh.dim == 1:
        return np.ones(mesh.num_facets)
    pts = mesh.nodes[mesh.boundary_facets]
    return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)


def facet_midpoints(mesh: Mesh) -> np.ndarray:
    """Midpoint of each boundary facet, shape (nf, dim)."""
    return mesh.nodes[mesh.boundary_facets].mean(axis=1)


def boundary_nodes(mesh: Mesh) -> np.ndarray:
    """Sorted indices of all nodes lying on some boundary facet."""
    return np.unique(mesh.boundary_facets)


def clamped_nodes(mesh: Mesh) -> np.ndarray:
    """Sorted indices of nodes touching at least one FIXED facet."""
    mask = [lab is BoundaryLabel.FIXED for lab in mesh.facet_labels]
    if not any(mask):
        return np.zeros(0, dtype=int)
    return np.unique(mesh.boundary_facets[np.array(mask)])


def active_nodes(mesh: Mesh) -> np.ndarray:
    """Sorted indices of the nodes that carry the state: all but the clamped."""
    keep = np.ones(mesh.num_nodes, dtype=bool)
    keep[clamped_nodes(mesh)] = False
    return np.flatnonzero(keep)


def trace_nodes(mesh: Mesh) -> np.ndarray:
    """Sorted boundary nodes away from every FIXED facet.

    These carry the boundary trace data of the model: a node shared by a
    FIXED facet and any other facet counts as clamped, not as a trace node.
    """
    return np.setdiff1d(boundary_nodes(mesh), clamped_nodes(mesh))


def validate_mesh(mesh: Mesh) -> None:
    """Raise MeshValidationError listing every structural problem found."""
    problems = mesh_problems(mesh)
    if problems:
        raise MeshValidationError("; ".join(problems))


def mesh_problems(mesh: Mesh) -> list[str]:
    """All structural problems of the mesh, empty when it is consistent."""
    problems: list[str] = []
    n = mesh.num_nodes
    if mesh.dim not in (1, 2):
        return [f"unsupported dimension {mesh.dim}"]
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != mesh.dim:
        return [f"nodes must have shape (N, {mesh.dim})"]
    if mesh.cells.ndim != 2 or mesh.cells.shape[1] != mesh.dim + 1:
        return [f"cells must have shape (ncell, {mesh.dim + 1})"]
    if mesh.boundary_facets.ndim != 2 or mesh.boundary_facets.shape[1] != mesh.dim:
        return [f"boundary facets must have shape (nf, {mesh.dim})"]
    for name, arr in (("cell", mesh.cells), ("facet", mesh.boundary_facets)):
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            problems.append(f"{name} indices out of range 0..{n - 1}")
    if problems:
        return problems
    if len(mesh.facet_labels) != mesh.num_facets:
        problems.append(
            f"{mesh.num_facets} boundary facets but {len(mesh.facet_labels)} labels"
        )
    vols = cell_volumes(mesh)
    for c in np.nonzero(vols <= 0)[0]:
        problems.append(f"cell {c} is degenerate or misoriented (volume {vols[c]:.3e})")
    return problems + _boundary_problems(mesh)


def _boundary_problems(mesh: Mesh) -> list[str]:
    """The labeled facets must be exactly the hull: the facets of one cell only.

    A cell's facets are its vertex subsets of size dim (a segment's two
    nodes, a triangle's three edges), each keyed by one integer that does
    not depend on the order of its nodes.
    """
    facet, cell = ("endpoints", "segments") if mesh.dim == 1 else ("edges", "triangles")
    faces = np.concatenate([np.delete(mesh.cells, k, axis=1) for k in range(mesh.dim + 1)])
    keys, counts = np.unique(_facet_keys(faces, mesh.num_nodes), return_counts=True)
    hull = keys[counts == 1]
    listed = _facet_keys(mesh.boundary_facets, mesh.num_nodes)
    labeled = np.unique(listed)
    problems = []
    shared = np.count_nonzero(counts > 2)
    if shared:
        problems.append(f"{shared} {facet} shared by more than two {cell}")
    if labeled.size != listed.size:
        problems.append("duplicate boundary facet")
    missing = np.setdiff1d(hull, labeled).size
    extra = np.setdiff1d(labeled, hull).size
    if missing:
        problems.append(f"{missing} hull {facet} lack a boundary label")
    if extra:
        problems.append(f"{extra} labeled facets are not hull {facet}")
    return problems


def _facet_keys(facets: np.ndarray, num_nodes: int) -> np.ndarray:
    """One integer per facet row whatever its node order: lo * num_nodes + hi for an edge."""
    ordered = np.sort(facets, axis=1)
    return ordered @ num_nodes ** np.arange(ordered.shape[1])[::-1]
