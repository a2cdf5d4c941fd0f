"""Tests for mesh construction, labeling, and serialization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import models
import wavetriple as wt
from wavetriple import mesh as meshmod
from wavetriple.mesh import BoundaryLabel as BL


def mixed_partition():
    return {
        "left": (wt.Segment(BL.FIXED),),
        "right": (wt.Segment(BL.DAMPED),),
        "bottom": (wt.Segment(BL.FIXED, 0.0, 0.5), wt.Segment(BL.FREE, 0.5, 1.0)),
        "top": (wt.Segment(BL.ELASTIC),),
    }


def split_partition():
    """Breaks at 1/2 on three sides, one of them off the corner by less than SNAP_TOL."""
    return {
        "left": (
            wt.Segment(BL.FIXED, 0.0, 0.5 - 1e-10),
            wt.Segment(BL.ELASTIC_DAMPED, 0.5 - 1e-10, 1.0),
        ),
        "right": (wt.Segment(BL.DAMPED),),
        "bottom": (wt.Segment(BL.FREE, 0.0, 0.5), wt.Segment(BL.ELASTIC, 0.5, 1.0)),
        "top": (wt.Segment(BL.DAMPED, 0.0, 0.5), wt.Segment(BL.FIXED, 0.5, 1.0)),
    }


def loop_rectangle_mesh(nx, ny, partition):
    """Cells, facets and labels built square by square and edge by edge.

    This is the construction rectangle_mesh replaced with grid slicing,
    kept as the reference its arrays must match bit for bit.
    """

    def nid(i, j):
        return i + j * (nx + 1)

    cells = []
    for j in range(ny):
        for i in range(nx):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            cells.append((a, b, c))
            cells.append((a, c, d))
    side_edges = {
        "bottom": [((nid(i, 0), nid(i + 1, 0)), i / nx, (i + 1) / nx) for i in range(nx)],
        "top": [((nid(i, ny), nid(i + 1, ny)), i / nx, (i + 1) / nx) for i in range(nx)],
        "left": [((nid(0, j), nid(0, j + 1)), j / ny, (j + 1) / ny) for j in range(ny)],
        "right": [((nid(nx, j), nid(nx, j + 1)), j / ny, (j + 1) / ny) for j in range(ny)],
    }
    facets, labels = [], []
    for side in meshmod.SIDES:
        segs = partition[side]
        for edge, lo, hi in side_edges[side]:
            mid = 0.5 * (lo + hi)
            tol = meshmod.SNAP_TOL
            seg = next(s for s in segs if s.start - tol <= mid <= s.stop + tol)
            facets.append(edge)
            labels.append(seg.label)
    return np.array(cells), np.array(facets), tuple(labels)


def per_dimension_problems(mesh):
    """The separate 1-D and 2-D boundary checks that _boundary_problems replaced."""
    problems = []
    if mesh.dim == 1:
        degree = np.zeros(mesh.num_nodes, dtype=int)
        np.add.at(degree, mesh.cells.ravel(), 1)
        expected = set(np.nonzero(degree == 1)[0].tolist())
        listed = [int(f[0]) for f in mesh.boundary_facets]
        if len(set(listed)) != len(listed):
            problems.append("duplicate boundary facet")
        if set(listed) != expected:
            problems.append(
                f"boundary facets {sorted(set(listed))} do not match endpoints {sorted(expected)}"
            )
        return problems
    count = {}
    for tri in mesh.cells:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            count[key] = count.get(key, 0) + 1
    hull = {e for e, c in count.items() if c == 1}
    bad = [e for e, c in count.items() if c > 2]
    if bad:
        problems.append(f"{len(bad)} edges shared by more than two triangles")
    listed = [(min(a, b), max(a, b)) for a, b in mesh.boundary_facets]
    if len(set(listed)) != len(listed):
        problems.append("duplicate boundary facet")
    missing = hull - set(listed)
    extra = set(listed) - hull
    if missing:
        problems.append(f"{len(missing)} hull edges lack a boundary label")
    if extra:
        problems.append(f"{len(extra)} labeled facets are not hull edges")
    return problems


class TestInterval:
    def test_counts_and_coordinates(self):
        mesh = wt.interval_mesh(4)
        assert mesh.num_nodes == 5 and mesh.num_cells == 4 and mesh.num_facets == 2
        assert np.allclose(mesh.nodes[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
        wt.validate_mesh(mesh)

    def test_labels_drive_node_classification(self):
        mesh = wt.interval_mesh(8, left=BL.FIXED, right=BL.DAMPED)
        assert meshmod.clamped_nodes(mesh).tolist() == [0]
        assert meshmod.active_nodes(mesh).tolist() == list(range(1, 9))
        assert meshmod.trace_nodes(mesh).tolist() == [8]
        both = wt.interval_mesh(8)
        assert meshmod.trace_nodes(both).size == 0

    def test_unit_measures(self):
        mesh = wt.interval_mesh(3)
        assert meshmod.facet_measures(mesh).tolist() == [1.0, 1.0]

    def test_midpoints(self):
        mesh = wt.interval_mesh(4)
        mids = meshmod.cell_midpoints(mesh)
        assert np.allclose(mids[:, 0], [0.125, 0.375, 0.625, 0.875])

    def test_needs_a_cell(self):
        with pytest.raises(wt.MeshValidationError):
            wt.interval_mesh(0)

    @pytest.mark.parametrize("n", [2**60, 2**63 - 1, 10**20], ids=["2^60", "2^63-1", "1e20"])
    def test_unaddressable_node_array_is_refused(self, n):
        with pytest.raises(wt.MeshValidationError, match="more than numpy can address"):
            wt.interval_mesh(n)

    def test_unaddressable_square_is_refused(self):
        with pytest.raises(wt.MeshValidationError, match="more than numpy can address"):
            wt.rectangle_mesh(10**10, 10**10, models.square_partition())


class TestRectangle:
    def test_counts(self):
        mesh = wt.rectangle_mesh(3, 2, models.uniform_sides(BL.FIXED))
        assert mesh.num_nodes == 4 * 3
        assert mesh.num_cells == 2 * 3 * 2
        assert mesh.num_facets == 2 * (3 + 2)
        wt.validate_mesh(mesh)

    def test_single_square(self):
        mesh = wt.rectangle_mesh(1, 1, models.uniform_sides(BL.FREE))
        assert mesh.num_nodes == 4 and mesh.num_cells == 2 and mesh.num_facets == 4

    def test_two_by_two_left_fixed(self):
        part = {
            "left": (wt.Segment(BL.FIXED),),
            "right": (wt.Segment(BL.FREE),),
            "bottom": (wt.Segment(BL.FREE),),
            "top": (wt.Segment(BL.FREE),),
        }
        mesh = wt.rectangle_mesh(2, 2, part)
        assert mesh.num_nodes == 9 and mesh.num_cells == 8
        fixed = [lab for lab in mesh.facet_labels if lab is BL.FIXED]
        assert len(fixed) == 2 and mesh.num_facets == 8
        # Left-side nodes 0, 3, 6 clamp; the rest of the boundary traces.
        assert meshmod.clamped_nodes(mesh).tolist() == [0, 3, 6]
        assert meshmod.trace_nodes(mesh).tolist() == [1, 2, 5, 7, 8]

    def test_triangle_orientation_positive(self):
        mesh = wt.rectangle_mesh(3, 3, models.uniform_sides(BL.FREE))
        assert meshmod.cell_volumes(mesh).min() > 0
        assert np.isclose(meshmod.cell_volumes(mesh).sum(), 1.0)

    def test_measures_per_label_sum_to_boundary(self):
        mesh = wt.rectangle_mesh(4, 3, mixed_partition())
        measures = meshmod.facet_measures(mesh)
        totals = {}
        for lab, size in zip(mesh.facet_labels, measures):
            totals[lab] = totals.get(lab, 0.0) + size
        assert abs(sum(totals.values()) - 4.0) < 1e-12
        assert abs(totals[BL.FIXED] - 1.5) < 1e-12
        assert abs(totals[BL.FREE] - 0.5) < 1e-12
        assert abs(totals[BL.DAMPED] - 1.0) < 1e-12
        assert abs(totals[BL.ELASTIC] - 1.0) < 1e-12

    def test_partition_break_must_hit_corner(self):
        part = {
            "left": (wt.Segment(BL.FIXED),),
            "right": (wt.Segment(BL.FREE),),
            "bottom": (wt.Segment(BL.FIXED, 0.0, 0.3), wt.Segment(BL.FREE, 0.3, 1.0)),
            "top": (wt.Segment(BL.FREE),),
        }
        with pytest.raises(wt.MeshValidationError, match="break point"):
            wt.rectangle_mesh(2, 2, part)

    def test_partition_must_tile(self):
        part = {
            "left": (wt.Segment(BL.FIXED, 0.0, 0.5),),
            "right": (wt.Segment(BL.FREE),),
            "bottom": (wt.Segment(BL.FREE),),
            "top": (wt.Segment(BL.FREE),),
        }
        with pytest.raises(wt.MeshValidationError):
            wt.rectangle_mesh(2, 2, part)

    def test_missing_side_rejected(self):
        part = {"left": (wt.Segment(BL.FIXED),)}
        with pytest.raises(wt.MeshValidationError):
            wt.rectangle_mesh(2, 2, part)

    @pytest.mark.parametrize(
        "nx, ny, layout",
        [(1, 1, "uniform"), (3, 5, "uniform")]
        + [
            (nx, ny, layout)  # mixed and split break at 1/2: nx and ny even
            for nx, ny in [(2, 2), (4, 6), (6, 4), (8, 12), (64, 64)]
            for layout in ("uniform", "mixed", "split")
        ],
    )
    def test_arrays_match_the_loop_construction(self, nx, ny, layout):
        partition = {
            "uniform": models.uniform_sides(BL.ELASTIC),
            "mixed": mixed_partition(),
            "split": split_partition(),
        }[layout]
        mesh = wt.rectangle_mesh(nx, ny, partition)
        cells, facets, labels = loop_rectangle_mesh(nx, ny, partition)
        for got, want in ((mesh.cells, cells), (mesh.boundary_facets, facets)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert mesh.facet_labels == labels

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["break", "start", "stop"])
    def test_nonfinite_segment_bound_rejected(self, bad, where):
        bottom = {
            "break": (wt.Segment(BL.FIXED, 0.0, bad), wt.Segment(BL.FREE, bad, 1.0)),
            "start": (wt.Segment(BL.FIXED, bad, 1.0),),
            "stop": (wt.Segment(BL.FIXED, 0.0, bad),),
        }[where]
        part = {**models.uniform_sides(BL.FREE), "bottom": bottom}
        with pytest.raises(wt.MeshValidationError, match="side 'bottom'"):
            wt.rectangle_mesh(2, 2, part)

    def test_corner_between_fixed_and_damped_clamps(self):
        mesh = wt.rectangle_mesh(2, 2, mixed_partition())
        clamped = set(meshmod.clamped_nodes(mesh).tolist())
        # Node 6 is the top-left corner: left side is fixed, top is elastic.
        assert 6 in clamped
        assert 6 not in set(meshmod.trace_nodes(mesh).tolist())


class TestValidation:
    def test_out_of_range_index(self):
        mesh = wt.interval_mesh(2)
        broken = wt.Mesh(1, mesh.nodes, np.array([[0, 9]]), mesh.boundary_facets, mesh.facet_labels)
        assert any("out of range" in p for p in meshmod.mesh_problems(broken))

    def test_degenerate_cell(self):
        mesh = wt.interval_mesh(2)
        cells = np.array([[0, 1], [2, 1]])
        broken = wt.Mesh(1, mesh.nodes, cells, mesh.boundary_facets, mesh.facet_labels)
        assert any("degenerate" in p for p in meshmod.mesh_problems(broken))

    def test_label_count_mismatch(self):
        mesh = wt.interval_mesh(2)
        broken = wt.Mesh(1, mesh.nodes, mesh.cells, mesh.boundary_facets, (BL.FIXED,))
        assert any("labels" in p for p in meshmod.mesh_problems(broken))

    def test_interval_endpoints_must_be_listed(self):
        mesh = wt.interval_mesh(2)
        broken = wt.Mesh(1, mesh.nodes, mesh.cells, np.array([[0], [1]]), (BL.FIXED, BL.FIXED))
        assert any("endpoints" in p for p in meshmod.mesh_problems(broken))

    def test_hull_edge_coverage(self):
        mesh = wt.rectangle_mesh(2, 2, models.uniform_sides(BL.FREE))
        short = wt.Mesh(
            2, mesh.nodes, mesh.cells, mesh.boundary_facets[:-1], mesh.facet_labels[:-1]
        )
        assert any("hull edges lack" in p for p in meshmod.mesh_problems(short))
        interior_edge = np.vstack([mesh.boundary_facets, [[0, 4]]])
        extra = wt.Mesh(
            2, mesh.nodes, mesh.cells, interior_edge, mesh.facet_labels + (BL.FREE,)
        )
        assert any("not hull edges" in p for p in meshmod.mesh_problems(extra))

    def test_duplicate_facet(self):
        mesh = wt.rectangle_mesh(1, 1, models.uniform_sides(BL.FREE))
        doubled = wt.Mesh(
            2,
            mesh.nodes,
            mesh.cells,
            np.vstack([mesh.boundary_facets, mesh.boundary_facets[:1]]),
            mesh.facet_labels + (BL.FREE,),
        )
        assert any("duplicate" in p for p in meshmod.mesh_problems(doubled))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_duplicated_cell_shares_facets_three_ways(self, dim):
        mesh = wt.interval_mesh(3) if dim == 1 else wt.rectangle_mesh(2, 2, mixed_partition())
        doubled = wt.Mesh(
            dim,
            mesh.nodes,
            np.vstack([mesh.cells, mesh.cells[1:2]]),
            mesh.boundary_facets,
            mesh.facet_labels,
        )
        # The middle segment's two nodes; the second triangle's diagonal and top edge.
        want = "2 endpoints shared by more than two segments" if dim == 1 else (
            "2 edges shared by more than two triangles"
        )
        assert want in meshmod.mesh_problems(doubled)

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        nx=st.integers(1, 5),
        ny=st.integers(1, 5),
        corruption=st.sampled_from(
            [None, "drop", "duplicate", "reverse", "permute", "interior"]
        ),
        data=st.data(),
    )
    def test_one_check_agrees_with_the_per_dimension_checks(
        self, dim, nx, ny, corruption, data
    ):
        mesh = wt.interval_mesh(nx) if dim == 1 else wt.rectangle_mesh(
            nx, ny, models.uniform_sides(BL.FREE)
        )
        facets, labels = mesh.boundary_facets, list(mesh.facet_labels)
        k = data.draw(st.integers(0, len(labels) - 1))
        if corruption == "drop":
            facets, labels = np.delete(facets, k, axis=0), labels[:k] + labels[k + 1:]
        elif corruption == "duplicate":
            facets, labels = np.vstack([facets, facets[k:k + 1]]), labels + [labels[k]]
        elif corruption == "reverse":
            facets = facets.copy()
            facets[k] = facets[k, ::-1]
        elif corruption == "permute":
            order = data.draw(st.permutations(range(len(labels))))
            facets, labels = facets[order], [labels[i] for i in order]
        elif corruption == "interior":
            # An interior node in 1-D; a square's diagonal in 2-D.
            assume(dim == 2 or nx > 1)
            lower = mesh.cells[::2][data.draw(st.integers(0, mesh.num_cells // 2 - 1))]
            inner = [[data.draw(st.integers(1, nx - 1))]] if dim == 1 else [lower[[0, 2]]]
            facets, labels = np.vstack([facets, inner]), labels + [BL.FREE]
        broken = wt.Mesh(dim, mesh.nodes, mesh.cells, facets, tuple(labels))
        got, want = meshmod.mesh_problems(broken), per_dimension_problems(broken)
        assert bool(got) == bool(want)
        assert any("duplicate" in p for p in got) == any("duplicate" in p for p in want)
        if dim == 2:
            assert got == want
        if corruption in (None, "reverse", "permute"):
            assert got == []

    def test_validate_raises_joined_message(self):
        mesh = wt.interval_mesh(2)
        broken = wt.Mesh(1, mesh.nodes, mesh.cells, mesh.boundary_facets, (BL.FIXED,))
        with pytest.raises(wt.MeshValidationError):
            wt.validate_mesh(broken)

    def test_valid_mesh_has_no_problems(self):
        assert meshmod.mesh_problems(wt.interval_mesh(5)) == []
        square = wt.rectangle_mesh(4, 2, mixed_partition())
        assert meshmod.mesh_problems(square) == []

