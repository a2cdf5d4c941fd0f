"""Tests for mesh construction, labeling, and serialization."""

import numpy as np
import pytest

import wavetriple as wt
from wavetriple import mesh as meshmod
from wavetriple.mesh import BoundaryLabel as BL


def mixed_partition():
    return wt.PartitionSpec(
        {
            "left": (wt.Segment(BL.FIXED),),
            "right": (wt.Segment(BL.DAMPED),),
            "bottom": (wt.Segment(BL.FIXED, 0.0, 0.5), wt.Segment(BL.FREE, 0.5, 1.0)),
            "top": (wt.Segment(BL.ELASTIC),),
        }
    )


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


class TestRectangle:
    def test_counts(self):
        mesh = wt.rectangle_mesh(3, 2, wt.PartitionSpec.uniform(BL.FIXED))
        assert mesh.num_nodes == 4 * 3
        assert mesh.num_cells == 2 * 3 * 2
        assert mesh.num_facets == 2 * (3 + 2)
        wt.validate_mesh(mesh)

    def test_single_square(self):
        mesh = wt.rectangle_mesh(1, 1, wt.PartitionSpec.uniform(BL.FREE))
        assert mesh.num_nodes == 4 and mesh.num_cells == 2 and mesh.num_facets == 4

    def test_two_by_two_left_fixed(self):
        part = wt.PartitionSpec(
            {
                "left": (wt.Segment(BL.FIXED),),
                "right": (wt.Segment(BL.FREE),),
                "bottom": (wt.Segment(BL.FREE),),
                "top": (wt.Segment(BL.FREE),),
            }
        )
        mesh = wt.rectangle_mesh(2, 2, part)
        assert mesh.num_nodes == 9 and mesh.num_cells == 8
        fixed = [lab for lab in mesh.facet_labels if lab is BL.FIXED]
        assert len(fixed) == 2 and mesh.num_facets == 8
        # Left-side nodes 0, 3, 6 clamp; the rest of the boundary traces.
        assert meshmod.clamped_nodes(mesh).tolist() == [0, 3, 6]
        assert meshmod.trace_nodes(mesh).tolist() == [1, 2, 5, 7, 8]

    def test_triangle_orientation_positive(self):
        mesh = wt.rectangle_mesh(3, 3, wt.PartitionSpec.uniform(BL.FREE))
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
        part = wt.PartitionSpec(
            {
                "left": (wt.Segment(BL.FIXED),),
                "right": (wt.Segment(BL.FREE),),
                "bottom": (wt.Segment(BL.FIXED, 0.0, 0.3), wt.Segment(BL.FREE, 0.3, 1.0)),
                "top": (wt.Segment(BL.FREE),),
            }
        )
        with pytest.raises(wt.MeshValidationError, match="break point"):
            wt.rectangle_mesh(2, 2, part)

    def test_partition_must_tile(self):
        part = wt.PartitionSpec(
            {
                "left": (wt.Segment(BL.FIXED, 0.0, 0.5),),
                "right": (wt.Segment(BL.FREE),),
                "bottom": (wt.Segment(BL.FREE),),
                "top": (wt.Segment(BL.FREE),),
            }
        )
        with pytest.raises(wt.MeshValidationError):
            wt.rectangle_mesh(2, 2, part)

    def test_missing_side_rejected(self):
        part = wt.PartitionSpec({"left": (wt.Segment(BL.FIXED),)})
        with pytest.raises(wt.MeshValidationError):
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
        mesh = wt.rectangle_mesh(2, 2, wt.PartitionSpec.uniform(BL.FREE))
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
        mesh = wt.rectangle_mesh(1, 1, wt.PartitionSpec.uniform(BL.FREE))
        doubled = wt.Mesh(
            2,
            mesh.nodes,
            mesh.cells,
            np.vstack([mesh.boundary_facets, mesh.boundary_facets[:1]]),
            mesh.facet_labels + (BL.FREE,),
        )
        assert any("duplicate" in p for p in meshmod.mesh_problems(doubled))

    def test_validate_raises_joined_message(self):
        mesh = wt.interval_mesh(2)
        broken = wt.Mesh(1, mesh.nodes, mesh.cells, mesh.boundary_facets, (BL.FIXED,))
        with pytest.raises(wt.MeshValidationError):
            wt.validate_mesh(broken)

    def test_valid_mesh_has_no_problems(self):
        assert meshmod.mesh_problems(wt.interval_mesh(5)) == []
        square = wt.rectangle_mesh(4, 2, mixed_partition())
        assert meshmod.mesh_problems(square) == []

