"""Tests for the weighted field splitting and its orthogonality certificate."""

import numpy as np
import pytest

import models
import oracles
import wavetriple as wt
from wavetriple.mesh import boundary_nodes, cell_midpoints, cell_volumes


def unit_interval(n):
    mesh = wt.interval_mesh(n)
    return mesh, cell_midpoints(mesh)[:, 0]


def field_norm(geometry, field):
    return np.sqrt(wt.weighted_inner(geometry, field, field))


class TestWeightedInner:
    def test_unit_modulus_is_plain_l2(self):
        mesh, mid = unit_interval(4)
        geometry = wt.CellGeometry(mesh, wt.sample_coefficients(mesh))
        got = wt.weighted_inner(geometry, mid, mid)
        assert got == pytest.approx(np.sum(0.25 * mid * mid), rel=1e-14)

    def test_modulus_two_halves_the_product(self):
        mesh, mid = unit_interval(8)
        one = wt.CellGeometry(mesh, wt.sample_coefficients(mesh))
        two = wt.CellGeometry(mesh, wt.sample_coefficients(mesh, modulus=2.0))
        assert wt.weighted_inner(two, mid, mid) == pytest.approx(
            0.5 * wt.weighted_inner(one, mid, mid), rel=1e-14
        )

    def test_symmetric_and_positive(self):
        pencil = models.square_pencil(3, 3)
        rng = np.random.default_rng(5)
        f = rng.standard_normal((pencil.mesh.num_cells, 2))
        g = rng.standard_normal((pencil.mesh.num_cells, 2))
        geometry = wt.CellGeometry(pencil.mesh, pencil.coeffs)
        ip = wt.weighted_inner(geometry, f, g)
        assert ip == pytest.approx(wt.weighted_inner(geometry, g, f), rel=1e-14)
        assert wt.weighted_inner(geometry, f, f) > 0

    def test_rejects_wrong_shape(self):
        mesh, _ = unit_interval(4)
        geometry = wt.CellGeometry(mesh, wt.sample_coefficients(mesh))
        with pytest.raises(ValueError, match="shape"):
            wt.weighted_inner(geometry, np.ones(3), np.ones(3))


class TestIntervalSplit:
    def test_linear_field_unit_modulus(self):
        # f(x) = x against T = 1: the divergence-free remainder is the mean
        # and the gradient part is what is left.
        mesh, mid = unit_interval(64)
        coeffs = wt.sample_coefficients(mesh)
        grad, div = wt.decompose(wt.CellGeometry(mesh, coeffs), mid)
        assert np.abs(div - 0.5).max() <= 1e-10
        assert np.abs(grad[:, 0] - (mid - 0.5)).max() <= 1e-10

    def test_linear_field_modulus_two(self):
        mesh, mid = unit_interval(64)
        coeffs = wt.sample_coefficients(mesh, modulus=2.0)
        grad, div = wt.decompose(wt.CellGeometry(mesh, coeffs), mid)
        assert np.abs(div - 0.5).max() <= 1e-10
        assert np.abs(grad[:, 0] - (mid - 0.5)).max() <= 1e-10

    def test_variable_modulus_constant_from_weighted_mean(self):
        mesh, mid = unit_interval(32)
        tvals = 1.0 + mid
        coeffs = wt.sample_coefficients(mesh, modulus=lambda p: 1.0 + p[:, 0])
        want = oracles.weighted_mean(mid, tvals, cell_volumes(mesh))
        _, div = wt.decompose(wt.CellGeometry(mesh, coeffs), mid)
        assert np.abs(div - want).max() <= 1e-10

    def test_constant_field_has_no_gradient_part(self):
        mesh, _ = unit_interval(16)
        coeffs = wt.sample_coefficients(mesh)
        grad, div = wt.decompose(wt.CellGeometry(mesh, coeffs), np.full(16, 3.0))
        assert np.abs(grad).max() <= 1e-12
        assert np.abs(div - 3.0).max() <= 1e-12

    def test_gradient_input_reproduced(self):
        # T * p' for a potential vanishing at both ends lies in the range
        # of the projection, so the remainder must vanish.
        n = 40
        mesh, mid = unit_interval(n)
        coeffs = wt.sample_coefficients(mesh, modulus=lambda p: 2.0 + p[:, 0])
        nodes = mesh.nodes[:, 0]
        potential = nodes * (1.0 - nodes)
        slope = (potential[1:] - potential[:-1]) * n
        field = (2.0 + mid) * slope
        grad, div = wt.decompose(wt.CellGeometry(mesh, coeffs), field)
        assert np.abs(div).max() <= 1e-11
        assert np.abs(grad[:, 0] - field).max() <= 1e-11

    def test_flat_input_shape_accepted(self):
        mesh, mid = unit_interval(8)
        geometry = wt.CellGeometry(mesh, wt.sample_coefficients(mesh))
        flat = wt.decompose(geometry, mid)
        column = wt.decompose(geometry, mid[:, None])
        assert np.array_equal(flat[0], column[0])
        assert np.array_equal(flat[1], column[1])


class TestSplitProperties:
    def cases(self):
        """(geometry, field) pairs: a variable 1-D modulus, a square and a tensor."""
        mesh1, mid = unit_interval(24)
        coeffs1 = wt.sample_coefficients(mesh1, modulus=lambda p: 1.0 + p[:, 0])
        square = models.square_pencil(4, 4, seed=7)
        tensor_mesh = wt.rectangle_mesh(3, 5, models.square_partition())
        tensor_coeffs = wt.sample_coefficients(
            tensor_mesh, modulus=np.array([[2.0, 0.5], [0.5, 1.0]])
        )
        rng = np.random.default_rng(11)
        return [
            (wt.CellGeometry(mesh1, coeffs1), rng.standard_normal(mesh1.num_cells)),
            (
                wt.CellGeometry(square.mesh, square.coeffs),
                rng.standard_normal((square.mesh.num_cells, 2)),
            ),
            (
                wt.CellGeometry(tensor_mesh, tensor_coeffs),
                rng.standard_normal((tensor_mesh.num_cells, 2)),
            ),
        ]

    def test_reconstruction(self):
        for geometry, f in self.cases():
            grad, div = wt.decompose(geometry, f)
            full = np.asarray(f, dtype=float).reshape(grad.shape)
            assert np.abs(grad + div - full).max() <= 1e-13 * (1.0 + np.abs(full).max())

    def test_parts_are_orthogonal(self):
        for geometry, f in self.cases():
            grad, div = wt.decompose(geometry, f)
            cross = wt.weighted_inner(geometry, grad, div)
            assert abs(cross) <= 1e-10 * field_norm(geometry, f) ** 2

    def test_pythagoras(self):
        for geometry, f in self.cases():
            grad, div = wt.decompose(geometry, f)
            total = wt.weighted_inner(geometry, f, f)
            parts = wt.weighted_inner(geometry, grad, grad) + wt.weighted_inner(geometry, div, div)
            assert abs(total - parts) <= 1e-10 * total

    def test_projection_idempotent(self):
        for geometry, f in self.cases():
            grad, div = wt.decompose(geometry, f)
            grad2, rem = wt.decompose(geometry, grad)
            assert np.abs(rem).max() <= 1e-11 * (1.0 + np.abs(grad).max())
            assert np.abs(grad2 - grad).max() <= 1e-11 * (1.0 + np.abs(grad).max())
            grad3, div3 = wt.decompose(geometry, div)
            assert np.abs(grad3).max() <= 1e-11 * (1.0 + np.abs(div).max())
            assert np.abs(div3 - div).max() <= 1e-11 * (1.0 + np.abs(div).max())

    def test_linear(self):
        mesh, mid = unit_interval(16)
        geometry = wt.CellGeometry(mesh, wt.sample_coefficients(mesh))
        rng = np.random.default_rng(3)
        f, g = rng.standard_normal(16), rng.standard_normal(16)
        gf, df = wt.decompose(geometry, f)
        gg, dg = wt.decompose(geometry, g)
        gsum, dsum = wt.decompose(geometry, 2.0 * f - 3.0 * g)
        assert np.abs(gsum - (2.0 * gf - 3.0 * gg)).max() <= 1e-12 * np.abs(gsum).max()
        assert np.abs(dsum - (2.0 * df - 3.0 * dg)).max() <= 1e-12 * np.abs(dsum).max()


class TestOrthogonalityResidual:
    def test_divfree_part_passes(self):
        for geometry, f in TestSplitProperties().cases():
            _, div = wt.decompose(geometry, f)
            res = wt.orthogonality_residual(geometry.mesh, div)
            assert res <= 1e-11 * (1.0 + field_norm(geometry, f))

    def test_gradient_part_fails(self):
        mesh, mid = unit_interval(16)
        grad, _ = wt.decompose(wt.CellGeometry(mesh, wt.sample_coefficients(mesh)), mid)
        assert wt.orthogonality_residual(mesh, grad) > 1e-4

    def test_single_cell_everything_is_divfree(self):
        mesh = wt.interval_mesh(1)
        geometry = wt.CellGeometry(mesh, wt.sample_coefficients(mesh))
        grad, div = wt.decompose(geometry, np.array([4.0]))
        assert np.abs(grad).max() == 0.0
        assert div[0] == 4.0
        assert wt.orthogonality_residual(mesh, div) == 0.0


def reference_gradient_part(mesh, coeffs, field):
    """Dense reference: np.linalg.solve on the densified interior stiffness,
    with basis gradients from the inverse of each cell's vertex matrix."""
    f = np.asarray(field, dtype=float).reshape(mesh.num_cells, mesh.dim)
    pts = mesh.nodes[mesh.cells]
    vertex = np.concatenate([np.ones(pts.shape[:2] + (1,)), pts], axis=2)
    grads = np.linalg.inv(vertex)[:, 1:, :]
    vols = cell_volumes(mesh)
    tensors = coeffs.modulus
    if tensors.ndim == 1:
        tensors = tensors[:, None, None] * np.eye(mesh.dim)
    n = mesh.num_nodes
    stiff = np.zeros((n, n))
    local = vols[:, None, None] * np.einsum("cai,cab,cbj->cij", grads, tensors, grads)
    np.add.at(stiff, (mesh.cells[:, :, None], mesh.cells[:, None, :]), local)
    rhs = np.zeros(n)
    np.add.at(rhs, mesh.cells, vols[:, None] * np.einsum("ca,caj->cj", f, grads))
    interior = np.setdiff1d(np.arange(n), boundary_nodes(mesh))
    potential = np.zeros(n)
    potential[interior] = np.linalg.solve(stiff[np.ix_(interior, interior)], rhs[interior])
    grad_p = np.einsum("caj,cj->ca", grads, potential[mesh.cells])
    return np.einsum("cab,cb->ca", tensors, grad_p)


class TestSparseSolveReference:
    def test_matches_dense_reference_1d(self):
        mesh, mid = unit_interval(40)
        coeffs = wt.sample_coefficients(mesh, modulus=lambda p: 1.0 + p[:, 0] ** 2)
        field = np.sin(3.0 * mid) + mid
        got = wt.project_gradient(wt.CellGeometry(mesh, coeffs), field)
        want = reference_gradient_part(mesh, coeffs, field)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_dense_reference_2d(self):
        mesh = wt.rectangle_mesh(9, 7, models.square_partition())
        rng = np.random.default_rng(41)
        a = rng.uniform(-0.3, 0.3, (mesh.num_cells, 2, 2))
        tensors = a + np.swapaxes(a, 1, 2) + 1.5 * np.eye(2)
        for modulus in (lambda p: 1.0 + 0.5 * p[:, 0], tensors):
            coeffs = wt.sample_coefficients(mesh, modulus=modulus)
            field = rng.standard_normal((mesh.num_cells, 2))
            got = wt.project_gradient(wt.CellGeometry(mesh, coeffs), field)
            want = reference_gradient_part(mesh, coeffs, field)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestFieldChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_field_rejected(self, bad):
        mesh = wt.rectangle_mesh(3, 3, models.square_partition())
        geometry = wt.CellGeometry(mesh, wt.sample_coefficients(mesh))
        field = np.ones((mesh.num_cells, 2))
        field[4, 1] = bad
        with pytest.raises(wt.FieldError, match="not finite on 1 cell"):
            wt.decompose(geometry, field)

    def test_field_error_is_a_value_error(self):
        assert issubclass(wt.FieldError, ValueError)
        assert issubclass(wt.FieldError, wt.WavetripleError)
