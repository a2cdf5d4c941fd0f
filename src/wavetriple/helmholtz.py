"""Weighted Helmholtz splitting of cellwise-constant vector fields.

Any L2 vector field splits into a modulus-weighted gradient of a potential
vanishing on the whole boundary, plus a divergence-free remainder; the two
parts are orthogonal in the inner product weighted by the inverse modulus.
Discretely the potential is piecewise linear and zero at every boundary
node, so its weighted gradient is cellwise constant like the input.  The
potential solve is sparse: assembly gives the modulus tensors, the
stiffness, its interior block (on the sparsity pattern of the interior
nodes) and the gradient operator.  The block is symmetric positive
definite, so linalg.LuFactorization factors it in SuperLU's symmetric
mode (minimum degree on A + A^T, diagonal pivots), with about half the
fill of the default ordering.  A CellGeometry passed to decompose and
weighted_inner computes the cell volumes, the modulus tensors, their
inverses and the gradient operator once for all of them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .assembly import _Pattern, _stiffness_local, gradient_operator, modulus_tensors
from .coefficients import CoefficientSet
from .errors import FieldError
from .mesh import Mesh, cell_midpoints, cell_volumes


def _as_field(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    arr = np.asarray(field, dtype=float)
    want = (mesh.num_cells, mesh.dim)
    if mesh.dim == 1 and arr.shape == (mesh.num_cells,):
        arr = arr[:, None]
    if arr.shape != want:
        raise FieldError(f"field must have shape {want}, got {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise FieldError(
            f"field is not finite on {bad.size} cell(s), "
            f"first at midpoint {cell_midpoints(mesh)[bad[0]].tolist()}"
        )
    return arr


class CellGeometry:
    """Cell data of one mesh and modulus, each computed on first use and kept.

    Every value equals a fresh computation bit for bit, so sharing one
    geometry among calls on the same mesh and coefficients changes no
    result, only how often it is computed.
    """

    def __init__(self, mesh: Mesh, coeffs: CoefficientSet):
        self.mesh, self.modulus = mesh, coeffs.modulus

    @cached_property
    def volumes(self) -> np.ndarray:
        return cell_volumes(self.mesh)

    @cached_property
    def tensors(self) -> np.ndarray:
        return modulus_tensors(self.mesh, self.modulus)

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.tensors)

    @cached_property
    def gradient(self):
        return gradient_operator(self.mesh, self.volumes)


def _interior(mesh: Mesh) -> np.ndarray:
    inside = np.ones(mesh.num_nodes, dtype=bool)
    inside[mesh.boundary_facets] = False
    return np.flatnonzero(inside)


def _paired(grad_op, vols: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Nodal vector of sum_c vol_c field_c . grad(phi_j), one entry per node j."""
    return grad_op.T @ (vols[:, None] * field).ravel()


def weighted_inner(
    mesh: Mesh,
    coeffs: CoefficientSet,
    first: np.ndarray,
    second: np.ndarray,
    geometry: CellGeometry | None = None,
) -> float:
    """Inner product sum_c vol_c * first_c . modulus_c^{-1} second_c.

    geometry, when given, is CellGeometry(mesh, coeffs); otherwise one is
    built for this call.  A result that overflows float64 is a FieldError.
    """
    f = _as_field(mesh, first)
    g = _as_field(mesh, second)
    geo = geometry if geometry is not None else CellGeometry(mesh, coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.einsum("c,cab,ca,cb->", geo.volumes, geo.inverse, f, g))
    if not np.isfinite(value):
        raise FieldError(f"inner product {value} is not finite: it overflows float64")
    return value


def project_gradient(
    mesh: Mesh,
    coeffs: CoefficientSet,
    field: np.ndarray,
    geometry: CellGeometry | None = None,
) -> np.ndarray:
    """Weighted-gradient component of a cellwise field.

    Solves the potential problem with the modulus-weighted stiffness on
    nodes interior to the whole boundary and returns modulus * grad(p).
    geometry is as in weighted_inner.
    """
    f = _as_field(mesh, field)
    geo = geometry if geometry is not None else CellGeometry(mesh, coeffs)
    grad_op = geo.gradient
    interior = _interior(mesh)
    potential = np.zeros(mesh.num_nodes)
    if interior.size:
        pattern = _Pattern(mesh, interior)
        local = _stiffness_local(mesh, geo.volumes, geo.tensors)
        stiff = pattern.csr(pattern.sum(local, pattern.cells))
        # The pattern holds a slot per cell triplet; free it before the LU.
        del pattern, local
        rhs = _paired(grad_op, geo.volumes, f)[interior]
        potential[interior] = linalg.LuFactorization(stiff).solve(rhs)
    grad_p = (grad_op @ potential).reshape(mesh.num_cells, mesh.dim)
    return np.einsum("cab,cb->ca", geo.tensors, grad_p)


def orthogonality_residual(mesh: Mesh, divfree: np.ndarray) -> float:
    """Largest pairing of a divergence-free part with a test gradient.

    Test potentials run over the nodal basis interior to the whole
    boundary; the unweighted pairing <k, grad(phi_j)> equals the weighted
    one against the weighted gradient, so one number covers both.
    """
    k = _as_field(mesh, divfree)
    interior = _interior(mesh)
    if interior.size == 0:
        return 0.0
    vols = cell_volumes(mesh)
    paired = _paired(gradient_operator(mesh, vols), vols, k)
    return float(np.max(np.abs(paired[interior])))


def decompose(
    mesh: Mesh,
    coeffs: CoefficientSet,
    field: np.ndarray,
    geometry: CellGeometry | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a field into (weighted gradient part, divergence-free part).

    The parts sum to the input exactly by construction and are orthogonal
    in the inverse-modulus inner product to solver precision.  A field of
    the wrong shape or with a non-finite value is a FieldError.  geometry
    is as in weighted_inner.
    """
    f = _as_field(mesh, field)
    grad_part = project_gradient(mesh, coeffs, f, geometry)
    return grad_part, f - grad_part
