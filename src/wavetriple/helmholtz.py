"""Weighted Helmholtz splitting of cellwise-constant vector fields.

Any L2 vector field splits into a modulus-weighted gradient of a potential
vanishing on the whole boundary, plus a divergence-free remainder; the two
parts are orthogonal in the inner product weighted by the inverse modulus.
Discretely the potential is piecewise linear and zero at every boundary
node, so its weighted gradient is cellwise constant like the input.  The
potential solve is sparse: assembly gives the modulus tensors, the
stiffness, its interior block (on the sparsity pattern of the interior
nodes) and the gradient operator, and sparse LU factors the block.
"""

from __future__ import annotations

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


def _interior(mesh: Mesh) -> np.ndarray:
    inside = np.ones(mesh.num_nodes, dtype=bool)
    inside[mesh.boundary_facets] = False
    return np.flatnonzero(inside)


def _paired(mesh: Mesh, grad_op, field: np.ndarray) -> np.ndarray:
    """Nodal vector of sum_c vol_c field_c . grad(phi_j), one entry per node j."""
    return grad_op.T @ (cell_volumes(mesh)[:, None] * field).ravel()


def weighted_inner(
    mesh: Mesh, coeffs: CoefficientSet, first: np.ndarray, second: np.ndarray
) -> float:
    """Inner product sum_c vol_c * first_c . modulus_c^{-1} second_c.

    A result that overflows float64 is a FieldError.
    """
    f = _as_field(mesh, first)
    g = _as_field(mesh, second)
    tinv = np.linalg.inv(modulus_tensors(mesh, coeffs.modulus))
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.einsum("c,cab,ca,cb->", cell_volumes(mesh), tinv, f, g))
    if not np.isfinite(value):
        raise FieldError(f"inner product {value} is not finite: it overflows float64")
    return value


def project_gradient(mesh: Mesh, coeffs: CoefficientSet, field: np.ndarray) -> np.ndarray:
    """Weighted-gradient component of a cellwise field.

    Solves the potential problem with the modulus-weighted stiffness on
    nodes interior to the whole boundary and returns modulus * grad(p).
    """
    f = _as_field(mesh, field)
    grad_op = gradient_operator(mesh)
    interior = _interior(mesh)
    potential = np.zeros(mesh.num_nodes)
    if interior.size:
        pattern = _Pattern(mesh, interior)
        stiff = pattern.csr(pattern.sum(_stiffness_local(mesh, coeffs.modulus), pattern.cells))
        # The pattern holds a slot per cell triplet; free it before the LU.
        del pattern
        rhs = _paired(mesh, grad_op, f)[interior]
        potential[interior] = linalg.LuFactorization(stiff).solve(rhs)
    grad_p = (grad_op @ potential).reshape(mesh.num_cells, mesh.dim)
    return np.einsum("cab,cb->ca", modulus_tensors(mesh, coeffs.modulus), grad_p)


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
    paired = _paired(mesh, gradient_operator(mesh), k)
    return float(np.max(np.abs(paired[interior])))


def decompose(
    mesh: Mesh, coeffs: CoefficientSet, field: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split a field into (weighted gradient part, divergence-free part).

    The parts sum to the input exactly by construction and are orthogonal
    in the inverse-modulus inner product to solver precision.  A field of
    the wrong shape or with a non-finite value is a FieldError.
    """
    f = _as_field(mesh, field)
    grad_part = project_gradient(mesh, coeffs, f)
    return grad_part, f - grad_part
