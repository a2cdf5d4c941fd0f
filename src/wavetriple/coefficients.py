"""Cellwise and facetwise material data for a wave model.

Interior fields (modulus, density, reaction, damping) are constant on each
cell, sampled at cell midpoints.  Boundary fields (spring and damper
coefficients) are constant on each boundary facet, sampled at facet
midpoints, and forced to zero on facets whose label does not use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoefficientError, DegenerateEnergyNormError
from .mesh import BoundaryLabel, Mesh, cell_midpoints, facet_measures, facet_midpoints


@dataclass(frozen=True)
class CoefficientSet:
    """Sampled material data tied to one mesh.

    modulus: (ncell,) scalars, or (ncell, 2, 2) symmetric tensors in 2-D.
    density, reaction, damping: (ncell,) scalars.
    boundary_stiffness, boundary_damping: (nf,) per-facet values.
    bound: two-sided ellipticity constant; modulus and density eigenvalues
    lie in [1/bound, bound].
    """

    modulus: np.ndarray
    density: np.ndarray
    reaction: np.ndarray
    damping: np.ndarray
    boundary_stiffness: np.ndarray
    boundary_damping: np.ndarray
    bound: float

    @property
    def damping_active(self) -> bool:
        """True when some boundary facet carries a positive damper coefficient."""
        return bool(np.any(self.boundary_damping > 0.0))


def _sample_cellwise(name: str, value, points: np.ndarray) -> np.ndarray:
    m = points.shape[0]
    if callable(value):
        out = np.asarray(value(points), dtype=float)
    else:
        out = np.asarray(value, dtype=float)
        if out.ndim == 0:
            out = np.full(m, float(out))
        elif out.shape == (2, 2):
            out = np.broadcast_to(out, (m, 2, 2)).copy()
    if out.shape not in ((m,), (m, 2, 2)):
        raise CoefficientError(f"{name}: expected {m} samples, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise CoefficientError(f"{name}: non-finite sample")
    return out


def _sample_facetwise(name: str, value, mesh: Mesh, use_mask: np.ndarray) -> np.ndarray:
    mids = facet_midpoints(mesh)
    if value is None:
        out = np.zeros(mesh.num_facets)
    elif isinstance(value, dict):
        out = np.zeros(mesh.num_facets)
        for key, val in value.items():
            lab = key if isinstance(key, BoundaryLabel) else BoundaryLabel(key)
            sel = np.array([fl is lab for fl in mesh.facet_labels])
            if callable(val):
                out[sel] = np.asarray(val(mids[sel]), dtype=float)
            else:
                out[sel] = float(val)
    elif callable(value):
        out = np.asarray(value(mids), dtype=float)
    else:
        arr = np.asarray(value, dtype=float)
        out = np.full(mesh.num_facets, float(arr)) if arr.ndim == 0 else arr
    if out.shape != (mesh.num_facets,):
        raise CoefficientError(f"{name}: expected {mesh.num_facets} facet values")
    if not np.all(np.isfinite(out)):
        raise CoefficientError(f"{name}: non-finite sample")
    out = np.where(use_mask, out, 0.0)
    if out.size and out.min() < 0:
        raise CoefficientError(f"{name}: negative value {out.min():.3e} on an applicable facet")
    return out


def _modulus_range(modulus: np.ndarray) -> tuple[float, float]:
    """Smallest and largest modulus value.

    Scalar samples count as they are; (ncell, 2, 2) tensors count through
    the eigenvalues of their symmetric part.
    """
    if modulus.ndim == 3:
        eigs = np.linalg.eigvalsh(0.5 * (modulus + np.swapaxes(modulus, 1, 2)))
        return eigs.min(), eigs.max()
    return modulus.min(), modulus.max()


def _facet_masks(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the facets whose label takes a spring, and a damper."""
    spring = np.array([lab.has_spring for lab in mesh.facet_labels], dtype=bool)
    damper = np.array([lab.has_damper for lab in mesh.facet_labels], dtype=bool)
    return spring, damper


def sample_coefficients(
    mesh: Mesh,
    modulus=1.0,
    density=1.0,
    reaction=0.0,
    damping=0.0,
    boundary_stiffness=None,
    boundary_damping=None,
) -> CoefficientSet:
    """Midpoint-sample coefficient data onto a mesh.

    Each interior argument is a constant, a callable on (m, dim) midpoint
    arrays, or (for the modulus in 2-D) a constant 2x2 tensor or a callable
    returning (m, 2, 2).  Boundary arguments may additionally be a dict
    keyed by BoundaryLabel.  The ellipticity bound is computed from the
    samples and stored on the result.
    """
    mids = cell_midpoints(mesh)
    t = _sample_cellwise("modulus", modulus, mids)
    rho = _sample_cellwise("density", density, mids)
    if rho.ndim != 1:
        raise CoefficientError("density must be scalar-valued")
    a = _sample_cellwise("reaction", reaction, mids)
    b = _sample_cellwise("damping", damping, mids)
    if a.ndim != 1 or b.ndim != 1:
        raise CoefficientError("reaction and damping must be scalar-valued")
    if t.ndim == 3 and mesh.dim == 1:
        raise CoefficientError("tensor modulus requires a 2-D mesh")

    spring_mask, damper_mask = _facet_masks(mesh)
    k1 = _sample_facetwise("boundary_stiffness", boundary_stiffness, mesh, spring_mask)
    k2 = _sample_facetwise("boundary_damping", boundary_damping, mesh, damper_mask)

    if t.ndim == 3:
        sym = 0.5 * (t + np.swapaxes(t, 1, 2))
        if np.abs(t - sym).max() > 1e-12 * max(np.abs(t).max(), 1.0):
            raise CoefficientError("tensor modulus must be symmetric")
    t_lo, t_hi = _modulus_range(t)
    if t_lo <= 0:
        raise CoefficientError(f"modulus must be positive, min eigenvalue {t_lo:.3e}")
    if rho.min() <= 0:
        raise CoefficientError(f"density must be positive, min {rho.min():.3e}")
    bound = max(t_hi, 1.0 / t_lo, rho.max(), 1.0 / rho.min(), 1.0)
    return CoefficientSet(t, rho, a, b, k1, k2, float(bound))


# What validate_model and assemble_pencil say when energy_anchored is False.
DEGENERATE_ENERGY = "degenerate energy norm: no fixed boundary portion and no boundary spring"


def energy_anchored(mesh: Mesh, coeffs: CoefficientSet) -> bool:
    """The degenerate-energy rule: True when the energy form is anchored.

    A fixed facet or a boundary spring of nonzero total mass keeps the
    constants out of the kernel of the displacement energy form; with
    neither, the energy norm is degenerate.
    """
    if any(lab is BoundaryLabel.FIXED for lab in mesh.facet_labels):
        return True
    return float(np.sum(coeffs.boundary_stiffness * facet_measures(mesh))) != 0.0


def validate_model(mesh: Mesh, coeffs: CoefficientSet) -> bool:
    """Check the model's standing assumptions; return True if damping acts.

    Raises CoefficientError for shape, sign, or bound violations, and
    DegenerateEnergyNormError when there is neither a clamped boundary
    portion nor a nonzero boundary spring (the energy form then has the
    constants in its kernel).  The return value is coeffs.damping_active.
    """
    ncell, nf = mesh.num_cells, mesh.num_facets
    if coeffs.density.shape != (ncell,) or coeffs.reaction.shape != (ncell,):
        raise CoefficientError("cellwise field has wrong length")
    if coeffs.damping.shape != (ncell,):
        raise CoefficientError("cellwise field has wrong length")
    if coeffs.modulus.shape not in ((ncell,), (ncell, 2, 2)):
        raise CoefficientError("modulus has wrong shape")
    if coeffs.boundary_stiffness.shape != (nf,) or coeffs.boundary_damping.shape != (nf,):
        raise CoefficientError("facetwise field has wrong length")
    c = coeffs.bound
    if not (np.isfinite(c) and c >= 1.0):
        raise CoefficientError(f"ellipticity bound must be finite and >= 1, got {c}")
    for name, lo, hi in (
        ("modulus", *_modulus_range(coeffs.modulus)),
        ("density", coeffs.density.min(), coeffs.density.max()),
    ):
        if lo < 1.0 / c - 1e-15 * c or hi > c * (1 + 1e-15):
            raise CoefficientError(f"{name} leaves [{1/c:.3e}, {c:.3e}]")
    if coeffs.boundary_stiffness.min() < 0:
        raise CoefficientError("boundary stiffness must be nonnegative")
    if coeffs.boundary_damping.min() < 0:
        raise CoefficientError("boundary damping must be nonnegative")

    # Springs and dampers only act where the facet label allows them.
    spring_mask, damper_mask = _facet_masks(mesh)
    if nf and np.any(coeffs.boundary_stiffness[~spring_mask] != 0.0):
        raise CoefficientError("boundary stiffness set on a facet without a spring label")
    if nf and np.any(coeffs.boundary_damping[~damper_mask] != 0.0):
        raise CoefficientError("boundary damping set on a facet without a damper label")

    if not energy_anchored(mesh, coeffs):
        raise DegenerateEnergyNormError(DEGENERATE_ENERGY)
    return coeffs.damping_active
