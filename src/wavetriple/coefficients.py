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
    sample_coefficients checks the standing assumptions on these arrays,
    and validate_model checks them again on a set built by hand.
    """

    modulus: np.ndarray
    density: np.ndarray
    reaction: np.ndarray
    damping: np.ndarray
    boundary_stiffness: np.ndarray
    boundary_damping: np.ndarray

    @property
    def damping_active(self) -> bool:
        """True when some boundary facet carries a positive damper coefficient."""
        return bool(np.any(self.boundary_damping > 0.0))


def _sample_cellwise(value, points: np.ndarray) -> np.ndarray:
    if callable(value):
        return np.asarray(value(points), dtype=float)
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        return np.full(points.shape[0], float(out))
    if out.shape == (2, 2):
        return np.broadcast_to(out, (points.shape[0], 2, 2)).copy()
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
    # Masking would hide a bad sample on a facet that takes no value.
    _check_field(name, out, ((mesh.num_facets,),))
    return np.where(use_mask, out, 0.0)


def _check_field(name: str, values: np.ndarray, shapes: tuple) -> None:
    """CoefficientError unless values has one of shapes and is finite."""
    if values.shape not in shapes:
        allowed = " or ".join(str(shape) for shape in shapes)
        raise CoefficientError(f"{name}: expected shape {allowed}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise CoefficientError(f"{name}: non-finite sample")


def _facet_masks(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the facets whose label takes a spring, and a damper."""
    spring = np.array([lab.has_spring for lab in mesh.facet_labels], dtype=bool)
    damper = np.array([lab.has_damper for lab in mesh.facet_labels], dtype=bool)
    return spring, damper


def _check_assumptions(mesh: Mesh, coeffs: CoefficientSet) -> None:
    """The standing assumptions on the data; CoefficientError on the first breach.

    Every field has its shape (a tensor modulus in 2-D only) and is finite;
    the modulus is symmetric and positive definite, the density positive;
    spring and damper values are nonnegative, and zero on facets whose
    label does not take them.
    """
    ncell, nf = mesh.num_cells, mesh.num_facets
    modulus_shapes = ((ncell,), (ncell, 2, 2)) if mesh.dim == 2 else ((ncell,),)
    t, rho = coeffs.modulus, coeffs.density
    _check_field("modulus", t, modulus_shapes)
    for name in ("density", "reaction", "damping"):
        _check_field(name, getattr(coeffs, name), ((ncell,),))
    for name in ("boundary_stiffness", "boundary_damping"):
        _check_field(name, getattr(coeffs, name), ((nf,),))

    if t.ndim == 3:
        sym = 0.5 * (t + np.swapaxes(t, 1, 2))
        if np.abs(t - sym).max() > 1e-12 * max(np.abs(t).max(), 1.0):
            raise CoefficientError("tensor modulus must be symmetric")
        t_lo = np.linalg.eigvalsh(sym).min()
    else:
        t_lo = t.min()
    if t_lo <= 0:
        raise CoefficientError(f"modulus must be positive, min eigenvalue {t_lo:.3e}")
    if rho.min() <= 0:
        raise CoefficientError(f"density must be positive, min {rho.min():.3e}")

    # Springs and dampers only act where the facet label allows them.
    for name, mask, part in zip(
        ("boundary_stiffness", "boundary_damping"), _facet_masks(mesh), ("spring", "damper")
    ):
        values = getattr(coeffs, name)
        if nf and values.min() < 0:
            raise CoefficientError(f"{name} must be nonnegative, min {values.min():.3e}")
        if np.any(values[~mask] != 0.0):
            raise CoefficientError(f"{name} set on a facet without a {part} label")


def sample_coefficients(
    mesh: Mesh,
    modulus=1.0,
    density=1.0,
    reaction=0.0,
    damping=0.0,
    boundary_stiffness=None,
    boundary_damping=None,
) -> CoefficientSet:
    """Midpoint-sample coefficient data onto a mesh and check it.

    Each interior argument is a constant, a callable on (m, dim) midpoint
    arrays, or (for the modulus in 2-D) a constant 2x2 tensor or a callable
    returning (m, 2, 2).  Boundary arguments may additionally be a dict
    keyed by BoundaryLabel; they are zeroed on facets whose label does not
    take them, after a finiteness check.  Samples that break a standing
    assumption are a CoefficientError (see validate_model).
    """
    mids = cell_midpoints(mesh)
    spring_mask, damper_mask = _facet_masks(mesh)
    coeffs = CoefficientSet(
        *(_sample_cellwise(value, mids) for value in (modulus, density, reaction, damping)),
        _sample_facetwise("boundary_stiffness", boundary_stiffness, mesh, spring_mask),
        _sample_facetwise("boundary_damping", boundary_damping, mesh, damper_mask),
    )
    _check_assumptions(mesh, coeffs)
    return coeffs


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

    Raises CoefficientError for a field of the wrong shape, a non-finite
    value, a modulus that is not symmetric positive definite, a density
    that is not positive, or a negative or misplaced spring or damper
    value, and DegenerateEnergyNormError when there is neither a clamped
    boundary portion nor a nonzero boundary spring (the energy form then
    has the constants in its kernel).  The return value is
    coeffs.damping_active.
    """
    _check_assumptions(mesh, coeffs)
    if not energy_anchored(mesh, coeffs):
        raise DegenerateEnergyNormError(DEGENERATE_ENERGY)
    return coeffs.damping_active
