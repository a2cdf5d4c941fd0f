"""Spectra of the closed-loop generator and derived stability reports.

Eigenvalues come from the generalized problem dyn z = lambda gram z, with
dyn = pencil.dynamics the whole generator (interior reaction and damping
included), reduced to standard form block by block through the Cholesky
factors of the Gram matrix's two diagonal blocks, computed once at
assembly.  That dense eigensolve is the one place that densifies the
pencil; the boundary residuals read its CSR forms.
Every reported pair carries a recomputed residual plus two boundary
residuals: the damped velocity trace, which must vanish on any
eigenvector whose eigenvalue sits on the imaginary axis, and the
absorbing boundary condition with the flux derived from the pair, which
every pair must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .assembly import (
    MAX_PENCIL_STATE,
    OperatorPencil,
    _restrict,
    boundary_triplets,
    check_state_size,
    mass_triplets,
    stiffness_triplets,
)
from .coefficients import CoefficientSet, energy_anchored
from .errors import DegenerateEnergyNormError, EigenSolverError
from .mesh import Mesh

# Pencil residual bound accepted from the eigensolver.
RESIDUAL_TOL = 1e-8
# Default half-width of the strip around the imaginary axis.
AXIS_TOL = 1e-6
# Modulus below which an eigenvalue counts as zero for the exclusion check.
ZERO_TOL = 1e-6
# Largest state dimension whose full dense spectrum the spectrum and study
# commands attempt.  Time grows like the cube of the dimension and memory like its
# square: on a 2-core machine compute_spectrum took 9 s at 2048, 31 s at
# 3072 and 68 s with a 2.1 GB peak at 4096.
MAX_DENSE_STATE = 4096


def mesh_size(mesh: Mesh) -> float:
    """Largest cell diameter."""
    pts = mesh.nodes[mesh.cells]
    if mesh.dim == 1:
        return float(np.max(pts[:, 1, 0] - pts[:, 0, 0]))
    d01 = np.linalg.norm(pts[:, 0] - pts[:, 1], axis=1)
    d12 = np.linalg.norm(pts[:, 1] - pts[:, 2], axis=1)
    d20 = np.linalg.norm(pts[:, 2] - pts[:, 0], axis=1)
    return float(np.max(np.stack([d01, d12, d20])))


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum of one model with quality and boundary diagnostics.

    values are sorted by (real, imag).  residuals are relative pencil
    residuals; k2_trace_residual is the norm of the damper-weighted
    velocity trace on each unit-norm eigenvector, and flux_residual that of
    the absorbing boundary condition with the flux derived from the
    eigenpair (_flux_residual).  near_axis lists indices with
    |Re| < axis_tol.
    """

    values: np.ndarray
    residuals: np.ndarray
    k2_trace_residual: np.ndarray
    flux_residual: np.ndarray
    abscissa: float
    gap: float
    min_modulus: float
    zero_excluded: bool
    near_axis: np.ndarray
    axis_tol: float
    h: float
    state_dim: int
    vectors: np.ndarray | None = None


def imaginary_axis_gap(values: np.ndarray) -> float:
    """Distance of a spectrum to the imaginary axis: min |Re lambda|."""
    values = np.asarray(values)
    if values.size == 0:
        return np.inf
    return float(np.abs(values.real).min())


def compute_spectrum(
    pencil: OperatorPencil,
    axis_tol: float = AXIS_TOL,
    want_vectors: bool = False,
) -> SpectralReport:
    """Full spectrum of the closed-loop generator with diagnostics.

    Interior reaction and damping terms are included.  Raises
    EigenSolverError if any recomputed pencil residual exceeds the
    accepted bound, so a report in hand is a certificate.
    """
    values, vectors, residuals = linalg.generalized_eig(
        pencil.gram, pencil.dynamics, pencil.gram_factors
    )
    if len(values) != pencil.state_dim:
        raise EigenSolverError(
            f"expected {pencil.state_dim} eigenvalues, got {len(values)}"
        )
    if len(values) and residuals.max() > RESIDUAL_TOL:
        raise EigenSolverError(
            f"pencil residual {residuals.max():.3e} exceeds {RESIDUAL_TOL:.1e}"
        )

    m = pencil.num_active
    slots = pencil.trace_slots
    vec_u = vectors[:m]
    vec_v = vectors[m:]
    k2_res = np.linalg.norm(pencil.boundary_damper_csr[slots] @ vec_v, axis=0)
    flux_res = _flux_residual(pencil, values, vec_u, vec_v)

    abscissa = float(values.real.max()) if len(values) else -np.inf
    gap = imaginary_axis_gap(values)
    min_modulus = float(np.abs(values).min()) if len(values) else np.inf
    damped = pencil.coeffs.damping_active and energy_anchored(pencil.mesh, pencil.coeffs)
    zero_excluded = bool(min_modulus > ZERO_TOL) if damped else True
    near_axis = np.nonzero(np.abs(values.real) < axis_tol)[0]
    return SpectralReport(
        values=values,
        residuals=residuals,
        k2_trace_residual=k2_res,
        flux_residual=flux_res,
        abscissa=abscissa,
        gap=gap,
        min_modulus=min_modulus,
        zero_excluded=zero_excluded,
        near_axis=near_axis,
        axis_tol=float(axis_tol),
        h=mesh_size(pencil.mesh),
        state_dim=pencil.state_dim,
        vectors=vectors if want_vectors else None,
    )


def _dissipation_forms(pencil: OperatorPencil):
    """CSR Ma and D + Mb, assembled from the coefficients, not read back."""
    mesh, coeffs, active = pencil.mesh, pencil.coeffs, pencil.active
    reaction = _restrict(mass_triplets(mesh, coeffs.reaction), active)
    damping = _restrict(mass_triplets(mesh, coeffs.damping), active)
    return reaction, damping + _restrict(boundary_triplets(mesh, coeffs.boundary_damping), active)


def _flux_residual(pencil: OperatorPencil, values, vec_u, vec_v) -> np.ndarray:
    """Norm of the absorbing condition on the trace rows, one per pair.

    The flux trace g is what apply_A needs to reproduce the eigenpair,
    lift(g) = lambda M v + K u on the trace rows.  There the first boundary
    map spring u + g must balance the dissipation D v + Ma u + Mb v, so
    the norm of spring u + g + D v + Ma u + Mb v is reported.  Only trace
    rows are formed.
    """
    slots = pencil.trace_slots
    reaction, damper = _dissipation_forms(pencil)
    flux = values * (pencil.mass_csr[slots] @ vec_v) + pencil.stiffness_csr[slots] @ vec_u
    b1 = pencil.boundary_spring_csr[slots] @ vec_u + flux
    return np.linalg.norm(b1 + damper[slots] @ vec_v + reaction[slots] @ vec_u, axis=0)


def eigvec_boundary_check(pencil: OperatorPencil, report: SpectralReport) -> np.ndarray:
    """Defect of the eigenpair energy balance, one value per pair.

    For each eigenpair, -Re(lambda) * ||z||^2 must equal the dissipation
    v^H (D + Mb) v + Re(v^H Ma u): the damper form of the velocity trace
    plus the interior damping and reaction forms.  D, Ma and Mb are
    assembled here from the coefficients as CSR blocks, not read back from
    the dynamics, and the Gram norms use the pencil's CSR forms.  Requires
    a report built with want_vectors.
    """
    if report.vectors is None:
        raise ValueError("report carries no eigenvectors; recompute with want_vectors")
    m = pencil.num_active
    vec_u = report.vectors[:m]
    vec_v = report.vectors[m:]
    reaction, damper = _dissipation_forms(pencil)
    gram_norms = np.einsum(
        "im,im->m", np.conj(vec_u), pencil.displacement_gram_csr @ vec_u
    ) + np.einsum("im,im->m", np.conj(vec_v), pencil.mass_csr @ vec_v)
    dissipation = np.einsum("im,im->m", np.conj(vec_v), damper @ vec_v + reaction @ vec_u)
    return np.abs(-report.values.real * gram_norms.real - dissipation.real)


def balance_tolerance(report: SpectralReport) -> np.ndarray:
    """Acceptance bound for the eigenpair energy-balance defect.

    Both sides of the balance are |Re lambda| times the unit gram norm, so
    the bound scales with that plus an absolute floor in |lambda|.
    """
    return 2e-8 * np.abs(report.values.real) + 1e-10 * (1.0 + np.abs(report.values))


def balance_worst_ratio(pencil: OperatorPencil, report: SpectralReport) -> float:
    """Largest eigenpair energy-balance defect as a fraction of its bound.

    Requires a report built with want_vectors.  A ratio above 1 (or NaN)
    means the eigenvectors fail the balance: EigenSolverError.
    """
    defect = eigvec_boundary_check(pencil, report)
    ratio = float((defect / balance_tolerance(report)).max(initial=0.0))
    if not ratio <= 1.0:
        raise EigenSolverError(f"eigenpair energy balance defect at {ratio:.3e} of its bound")
    return ratio


def poincare_constant(mesh: Mesh, coeffs: CoefficientSet) -> float:
    """Best constant C with ||f|| <= C * (||grad f||^2 + spring trace)^{1/2}.

    The right-hand side is the quadratic form of the plain stiffness plus
    the spring boundary mass, restricted to functions vanishing on the
    fixed boundary.  C is the inverse square root of the smallest
    generalized eigenvalue of that form against the plain mass form.
    Needs a fixed portion or a nonzero spring; otherwise constants defeat
    any such bound.  A mesh above MAX_PENCIL_STATE is a ProblemSizeError.
    """
    if not energy_anchored(mesh, coeffs):
        raise DegenerateEnergyNormError(
            "degenerate energy norm: constants break the trace bound"
        )
    ones = np.ones(mesh.num_cells)
    active = check_state_size(mesh, MAX_PENCIL_STATE, "dense model")
    form = _restrict(stiffness_triplets(mesh, ones), active) + _restrict(
        boundary_triplets(mesh, coeffs.boundary_stiffness), active
    )
    form = form.toarray()
    mass = _restrict(mass_triplets(mesh, ones), active).toarray()
    std = linalg.generalized_to_standard(form, (linalg.cholesky(mass),))
    lam_min = float(np.linalg.eigvalsh(0.5 * (std + std.T)).min())
    if lam_min <= 0:
        raise DegenerateEnergyNormError(
            f"trace form is not coercive (smallest eigenvalue {lam_min:.3e})"
        )
    return 1.0 / np.sqrt(lam_min)


def refinement_study(build, sizes) -> list[tuple[float, int, float, float]]:
    """Rows (h, N, abscissa, gap) over mesh sizes.

    build maps a size to an OperatorPencil.  No convergence of the gap is
    asserted; the table itself is the deliverable.
    """
    rows = []
    for size in sizes:
        pencil = build(int(size))
        report = compute_spectrum(pencil)
        rows.append((report.h, report.state_dim, report.abscissa, report.gap))
    return rows


def eigenvalues_csv(report: SpectralReport) -> str:
    """CSV with columns index,re,im,residual,k2_trace_residual,flux_residual."""
    lines = ["index,re,im,residual,k2_trace_residual,flux_residual"]
    for k in range(report.values.shape[0]):
        lam = report.values[k]
        lines.append(
            f"{k},{lam.real:.17g},{lam.imag:.17g},{report.residuals[k]:.17g},"
            f"{report.k2_trace_residual[k]:.17g},{report.flux_residual[k]:.17g}"
        )
    return "\n".join(lines) + "\n"


def study_csv(rows) -> str:
    """CSV with columns h,N,abscissa,gap."""
    lines = ["h,N,abscissa,gap"]
    for h, n, abscissa, gap in rows:
        lines.append(f"{h:.17g},{n},{abscissa:.17g},{gap:.17g}")
    return "\n".join(lines) + "\n"
