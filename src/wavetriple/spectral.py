"""Spectra of the closed-loop generator and derived stability reports.

Eigenvalues come from the generalized problem dyn z = lambda gram z, with
dyn = pencil.dynamics the whole generator (interior reaction and damping
included), reduced to standard form block by block through the Cholesky
factors of the Gram matrix's two diagonal blocks, computed once at
assembly.
Every reported pair carries a recomputed residual plus two boundary
residuals: the damped velocity trace and the first boundary map, which
must both vanish on any eigenvector whose eigenvalue sits on the
imaginary axis.
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
    residuals; k2_trace_residual and flux_residual are the norms of the
    damper-weighted velocity trace and of the first boundary map on each
    unit-norm eigenvector.  near_axis lists indices with |Re| < axis_tol.
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
    pairs = linalg.generalized_eig(pencil.gram, pencil.dynamics, pencil.gram_factors)
    if len(pairs) != pencil.state_dim:
        raise EigenSolverError(
            f"expected {pencil.state_dim} eigenvalues, got {len(pairs)}"
        )
    if len(pairs) and pairs.residuals.max() > RESIDUAL_TOL:
        raise EigenSolverError(
            f"pencil residual {pairs.residuals.max():.3e} exceeds {RESIDUAL_TOL:.1e}"
        )

    m = pencil.num_active
    slots = pencil.trace_slots
    vec_u = pairs.vectors[:m]
    vec_v = pairs.vectors[m:]
    damper_trace = (pencil.boundary_damper @ vec_v)[slots]
    k2_res = np.linalg.norm(damper_trace, axis=0) if slots.size else np.zeros(len(pairs))
    # First boundary map under the absorbing condition: spring force plus
    # the eliminated flux, computed from its own ingredients.
    spring_force = (pencil.boundary_spring @ vec_u)[slots]
    flux = -spring_force - damper_trace
    b1 = spring_force + flux
    flux_res = np.linalg.norm(b1, axis=0) if slots.size else np.zeros(len(pairs))

    values = pairs.values
    abscissa = float(values.real.max()) if len(pairs) else -np.inf
    gap = imaginary_axis_gap(values)
    min_modulus = float(np.abs(values).min()) if len(pairs) else np.inf
    anchored = energy_anchored(pencil.mesh, pencil.coeffs)
    zero_excluded = bool(min_modulus > ZERO_TOL) if (pencil.damping_active and anchored) else True
    near_axis = np.nonzero(np.abs(values.real) < axis_tol)[0]
    return SpectralReport(
        values=values,
        residuals=pairs.residuals,
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
        vectors=pairs.vectors if want_vectors else None,
    )


def eigvec_boundary_check(pencil: OperatorPencil, report: SpectralReport) -> np.ndarray:
    """Defect of the eigenpair energy balance, one value per pair.

    For each eigenpair, -Re(lambda) * ||z||^2 must equal the dissipation
    v^H (D + Mb) v + Re(v^H Ma u): the damper form of the velocity trace
    plus the interior damping and reaction forms.  Ma and Mb are assembled
    here from the coefficients, not read back from the dynamics.  Requires
    a report built with want_vectors.
    """
    if report.vectors is None:
        raise ValueError("report carries no eigenvectors; recompute with want_vectors")
    m = pencil.num_active
    vec_u = report.vectors[:m]
    vec_v = report.vectors[m:]
    mesh, coeffs, active = pencil.mesh, pencil.coeffs, pencil.active
    reaction = _restrict(mass_triplets(mesh, coeffs.reaction), active)
    damper = pencil.boundary_damper + _restrict(mass_triplets(mesh, coeffs.damping), active)
    gram_norms = np.einsum(
        "im,im->m", np.conj(vec_u), pencil.displacement_gram @ vec_u
    ) + np.einsum("im,im->m", np.conj(vec_v), pencil.mass @ vec_v)
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
    mass = _restrict(mass_triplets(mesh, ones), active)
    std = linalg.generalized_to_standard(form, (linalg.cholesky(mass),))
    lam_min = float(np.linalg.eigvalsh(0.5 * (std + std.T)).min())
    if lam_min <= 0:
        raise DegenerateEnergyNormError(
            f"trace form is not coercive (smallest eigenvalue {lam_min:.3e})"
        )
    return 1.0 / np.sqrt(lam_min)


def refinement_study(build, sizes) -> list[tuple[float, int, float, float, complex]]:
    """Rows (h, N, abscissa, gap, extreme eigenvalue) over mesh sizes.

    build maps a size to an OperatorPencil; the extreme entry is the
    eigenvalue of largest modulus at that size.  No convergence of the gap
    is asserted; the table itself is the deliverable.
    """
    rows = []
    for size in sizes:
        pencil = build(int(size))
        report = compute_spectrum(pencil)
        extreme = report.values[np.argmax(np.abs(report.values))]
        rows.append(
            (report.h, report.state_dim, report.abscissa, report.gap, extreme)
        )
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
    for h, n, abscissa, gap, _ in rows:
        lines.append(f"{h:.17g},{n},{abscissa:.17g},{gap:.17g}")
    return "\n".join(lines) + "\n"
