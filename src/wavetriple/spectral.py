"""Spectra of the closed-loop generator and derived stability reports.

Eigenvalues come from the generalized problem dyn z = lambda gram z, with
dyn the whole generator (interior reaction and damping included), reduced
to standard form block by block through the band Cholesky factors of the
Gram matrix's two diagonal blocks, S and M.  The reduction densifies the
CSR generator one block row at a time; the reduced matrix's nonsymmetric
eigensolve is the one dense step, and no dense view of the pencil is read.
Every reported pair carries a recomputed residual plus two boundary
residuals: the damped velocity trace, which must vanish on any
eigenvector whose eigenvalue sits on the imaginary axis, and the
absorbing boundary condition with the flux derived from the pair, which
every pair must satisfy.  compute_spectrum certifies every pair's energy
balance too, so every report carries its worst ratio.
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
    dissipation_forms,
    mass_triplets,
    stiffness_triplets,
)
from .coefficients import CoefficientSet, energy_anchored
from .errors import DegenerateEnergyNormError, EigenSolverError
from .mesh import Mesh

# Pencil residual bound accepted from the eigensolver.
RESIDUAL_TOL = 1e-8
# Half-width of the strip around the imaginary axis that near_axis lists.
AXIS_TOL = 1e-6
# Modulus below which an eigenvalue counts as zero for the exclusion check.
ZERO_TOL = 1e-6
# Largest state dimension whose full dense spectrum compute_spectrum
# attempts.  Time grows like the cube of the dimension and memory like its
# square: on a 2-core machine the spectrum command took 7.8 s with a 0.34 GB
# peak at 2048 and 60 s with a 1.1 GB peak at 4096 (1-D damped string).
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
    eigenpair.  near_axis lists indices with |Re| < AXIS_TOL, and vectors
    has one eigenvector column per value.  balance_worst_ratio is the
    largest energy-balance defect over its bound, at most 1.
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
    h: float
    state_dim: int
    vectors: np.ndarray
    balance_worst_ratio: float


def imaginary_axis_gap(values: np.ndarray) -> float:
    """Distance of a spectrum to the imaginary axis: min |Re lambda|."""
    values = np.asarray(values)
    if values.size == 0:
        return np.inf
    return float(np.abs(values.real).min())


def compute_spectrum(pencil: OperatorPencil) -> SpectralReport:
    """Full spectrum of the closed-loop generator with diagnostics and eigenvectors.

    Interior reaction and damping terms are included.  S and M are factored
    on their band here; no factor is kept.  Above MAX_DENSE_STATE states
    it is a ProblemSizeError before anything is densified.  A recomputed
    pencil residual (overflowed or not) or an eigenpair energy-balance
    defect beyond its bound is an EigenSolverError, so a report in hand is
    a certificate of its pairs.
    """
    check_state_size(pencil.mesh, MAX_DENSE_STATE, "spectrum")
    m = pencil.num_active
    blocks = (pencil.displacement_gram_csr, pencil.mass_csr)
    factors = tuple(linalg.certify_positive_definite(block) for block in blocks)
    values, vectors, residuals = linalg.generalized_eig(
        pencil.gram_csr, pencil.dynamics_csr, factors
    )
    if len(values) != pencil.state_dim:
        raise EigenSolverError(
            f"expected {pencil.state_dim} eigenvalues, got {len(values)}"
        )
    if len(values) and not residuals.max() <= RESIDUAL_TOL:
        raise EigenSolverError(
            f"pencil residual {residuals.max():.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    defect, (mass_v, damp_v, react_u) = _balance_defect(pencil, values, vectors)
    ratio = float((defect / balance_tolerance(values)).max(initial=0.0))
    if not ratio <= 1.0:
        raise EigenSolverError(f"eigenpair energy balance defect at {ratio:.3e} of its bound")

    # The flux trace g that apply_A needs to reproduce a pair is
    # lift(g) = lambda M v + K u on the trace rows.  There the first
    # boundary map spring u + g must balance (D + Mb) v + Ma u.
    slots = pencil.trace_slots
    vec_u = vectors[:m]
    flux = values * mass_v[slots] + pencil.stiffness_csr[slots] @ vec_u
    b1 = pencil.boundary_spring_csr[slots] @ vec_u + flux
    flux_res = np.linalg.norm(b1 + damp_v[slots] + react_u[slots], axis=0)
    k2_res = np.linalg.norm(pencil.boundary_damper_csr[slots] @ vectors[m:], axis=0)

    abscissa = float(values.real.max()) if len(values) else -np.inf
    gap = imaginary_axis_gap(values)
    min_modulus = float(np.abs(values).min()) if len(values) else np.inf
    damped = pencil.coeffs.damping_active and energy_anchored(pencil.mesh, pencil.coeffs)
    zero_excluded = bool(min_modulus > ZERO_TOL) if damped else True
    near_axis = np.nonzero(np.abs(values.real) < AXIS_TOL)[0]
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
        h=mesh_size(pencil.mesh),
        state_dim=pencil.state_dim,
        vectors=vectors,
        balance_worst_ratio=ratio,
    )


def _balance_defect(pencil: OperatorPencil, values, vectors):
    """Eigenpair energy-balance defect, with the products M v, (D + Mb) v, Ma u.

    -Re(lambda) * ||z||^2 must equal v^H (D + Mb) v + Re(v^H Ma u).  Ma and
    D + Mb come from dissipation_forms, assembled from the coefficients,
    not read back from the dynamics; the Gram norms use the CSR forms.
    """
    m = pencil.num_active
    vec_u, vec_v = vectors[:m], vectors[m:]
    reaction, damper = dissipation_forms(pencil)
    mass_v, damp_v, react_u = pencil.mass_csr @ vec_v, damper @ vec_v, reaction @ vec_u
    gram_norms = np.einsum(
        "im,im->m", np.conj(vec_u), pencil.displacement_gram_csr @ vec_u
    ) + np.einsum("im,im->m", np.conj(vec_v), mass_v)
    dissipation = np.einsum("im,im->m", np.conj(vec_v), damp_v + react_u)
    return np.abs(-values.real * gram_norms.real - dissipation.real), (mass_v, damp_v, react_u)


def eigvec_boundary_check(pencil: OperatorPencil, report: SpectralReport) -> np.ndarray:
    """Defect of the eigenpair energy balance, one value per pair.

    For each eigenpair, -Re(lambda) * ||z||^2 must equal the dissipation
    v^H (D + Mb) v + Re(v^H Ma u): the damper form of the velocity trace
    plus the interior damping and reaction forms.  compute_spectrum bounds
    the same defect; this recomputes it from the report's eigenvectors.
    """
    return _balance_defect(pencil, report.values, report.vectors)[0]


def balance_tolerance(values: np.ndarray) -> np.ndarray:
    """Acceptance bound for the eigenpair energy-balance defect.

    Both sides of the balance are |Re lambda| times the unit gram norm, so
    the bound scales with that plus an absolute floor in |lambda|.
    """
    return 2e-8 * np.abs(values.real) + 1e-10 * (1.0 + np.abs(values))


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
    std = linalg.generalized_to_standard(form, (linalg.certify_positive_definite(mass),))
    # An empty form (no active node) has smallest eigenvalue +inf, so C = 0.
    lam_min = float(np.linalg.eigvalsh(0.5 * (std + std.T)).min(initial=np.inf))
    if lam_min <= 0:
        raise DegenerateEnergyNormError(
            f"trace form is not coercive (smallest eigenvalue {lam_min:.3e})"
        )
    return 1.0 / np.sqrt(lam_min)


def refinement_study(build, sizes) -> list[tuple[float, int, float, float]]:
    """Rows (h, N, abscissa, gap) over mesh sizes.

    build maps a size to an OperatorPencil.  Each size's report, energy
    balance included, is certified by compute_spectrum and freed with its
    eigenvectors before the next size is solved.  No convergence of the
    gap is asserted; the table is the deliverable.
    """
    return [_study_row(build(int(size))) for size in sizes]


def _study_row(pencil: OperatorPencil) -> tuple[float, int, float, float]:
    report = compute_spectrum(pencil)
    return (report.h, report.state_dim, report.abscissa, report.gap)


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
