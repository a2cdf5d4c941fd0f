"""Spectra of the closed-loop generator and derived stability reports.

Eigenvalues come from the generalized problem dyn z = lambda gram z, with
dyn the whole generator (interior reaction and damping included), on one
of two routes that the pencil picks (see compute_spectrum).

Both routes read the band Cholesky factors of the Gram matrix's diagonal
blocks S and M that the pencil keeps (gram_factors); the general route
reduces it to standard form block by block through them.
The reduction densifies the CSR generator one block row at a time; the
reduced matrix's nonsymmetric eigensolve is the one dense step.

The secular route serves a generator whose only dissipation is one damped
node with no reaction (the 1-D string with a damped end).  That damper is
a rank-one boundary parameter of the skew-adjoint undamped generator, so
by Krein's formula the spectrum is where 1 + k2 m(lambda) vanishes, with
m(lambda) = lambda sum_k phi_k(N)^2 / (lambda^2 + w_k^2) the scalar Weyl
function of the undamped modes phi_k at the damped node N: a secular
equation in those modes, solved for all roots at once and certified by
inclusion discs and the generator's trace.  Its dense step is the
symmetric eigensolve of the undamped modes, and its eigenvectors are in
closed form, built from the modes a block at a time and never stored.

Neither route reads a dense view of the pencil, and neither certifies
its own pairs: compute_spectrum does, in one pass over the owners
(_certify_pairs), which forms gram z and dyn z once per block and reads
from them a recomputed residual, the damped velocity trace (zero on any
eigenvector whose eigenvalue sits on the imaginary axis), the absorbing
boundary condition and the energy balance of every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .assembly import OperatorPencil, assemble_pencil, check_state_size, dissipation_forms
from .coefficients import CoefficientSet, energy_anchored, sample_coefficients
from .errors import EigenSolverError, NotPositiveDefiniteError
from .mesh import Mesh

# Pencil residual bound accepted from the eigensolver.
RESIDUAL_TOL = 1e-8
# Half-width of the strip around the imaginary axis that near_axis lists.
AXIS_TOL = 1e-6
# Modulus below which an eigenvalue counts as zero for the exclusion check.
ZERO_TOL = 1e-6
# Largest state dimension whose full dense spectrum compute_spectrum
# attempts, on either route.  Time grows like the cube of the dimension and
# memory like its square.  These are the dgeev route's figures: on a 2-core
# machine with one BLAS thread the spectrum command took 8.4 s with a
# 0.14 GB peak at 2048 and 52 s with a 0.33 GB peak at 4096 (1-D damped
# string): the import plus dgeev's two real arrays, one complex block of
# the state.  The secular route takes that string at 4096 in 5.3 s with a
# 0.13 GB peak: the import plus the 2048 x 2048 undamped modes and their
# eigh.
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
    eigenpair.  near_axis lists indices with |Re| < AXIS_TOL.
    vectors.expand(cols) gives the unit gram-norm complex eigenvectors of
    values[cols], the ones certified, built one block of owners at a time.
    On the dgeev route vectors keeps dgeev's real vector matrix as dgeev
    returned it, a conjugate pair in two real columns, with the Gram
    factors to back-transform with (linalg.PackedEigenvectors, half the
    memory of the complex array); on the secular route it keeps the m x m
    undamped modes (linalg.SecularEigenvectors).
    balance_worst_ratio is the largest energy-balance defect over its
    bound, at most 1: the certifying pass refuses any pair above it.
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
    vectors: linalg.PackedEigenvectors | linalg.SecularEigenvectors
    balance_worst_ratio: float


def imaginary_axis_gap(values: np.ndarray) -> float:
    """Distance of a spectrum to the imaginary axis: min |Re lambda|."""
    values = np.asarray(values)
    if values.size == 0:
        return np.inf
    return float(np.abs(values.real).min())


def compute_spectrum(pencil: OperatorPencil) -> SpectralReport:
    """Full spectrum of the closed-loop generator with diagnostics and eigenvectors.

    Interior reaction and damping terms are included, and S and M enter
    through the pencil's band factors (gram_factors).  Above
    MAX_DENSE_STATE states it is a ProblemSizeError before anything is densified.

    There are two eigensolver routes, and the pencil picks one; nothing
    else does.  When dissipation_forms gives a zero reaction form and a
    damper form with one stored entry, and the generator is built from
    exactly those forms (_rank_one_damper; in practice the 1-D string with
    one damped end), the damper is a rank-one boundary parameter of the
    undamped generator, and linalg.secular_eig solves the secular equation
    of its Weyl function.  Every other pencil takes
    linalg.generalized_eig: the dense nonsymmetric eigensolve of the
    reduced generator.  Both return eigenvalues and a source of their
    vectors with the same owner_block, expand and owner interface.

    One pass builds one block of owners at a time (_certify_pairs), so the
    peak is that of the eigensolve itself: dgeev's overwritten input beside
    its real eigenvector matrix on the dgeev route, or on the secular route
    the m x m undamped modes and their eigh, a quarter of that.  Every
    certificate refuses one way, with EigenSolverError: a secular
    certificate, or a block of the pass whose worst recomputed residual
    (overflowed or not) misses RESIDUAL_TOL or whose worst energy-balance
    defect misses its bound.  On the secular route that refusal hands the
    pencil to dgeev; on the dgeev route it propagates.  So a report in hand
    is a certificate of its pairs.
    """
    check_state_size(pencil.mesh, MAX_DENSE_STATE, "spectrum")
    factors, forms = pencil.gram_factors, dissipation_forms(pencil)
    gram, dynamics = pencil.gram_csr, pencil.dynamics_csr
    certified, rank_one = None, _rank_one_damper(pencil, forms)
    if rank_one is not None:
        try:
            solved = linalg.secular_eig(pencil.displacement_gram_csr, factors[1], *rank_one)
            certified = _certify_pairs(pencil, forms, gram, dynamics, *solved)
        except EigenSolverError:
            pass  # a secular certificate or the pass refused: dgeev takes over
        solved = None  # the secular modes go before dgeev runs
    if certified is None:
        solved = linalg.generalized_eig(dynamics, factors)
        certified = _certify_pairs(pencil, forms, gram, dynamics, *solved)
    values, vectors, residuals, flux_res, k2_res, ratio = certified
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


def _certify_pairs(pencil: OperatorPencil, forms, gram, dynamics, values, vectors):
    """(values, vectors, residuals, flux_res, k2_res, ratio) of one route's pairs.

    One pass over the owners (linalg.owner_blocks) builds each block z once
    (vectors.owner_block) and forms gram z and dynamics z once.  From them
    come its pencil residuals, its energy-balance defects, with S u and M v
    read from gram z, and its two boundary residuals.  The first block
    whose worst residual is not within RESIDUAL_TOL, or whose worst defect
    over balance_tolerance is not within 1 (NaN included), ends the pass
    with an EigenSolverError; ratio is the worst defect ratio of all
    blocks.  A member re - i*im copies its owner's three residuals: the
    pencil and the vectors are real, so they are the owner's bit for bit.
    forms is dissipation_forms(pencil), and gram and dynamics are the
    pencil's CSR matrices.
    """
    if len(values) != pencil.state_dim:
        raise EigenSolverError(f"expected {pencil.state_dim} eigenvalues, got {len(values)}")
    m, slots = pencil.num_active, pencil.trace_slots
    stiff, spring = pencil.stiffness_csr[slots], pencil.boundary_spring_csr[slots]
    damper = pencil.boundary_damper_csr[slots]
    reaction, dissipation = forms
    residuals, flux_res, k2_res = (np.empty(len(values)) for _ in range(3))
    ratio = 0.0
    for cols in linalg.owner_blocks(vectors.sign):
        lam, block = values[cols], vectors.owner_block(cols)
        gram_z = gram @ block
        residuals[cols] = linalg.pencil_residuals(gram_z, dynamics @ block, lam)
        worst = residuals[cols].max()
        if not worst <= RESIDUAL_TOL:
            raise EigenSolverError(f"pencil residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}")
        # -Re(lambda) ||z||^2 must equal v^H (D + Mb) v + Re(v^H Ma u), with
        # Ma and D + Mb from the coefficients, not read back from dynamics.
        vec_u, vec_v, mass_v = block[:m], block[m:], gram_z[m:]
        damp_v, react_u = dissipation @ vec_v, reaction @ vec_u
        gram_norms = np.einsum("im,im->m", np.conj(vec_u), gram_z[:m]) + np.einsum(
            "im,im->m", np.conj(vec_v), mass_v
        )
        energy_loss = np.einsum("im,im->m", np.conj(vec_v), damp_v + react_u)
        defect = np.abs(-lam.real * gram_norms.real - energy_loss.real)
        worst = (defect / balance_tolerance(lam)).max()
        if not worst <= 1.0:
            raise EigenSolverError(f"eigenpair energy balance defect at {worst:.3e} of its bound")
        ratio = max(ratio, float(worst))
        # The flux trace g that apply_A needs to reproduce a pair is
        # lift(g) = lambda M v + K u on the trace rows.  There the first
        # boundary map spring u + g must balance (D + Mb) v + Ma u.
        flux = lam * mass_v[slots] + stiff @ vec_u
        b1 = spring @ vec_u + flux
        flux_res[cols] = np.linalg.norm(b1 + damp_v[slots] + react_u[slots], axis=0)
        k2_res[cols] = np.linalg.norm(damper @ vec_v, axis=0)
    lower = np.flatnonzero(vectors.sign < 0)
    owner = vectors.owner[lower]
    for out in (residuals, flux_res, k2_res):
        out[lower] = out[owner]
    return values, vectors, residuals, flux_res, k2_res, ratio


def _rank_one_damper(pencil: OperatorPencil, forms) -> tuple[int, float] | None:
    """(slot, k2) of the pencil's one damped node when the secular route applies.

    forms is dissipation_forms(pencil).  It applies when Ma is zero, D + Mb
    is one positive diagonal entry k2, and the generator's velocity row is
    exactly (-S, -(D + Mb)): then the damper is a rank-one boundary
    parameter of the undamped generator.
    """
    reaction, damper = forms
    if reaction.nnz or damper.nnz != 1:
        return None
    slot = int(damper.indices[0])
    k2 = float(damper[slot, slot])
    if k2 <= 0.0 or (pencil.dynamics_vv_csr != -damper).nnz:
        return None
    if (pencil.dynamics_vu_csr != -pencil.displacement_gram_csr).nnz:
        return None
    return slot, k2


def balance_tolerance(values: np.ndarray) -> np.ndarray:
    """Acceptance bound for the eigenpair energy-balance defect.

    Both sides of the balance are |Re lambda| times the unit gram norm, so
    the bound scales with that plus an absolute floor in |lambda|.
    """
    return 2e-8 * np.abs(values.real) + 1e-10 * (1.0 + np.abs(values))


def poincare_constant(mesh: Mesh, coeffs: CoefficientSet) -> float:
    """Best constant C with ||f|| <= C * (||grad f||^2 + spring trace)^{1/2}.

    The right-hand side is the quadratic form S of the plain stiffness plus
    the spring boundary mass, restricted to functions vanishing on the
    fixed boundary; the left is the plain mass form M.  Both come from
    assemble_pencil on unit coefficients with coeffs' springs, so its size
    guard and its degenerate-energy rule apply, and S is certified there;
    the pencil and its factors are dropped before the bisection.
    C = 1/sqrt(lambda_min) for the smallest eigenvalue of S z = lambda M z.
    By Sylvester's law of inertia, S - sigma M passes the band Cholesky
    certificate exactly when sigma < lambda_min, so lambda_min is bisected
    between 0 and min_j S_jj / M_jj (the Rayleigh quotient of e_j) until
    the midpoint is one of the ends.  The result is resolved only as
    finely as the certificate's pivot rule tells the two sides apart, and
    no dense block is built.  A model with no active node gives 0; one
    whose every shift is rejected is a NotPositiveDefiniteError.
    """
    unit = sample_coefficients(mesh, boundary_stiffness=coeffs.boundary_stiffness)
    pencil = assemble_pencil(mesh, unit)
    form, mass = pencil.displacement_gram_csr, pencil.mass_csr
    del pencil
    if form.shape[0] == 0:
        return 0.0
    lo, hi = 0.0, float((form.diagonal() / mass.diagonal()).min())
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        try:
            linalg.certify_positive_definite(form - mid * mass)
            lo = mid
        except NotPositiveDefiniteError:
            hi = mid
        mid = 0.5 * (lo + hi)
    if lo == 0.0:
        raise NotPositiveDefiniteError(
            f"trace form is not coercive: every shift down to {hi:.3e} fails the pivot rule"
        )
    return 1.0 / np.sqrt(lo)


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
