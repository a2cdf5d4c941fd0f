"""Finite element assembly of the damped wave model.

Piecewise-linear elements on segments or triangles.  Clamped nodes (those
touching a fixed facet) are eliminated from all matrices; the remaining
"active" nodes carry the state.  A state vector stacks nodal displacement
u on top of nodal velocity v.  Boundary trace data lives on the trace
nodes, the boundary nodes away from every fixed facet.

The assembled first-order system is the whole closed-loop generator

    gram @ xdot = dynamics @ x,   gram = blockdiag(S, M),
    dynamics = [[0, S], [Cvu, Cvv]],   Cvu = -S - Ma,   Cvv = -D - Mb,

with S the displacement Gram matrix (stiffness plus boundary spring mass),
M the density-weighted kinetic mass matrix, D the boundary damper mass and
Ma, Mb the consistent masses weighted by the interior reaction and damping
fields.  The displacement row [0, S] is udot = v in the energy metric for
every model, so the pencil stores only S, M and the velocity row Cvu, Cvv;
gram and dynamics are stacked from them on each read.  The skew part of
dynamics is exact by construction, so with no reaction
dynamics + dynamics^T = blockdiag(0, -2(D + Mb)) bit for bit.  apply_A,
the boundary maps B1, B2 and the Green identity describe the boundary
part [[0, S], [-S, -D]]; the interior terms are a bounded perturbation
of it.

M is the consistent P1 mass by default.  In 1-D with a fixed end,
assemble_pencil(..., kinetic="cell_average") measures kinetic energy on
cell averages instead, M = sum_c rho_c h_c / 4 [[1, 1], [1, 1]]: the
semi-discrete system that Castro & Micu (Numer. Math. 102, 2006) derive
from the Banks-Ito-Wang mixed method.  Its damped-string spectral gap is
uniform in h, where the consistent mass loses the gap like h^2.  Only M
changes; the stiffness, the boundary maps and both identities do not.

Each matrix has one builder of its element matrices and one assembly
kernel.  Every matrix on the same node set shares one sparsity pattern
(_Pattern): one np.unique over the (row, col) pairs of the cells and
boundary facets gives the sorted CSR indices and each element entry's
slot.  A block is one np.bincount of its element matrices into those
slots, which sums duplicates from zero in input order, as np.add.at does,
with exact zeros dropped, so its toarray() is the dense block bit for bit
(Cuvelier, Japhet & Scarella, BIT Numer. Math. 56, 2016, compute the
pattern once the same way).  dissipation_forms builds its own pattern on
the active nodes, and the Helmholtz solve one on the interior nodes.  A
gradient row holds its cell's nodes once, so that operator is CSR at once.
The pencil stores every matrix once, as CSR, and the band factors that
certify S and M (gram_factors) for every consumer.  Its dense names are
views that densify on each read, read only by the benchmark and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.sparse import bmat, csr_matrix

from . import linalg
from .coefficients import DEGENERATE_ENERGY, CoefficientSet, energy_anchored
from .errors import (
    CoefficientError,
    DegenerateEnergyNormError,
    KineticMassError,
    NotPositiveDefiniteError,
    ProblemSizeError,
)
from .mesh import (
    Mesh,
    active_nodes,
    cell_volumes,
    clamped_nodes,
    facet_measures,
    trace_nodes,
)

# Consistent P1 mass templates; scaled per cell by measure * weight.
_SEG_MASS = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
_TRI_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
# Cell-average kinetic template: the squared mean of the two end values.
_SEG_AVERAGE = np.full((2, 2), 0.25)

KINETIC_SCHEMES = ("consistent", "cell_average")
# Largest state dimension (twice the active nodes) that assemble_pencil, and
# so validate, simulate and poincare, accept: the 2-D square at nx = 64 with
# one side fixed.  Nothing they build there is dense; on a 2-core machine
# validate, simulate (100 steps) and poincare peak at 72, 78 and 72 MB.
# The guard stays because it is their only size check: it turns a 1-D
# n = 100000 into one error line instead of a long run.
MAX_PENCIL_STATE = 8320


def _mass_local(
    mesh: Mesh, vols: np.ndarray, weight: np.ndarray, kinetic: str = "consistent"
) -> np.ndarray:
    """Mass element matrices for a cellwise weight, (ncell, k, k).

    vols = cell_volumes(mesh).  kinetic "consistent" gives the P1 mass and
    "cell_average" (1-D only) the mass of cell averages, w_c h_c / 4 [[1, 1],
    [1, 1]]; any other scheme is a ValueError.
    """
    if kinetic not in KINETIC_SCHEMES:
        raise ValueError(f"kinetic must be one of {KINETIC_SCHEMES}, got {kinetic!r}")
    if kinetic == "cell_average":
        if mesh.dim != 1:
            raise KineticMassError(f"cell-average kinetic mass is 1-D only, mesh is {mesh.dim}-D")
        template = _SEG_AVERAGE
    else:
        template = _SEG_MASS if mesh.dim == 1 else _TRI_MASS
    w = np.asarray(weight, dtype=float)
    if w.shape != (mesh.num_cells,):
        raise CoefficientError(f"weight must have one value per cell, got {w.shape}")
    return (w * vols)[:, None, None] * template


def _basis_gradients(mesh: Mesh, vols: np.ndarray) -> np.ndarray:
    """Cellwise gradients of the nodal basis: shape (ncell, dim, dim + 1).

    Entry [c, :, j] is the constant gradient on cell c of the hat function
    of its j-th node; vols = cell_volumes(mesh).
    """
    if mesh.dim == 1:
        h = vols[:, None, None]
        return np.concatenate([-1.0 / h, 1.0 / h], axis=2)
    pts = mesh.nodes[mesh.cells]
    p0, p1, p2 = pts[:, 0], pts[:, 1], pts[:, 2]
    grads = np.stack(
        [
            np.stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]], axis=1),
            np.stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]], axis=1),
            np.stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]], axis=1),
        ],
        axis=2,
    )
    return grads / (2.0 * vols)[:, None, None]


def gradient_operator(mesh: Mesh, vols: np.ndarray | None = None) -> csr_matrix:
    """Sparse map from nodal values to cellwise gradients.

    Row c * dim + a holds component a of the gradient on cell c, so
    (G @ p).reshape(ncell, dim) is the gradient of the P1 function p and
    G.T @ (vols * f).ravel() is the load vector of a cellwise field f.
    vols, when given, is cell_volumes(mesh).
    """
    if vols is None:
        vols = cell_volumes(mesh)
    # Row c * dim + a holds cell c's nodes once each, sorted as CSR wants.
    order = np.argsort(mesh.cells, axis=1)
    grads = np.take_along_axis(_basis_gradients(mesh, vols), order[:, None, :], axis=2)
    cols = np.repeat(np.take_along_axis(mesh.cells, order, axis=1), mesh.dim, axis=0)
    indptr = np.arange(0, cols.size + 1, mesh.dim + 1)
    shape = (mesh.num_cells * mesh.dim, mesh.num_nodes)
    return csr_matrix((grads.ravel(), cols.ravel(), indptr), shape=shape)


def modulus_tensors(mesh: Mesh, modulus: np.ndarray) -> np.ndarray:
    """(ncell, dim, dim) tensors of a cellwise modulus.

    A scalar per cell becomes that multiple of the identity; (ncell, 2, 2)
    tensors pass through on a 2-D mesh.  Any other shape is a
    CoefficientError.
    """
    t = np.asarray(modulus, dtype=float)
    if t.shape == (mesh.num_cells,):
        return t[:, None, None] * np.eye(mesh.dim)
    if mesh.dim == 2 and t.shape == (mesh.num_cells, 2, 2):
        return t
    raise CoefficientError(f"modulus shape {t.shape} not supported on a {mesh.dim}-D mesh")


def _stiffness_local(mesh: Mesh, vols: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """Stiffness element matrices, (ncell, k, k), each bitwise symmetric.

    vols = cell_volumes(mesh) and tensors = modulus_tensors(mesh, modulus).
    """
    if mesh.dim == 1:
        template = np.array([[1.0, -1.0], [-1.0, 1.0]])
        return (tensors[:, 0, 0] / vols)[:, None, None] * template
    grads = _basis_gradients(mesh, vols)
    flux = np.einsum("cab,cbj->caj", tensors, grads)
    local = vols[:, None, None] * np.einsum("cai,caj->cij", grads, flux)
    # Tie the lower triangle to the upper bit-for-bit so the assembled
    # matrix is exactly symmetric.
    upper = np.triu(local)
    return upper + np.swapaxes(np.triu(local, 1), 1, 2)


def _boundary_local(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Boundary mass element matrices, (nf, dim, dim): points in 1-D, edges in 2-D."""
    k = np.asarray(values, dtype=float)
    if k.shape != (mesh.num_facets,):
        raise CoefficientError(f"need one value per boundary facet, got {k.shape}")
    if k.size and k.min() < 0:
        raise CoefficientError(f"boundary coefficient must be nonnegative, min {k.min():.3e}")
    if mesh.dim == 1:
        return k[:, None, None]
    return (k * facet_measures(mesh))[:, None, None] * _SEG_MASS


def check_state_size(mesh: Mesh, limit: int, label: str) -> np.ndarray:
    """Active nodes of mesh, once the state they carry is known to fit limit.

    The state dimension is twice the active nodes.  Above limit it is a
    ProblemSizeError naming label, raised before anything the size of the
    cell list is built.
    """
    active = active_nodes(mesh)
    if 2 * active.size > limit:
        raise ProblemSizeError(
            f"{label}: state dimension {2 * active.size} exceeds {limit}, "
            "the largest this package attempts"
        )
    return active


class _Pattern:
    """One sorted CSR pattern for every P1 form of a mesh on a node set.

    A triplet is local[e, i, j], at row elements[e, i] and column
    elements[e, j], in the order of local.ravel(): element by element,
    row-major within each.  The entries are the (row, col) pairs, both in
    nodes, of the triplets of mesh.cells and mesh.boundary_facets, found by
    one np.unique; rows and columns are positions in nodes.  cells and
    facets give each triplet its slot, in that order; a triplet off the
    node set goes to the spare slot nnz, which sum discards.
    """

    def __init__(self, mesh: Mesh, nodes: np.ndarray):
        n = self.n = nodes.size
        slot = np.full(mesh.num_nodes, n)
        slot[nodes] = np.arange(n)
        pairs = []
        for elements in (mesh.cells, mesh.boundary_facets):
            s = slot[elements]
            rows, cols = s[:, :, None], s[:, None, :]
            pairs.append(np.where((rows < n) & (cols < n), rows * n + cols, n * n).ravel())
        key, entry = np.unique(np.concatenate(pairs), return_inverse=True)
        self.nnz = int(np.searchsorted(key, n * n))
        self.cells, self.facets = np.split(entry, [pairs[0].size])
        self.rows, self.indices = np.divmod(key[: self.nnz], max(n, 1))
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1))

    def sum(self, local: np.ndarray, entry: np.ndarray) -> np.ndarray:
        """Value of every entry: its triplets summed from zero in input order.

        local holds the element matrices of the cells or of the facets, as
        entry is cells or facets.  np.bincount sums as np.add.at and
        toarray() do, so the values are the dense block's bit for bit.
        """
        return np.bincount(entry, weights=local.ravel(), minlength=self.nnz)[: self.nnz]

    def csr(self, values: np.ndarray) -> csr_matrix:
        """CSR matrix of values on the pattern, with the zero entries dropped.

        eliminate_zeros compacts data, indices and indptr in place, so it
        gets copies and neither values nor the pattern is altered.
        """
        block = csr_matrix((values, self.indices, self.indptr), shape=(self.n, self.n), copy=True)
        block.eliminate_zeros()
        return block


def _dense_view(name: str) -> property:
    """Read-only dense copy of the CSR matrix name + "_csr", made on every read."""
    return property(lambda self: getattr(self, f"{name}_csr").toarray())


@dataclass(frozen=True)
class OperatorPencil:
    """Reduced matrices of one wave model, plus the index bookkeeping.

    active: node indices kept after eliminating clamped nodes, sorted.
    trace_slots: positions inside `active` of the trace nodes.
    Every matrix is restricted to active nodes and stored once, as CSR
    with no stored zeros, and no field is dense.  displacement_gram_csr
    (S) and mass_csr (M) are certified at assembly by gram_factors.
    dynamics_vu_csr (Cvu = -S - Ma) and dynamics_vv_csr
    (Cvv = -D - Mb) are the generator's velocity row, interior reaction
    and damping included; its displacement row is [0, S] for every model,
    so no pencil holds a generator of any other shape.  gram_csr and
    dynamics_csr act on stacked [u; v] states of length 2 * num_active and
    are stacked from the stored blocks on each read.  mass, stiffness,
    boundary_spring, boundary_damper, displacement_gram, gram and dynamics
    are dense views: each read builds a fresh toarray() of its CSR matrix,
    which nothing stores.
    """

    mesh: Mesh
    coeffs: CoefficientSet
    active: np.ndarray
    trace_slots: np.ndarray
    mass_csr: csr_matrix
    stiffness_csr: csr_matrix
    boundary_spring_csr: csr_matrix
    boundary_damper_csr: csr_matrix
    displacement_gram_csr: csr_matrix
    dynamics_vu_csr: csr_matrix
    dynamics_vv_csr: csr_matrix

    mass = _dense_view("mass")
    stiffness = _dense_view("stiffness")
    boundary_spring = _dense_view("boundary_spring")
    boundary_damper = _dense_view("boundary_damper")
    displacement_gram = _dense_view("displacement_gram")
    gram = _dense_view("gram")
    dynamics = _dense_view("dynamics")

    @cached_property
    def gram_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(L_S, L_M), the band factors of S and M, certified once on first read.

        A failure of S is DegenerateEnergyNormError when the model has no
        fixed boundary and no boundary spring, else NotPositiveDefiniteError
        naming the displacement energy form.  A dataclasses.replace copy is
        a new pencil and factors its own blocks.
        """
        try:
            stiff = linalg.certify_positive_definite(self.displacement_gram_csr)
        except NotPositiveDefiniteError as exc:
            if not energy_anchored(self.mesh, self.coeffs):
                raise DegenerateEnergyNormError(DEGENERATE_ENERGY) from exc
            raise NotPositiveDefiniteError(
                "displacement energy form (stiffness plus boundary spring) "
                f"is not positive definite: {exc}"
            ) from exc
        return stiff, linalg.certify_positive_definite(self.mass_csr)

    @property
    def gram_csr(self) -> csr_matrix:
        """blockdiag(S, M), stacked on each read."""
        zero = csr_matrix(self.mass_csr.shape)
        return bmat([[self.displacement_gram_csr, zero], [zero, self.mass_csr]], format="csr")

    @property
    def dynamics_csr(self) -> csr_matrix:
        """The generator [[0, S], [Cvu, Cvv]], stacked on each read."""
        zero = csr_matrix(self.mass_csr.shape)
        top = [zero, self.displacement_gram_csr]
        return bmat([top, [self.dynamics_vu_csr, self.dynamics_vv_csr]], format="csr")

    @property
    def num_active(self) -> int:
        return self.active.shape[0]

    @property
    def num_trace(self) -> int:
        return self.trace_slots.shape[0]

    @property
    def state_dim(self) -> int:
        return 2 * self.num_active

    def split(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = self.num_active
        if state.shape[-1] != 2 * m:
            raise ValueError(f"state length {state.shape[-1]} != {2 * m}")
        return state[..., :m], state[..., m:]

    def join(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.concatenate([u, v], axis=-1)


def assemble_pencil(
    mesh: Mesh, coeffs: CoefficientSet, kinetic: str = "consistent"
) -> OperatorPencil:
    """Assemble and reduce all model matrices; checks the energy form.

    kinetic selects the kinetic mass M: "consistent" (the P1 mass, any
    dimension) or "cell_average" (the mass of cell averages, which keeps
    the damped-string spectral gap uniform in h).  "cell_average" needs a 1-D
    mesh with at least one fixed end, else KineticMassError; any other
    value is a ValueError.  A state above MAX_PENCIL_STATE is a
    ProblemSizeError.

    Reading the pencil's gram_factors certifies S and M here.
    """
    active = check_state_size(mesh, MAX_PENCIL_STATE, "dense model")
    # One geometry pass: every element builder shares the cell volumes.
    vols = cell_volumes(mesh)
    kinetic_mass = _mass_local(mesh, vols, coeffs.density, kinetic)
    if kinetic == "cell_average" and clamped_nodes(mesh).size == 0:
        raise KineticMassError(
            "cell-average kinetic mass needs a fixed end: without one the "
            "alternating nodal vector has zero cell averages, so M is singular"
        )
    trace_slots = np.searchsorted(active, trace_nodes(mesh))
    pattern = _Pattern(mesh, active)
    cells, facets = pattern.cells, pattern.facets
    stiff = pattern.sum(
        _stiffness_local(mesh, vols, modulus_tensors(mesh, coeffs.modulus)), cells
    )
    spring = pattern.sum(_boundary_local(mesh, coeffs.boundary_stiffness), facets)
    damper = pattern.sum(_boundary_local(mesh, coeffs.boundary_damping), facets)
    mass = pattern.sum(kinetic_mass, cells)
    reaction = pattern.sum(_mass_local(mesh, vols, coeffs.reaction), cells)
    damping = pattern.sum(_mass_local(mesh, vols, coeffs.damping), cells)
    disp_gram = stiff + spring
    stiff, spring, damper, disp_gram, mass, vu, vv = map(
        pattern.csr,
        (stiff, spring, damper, disp_gram, mass, -disp_gram - reaction, -damper - damping),
    )

    pencil = OperatorPencil(
        mesh=mesh,
        coeffs=coeffs,
        active=active,
        trace_slots=trace_slots,
        mass_csr=mass,
        stiffness_csr=stiff,
        boundary_spring_csr=spring,
        boundary_damper_csr=damper,
        displacement_gram_csr=disp_gram,
        dynamics_vu_csr=vu,
        dynamics_vv_csr=vv,
    )
    pencil.gram_factors  # certifies S and M; the factors stay on the pencil
    return pencil


@dataclass(frozen=True)
class DomainElement:
    """A state with its boundary flux data: (u, v, g).

    displacement and velocity are nodal vectors over active nodes; the
    flux trace g collects the weak normal-stress functionals on the trace
    nodes, indexed like trace_slots.
    """

    displacement: np.ndarray
    velocity: np.ndarray
    flux_trace: np.ndarray


def _check_element(pencil: OperatorPencil, elem: DomainElement) -> None:
    m, ntr = pencil.num_active, pencil.num_trace
    if elem.displacement.shape != (m,) or elem.velocity.shape != (m,):
        raise ValueError(f"element fields must have length {m}")
    if elem.flux_trace.shape != (ntr,):
        raise ValueError(f"flux trace must have length {ntr}")


def lift_trace(pencil: OperatorPencil, values: np.ndarray) -> np.ndarray:
    """Embed trace-node values into a zero-padded active-node vector."""
    out = np.zeros(pencil.num_active)
    out[pencil.trace_slots] = values
    return out


def apply_A(pencil: OperatorPencil, elem: DomainElement) -> np.ndarray:
    """Image of a domain element under the wave generator, as a state.

    The displacement part of the image is the velocity; the velocity part
    solves M vdot = -K u + lift(g), the discrete divergence of the stress
    with its boundary flux, with the pencil's band factor of M.
    """
    _check_element(pencil, elem)
    rhs = -(pencil.stiffness_csr @ elem.displacement) + lift_trace(pencil, elem.flux_trace)
    vdot = scipy.linalg.cho_solve_banded((pencil.gram_factors[1], True), rhs)
    return pencil.join(elem.velocity, vdot)


def trace_B1(pencil: OperatorPencil, elem: DomainElement) -> np.ndarray:
    """First boundary map: spring force plus stress flux, on trace nodes.

    Functional-valued (it pairs against nodal data by plain dot product).
    """
    _check_element(pencil, elem)
    spring_force = (pencil.boundary_spring_csr @ elem.displacement)[pencil.trace_slots]
    return spring_force + elem.flux_trace


def trace_B2(pencil: OperatorPencil, elem: DomainElement) -> np.ndarray:
    """Second boundary map: velocity restricted to the trace nodes."""
    _check_element(pencil, elem)
    return elem.velocity[pencil.trace_slots]


def duality_pairing(flux: np.ndarray, values: np.ndarray) -> float:
    """Pair a functional-indexed vector with a nodal-indexed one."""
    return float(np.dot(flux, values))


def state_inner(pencil: OperatorPencil, x: np.ndarray, y: np.ndarray) -> float:
    """Inner product of two states in the energy Gram metric."""
    ux, vx = pencil.split(x)
    uy, vy = pencil.split(y)
    return float(ux @ (pencil.displacement_gram_csr @ uy) + vx @ (pencil.mass_csr @ vy))


def state_norm(pencil: OperatorPencil, x: np.ndarray) -> float:
    """Norm of a state in the energy Gram metric."""
    return float(np.sqrt(max(state_inner(pencil, x, x), 0.0)))


def physical_energy(pencil: OperatorPencil, x: np.ndarray) -> float:
    """Kinetic plus strain energy; omits the boundary spring term."""
    u, v = pencil.split(x)
    return float(u @ (pencil.stiffness_csr @ u) + v @ (pencil.mass_csr @ v))


def dissipation_forms(pencil: OperatorPencil) -> tuple[csr_matrix, csr_matrix]:
    """CSR Ma and D + Mb, assembled from the coefficients, not read back."""
    mesh, coeffs = pencil.mesh, pencil.coeffs
    pattern, vols = _Pattern(mesh, pencil.active), cell_volumes(mesh)
    reaction = pattern.sum(_mass_local(mesh, vols, coeffs.reaction), pattern.cells)
    damping = pattern.sum(_mass_local(mesh, vols, coeffs.damping), pattern.cells)
    damper = pattern.sum(_boundary_local(mesh, coeffs.boundary_damping), pattern.facets)
    return pattern.csr(reaction), pattern.csr(damping + damper)


def element_inner(pencil: OperatorPencil, ex: DomainElement, ey: DomainElement) -> float:
    """State inner product of two domain elements (flux data not involved)."""
    x = pencil.join(ex.displacement, ex.velocity)
    y = pencil.join(ey.displacement, ey.velocity)
    return state_inner(pencil, x, y)


def green_identity_residual(
    pencil: OperatorPencil, ex: DomainElement, ey: DomainElement
) -> float:
    """Defect of the boundary Green identity on a pair of elements.

    Evaluates <Ax, y> + <x, Ay> - <B1 x, B2 y> - <B2 x, B1 y> with the
    velocity-block inner products expanded in weak form, so no linear
    solve enters and the identity holds to rounding.
    """
    _check_element(pencil, ex)
    _check_element(pencil, ey)

    def pair(ea: DomainElement, eb: DomainElement) -> float:
        # <A ea, eb> with M^{-1} cancelled against the mass weight.
        first = ea.velocity @ (pencil.displacement_gram_csr @ eb.displacement)
        weak = -(pencil.stiffness_csr @ ea.displacement) + lift_trace(pencil, ea.flux_trace)
        return float(first + weak @ eb.velocity)

    lhs = pair(ex, ey) + pair(ey, ex)
    rhs = duality_pairing(trace_B1(pencil, ex), trace_B2(pencil, ey)) + duality_pairing(
        trace_B2(pencil, ex), trace_B1(pencil, ey)
    )
    return abs(lhs - rhs)


def surjectivity_witness(
    pencil: OperatorPencil,
    flux_target: np.ndarray,
    velocity_target: np.ndarray,
    displacement: np.ndarray | None = None,
) -> DomainElement:
    """Element whose boundary maps hit the given pair exactly.

    The velocity is the lifted velocity target and the flux trace is the
    flux target minus the spring force of the chosen displacement; any
    displacement works, which is the point of the construction.  With the
    default zero displacement, B1 = flux_target and B2 = velocity_target
    with no arithmetic error at all.
    """
    ntr = pencil.num_trace
    flux_target = np.asarray(flux_target, dtype=float)
    velocity_target = np.asarray(velocity_target, dtype=float)
    if flux_target.shape != (ntr,) or velocity_target.shape != (ntr,):
        raise ValueError(f"targets must have length {ntr}")
    if displacement is None:
        displacement = np.zeros(pencil.num_active)
        flux = flux_target.copy()
    else:
        displacement = np.asarray(displacement, dtype=float)
        if displacement.shape != (pencil.num_active,):
            raise ValueError(f"displacement must have length {pencil.num_active}")
        flux = flux_target - (pencil.boundary_spring_csr @ displacement)[pencil.trace_slots]
    return DomainElement(
        displacement=displacement,
        velocity=lift_trace(pencil, velocity_target),
        flux_trace=flux,
    )
