"""Time evolution of the assembled model by the Cayley (midpoint) scheme.

The midpoint map solves (gram - h dyn) x_next = (gram + h dyn) x with
h = dt/2, gram = blockdiag(S, M) and dyn = [[0, S], [Cvu, Cvv]], the whole
generator including interior reaction and damping.  The pencil stores its
velocity row Cvu, Cvv; the displacement row is [0, S] for every pencil,
so the first block row reads S(u_next - u - h(v + v_next)) = 0, the
displacement is eliminated and one step solves a system half the size
(the velocity form of the trapezoidal, average-acceleration scheme):

    (M - h Cvv - h^2 Cvu) v_next = 2h Cvu u + (M + h Cvv + h^2 Cvu) v,
    u_next = u + h (v + v_next).

It is the same map in exact arithmetic.  The scheme is A-stable and keeps
the energy balance |x_next|^2 - |x|^2 = -2 dt [v'(D + Mb)v + u'Ma v] exactly,
with (u, v) the mean of the two states and |.| the Gram norm.  simulate
checks it after every step of every model, with Ma and D + Mb from
dissipation_forms and the left side polarized as 2 (u, v)'G(x_next - x),
so no two close squared norms cancel.  Each step is recorded from one
stacked product [K 0; S 0; 0 M] x and one [D + Mb; Ma] v at the midpoint.
Only two states are held at a time.  Explicit schemes are deliberately
not offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import bmat, csr_matrix, hstack, vstack

from . import linalg
from .assembly import OperatorPencil, dissipation_forms, physical_energy, state_norm
from .errors import (
    ContractionBreachError,
    InitialDataError,
    ProblemSizeError,
    SingularMatrixError,
)
from .mesh import clamped_nodes

# Per-step energy-balance defect allowed, relative to the size of its terms.
BALANCE_RTOL = 1e-10
# Largest number of float64 values a trajectory records, 3 (nsteps + 1) for
# the times, energies and norms: 1 GiB.
MAX_TRAJECTORY_VALUES = 2**27


class CayleyStepper:
    """Cached-factorization midpoint stepper for one pencil and step size.

    Solves for the velocity only (see the module docstring).  With h = dt/2
    and Cvu, Cvv the pencil's velocity row, the m x m matrix
    M - h Cvv - h^2 Cvu = M + h(D + Mb) + h^2(S + Ma) is factored once by
    sparse LU and [2h Cvu, M + h Cvv + h^2 Cvu] is applied as one m x 2m
    CSR product.  The matrix is bitwise symmetric and, unless negative
    damping or reaction make it indefinite, positive definite, so
    linalg.LuFactorization factors it in SuperLU's symmetric mode.
    """

    def __init__(self, pencil: OperatorPencil, dt: float):
        if not dt > 0:
            raise ValueError(f"step size must be positive, got {dt}")
        self.pencil = pencil
        self.dt = float(dt)
        self._m = pencil.num_active
        half = self._half = 0.5 * self.dt
        vu, vv, mass = pencil.dynamics_vu_csr, pencil.dynamics_vv_csr, pencil.mass_csr
        square = half * half
        self._rhs = hstack([2.0 * half * vu, mass + half * vv + square * vu], format="csr")
        self._solver = linalg.LuFactorization(mass - half * vv - square * vu)

    def step(self, state: np.ndarray) -> np.ndarray:
        m = self._m
        v_next = self._solver.solve(self._rhs @ state)
        return np.concatenate([state[:m] + self._half * (state[m:] + v_next), v_next])


@dataclass(frozen=True)
class Trajectory:
    """Energy and norm per sample of one run, and the run's final state."""

    times: np.ndarray      # (nsteps + 1,)
    states: np.ndarray     # (1, state_dim), the state at times[-1]
    energy: np.ndarray     # (nsteps + 1,) physical energy
    xnorm: np.ndarray      # (nsteps + 1,) state norm in the gram metric
    balance_worst_ratio: float  # largest step balance defect / its bound, 0 if none

    def __len__(self) -> int:
        return self.times.shape[0]


def check_run_length(nsteps: float) -> None:
    """ProblemSizeError if nsteps (a float, inf included) steps record too many values."""
    if not 3 * (nsteps + 1) <= MAX_TRAJECTORY_VALUES:
        raise ProblemSizeError(
            f"{nsteps} steps would record more than {MAX_TRAJECTORY_VALUES} values, "
            "the largest trajectory this package keeps"
        )


def simulate(
    pencil: OperatorPencil, x0: np.ndarray, dt: float, nsteps: int
) -> Trajectory:
    """Run nsteps Cayley steps from x0, recording energy and norm each step.

    Two states are held at a time; the trajectory keeps the last (a copy of
    x0 when nsteps is 0).  A step whose energy-balance defect exceeds
    BALANCE_RTOL times the sum of the magnitudes of its terms, or is NaN,
    raises ContractionBreachError.
    A run that would record more than MAX_TRAJECTORY_VALUES values is refused
    with ProblemSizeError before anything is allocated or factored, and so
    is an x0 whose energy or norm is not finite, with InitialDataError.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (pencil.state_dim,):
        raise ValueError(f"initial state must have length {pencil.state_dim}")
    if nsteps < 0:
        raise ValueError("nsteps must be nonnegative")
    check_run_length(nsteps)
    # Finite data too large for float64 overflow here: say so, quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        energy0, xnorm0 = physical_energy(pencil, x0), state_norm(pencil, x0)
    if not (np.isfinite(energy0) and np.isfinite(xnorm0)):
        raise InitialDataError(
            f"initial energy {energy0:.3e} or norm {xnorm0:.3e} is not finite: "
            "the initial data are too large for float64"
        )
    reaction, damper = dissipation_forms(pencil)
    stepper = CayleyStepper(pencil, dt)
    # One product gives K u, S u and M v, the terms of the energy and the
    # norm; one more gives (D + Mb) v and Ma v at the midpoint.  Every block
    # is CSR, the zero ones empty, so bmat stacks by concatenation; a None
    # block would send it through COO copies of all of them.
    zero = csr_matrix(pencil.mass_csr.shape)
    record = bmat(
        [
            [pencil.stiffness_csr, zero],
            [pencil.displacement_gram_csr, zero],
            [zero, pencil.mass_csr],
        ],
        format="csr",
    )
    forms = vstack([damper, reaction], format="csr")
    gram = pencil.gram_csr

    energy = np.zeros(nsteps + 1)
    xnorm = np.zeros(nsteps + 1)
    energy[0], xnorm[0] = energy0, xnorm0
    x, worst = x0.copy(), 0.0
    for k in range(1, nsteps + 1):
        prev, x = x, stepper.step(x)
        u, v = pencil.split(x)
        stiff_u, gram_u, mass_v = np.split(record @ x, 3)
        kinetic = v @ mass_v
        energy[k] = float(u @ stiff_u + kinetic)
        xnorm[k] = float(np.sqrt(max(float(u @ gram_u + kinetic), 0.0)))
        mid = 0.5 * (prev + x)
        u_mid, v_mid = pencil.split(mid)
        damper_v, reaction_v = np.split(forms @ v_mid, 2)
        damped = 2.0 * dt * float(v_mid @ damper_v)
        reacted = 2.0 * dt * float(u_mid @ reaction_v)
        defect = 2.0 * float(mid @ (gram @ (x - prev))) + damped + reacted
        before, after = xnorm[k - 1 : k + 1].tolist()
        bound = BALANCE_RTOL * (after * after + before * before + abs(damped) + abs(reacted))
        if not abs(defect) <= bound:
            raise ContractionBreachError(
                f"energy balance fails at step {k}: defect {defect:.3e} exceeds {bound:.3e}"
            )
        worst = max(worst, abs(defect) / bound) if defect else worst
    times = dt * np.arange(nsteps + 1)
    return Trajectory(times, x[np.newaxis], energy, xnorm, worst)


def initial_state(pencil: OperatorPencil, w0, w1) -> np.ndarray:
    """Nodal state from initial displacement and velocity callables.

    Both callables map an (m, dim) array of points to m values.  Both
    must be finite at every active node, and the displacement must vanish
    at clamped nodes; a violation is a data error (InitialDataError), not
    something to silently project away.
    """
    mesh = pencil.mesh
    pts = mesh.nodes[pencil.active]
    u = np.asarray(w0(pts), dtype=float)
    v = np.asarray(w1(pts), dtype=float)
    if u.shape != (pencil.num_active,) or v.shape != (pencil.num_active,):
        raise InitialDataError("initial data callables must return one value per active node")
    for name, values in (("displacement", u), ("velocity", v)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InitialDataError(
                f"initial {name} is not finite at {bad.size} node(s), "
                f"first at {pts[bad[0]].tolist()}"
            )
    clamped = clamped_nodes(mesh)
    if clamped.size:
        at_clamped = np.asarray(w0(mesh.nodes[clamped]), dtype=float)
        tol = 1e-12 * (1.0 + float(np.abs(u).max(initial=0.0)))
        worst = np.abs(at_clamped).max()
        if not worst <= tol:
            raise InitialDataError(
                f"initial displacement must vanish on the fixed boundary; "
                f"largest violation {worst:.3e}"
            )
    return pencil.join(u, v)


def decay_profile(
    pencil: OperatorPencil, image: np.ndarray, dt: float, nsteps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Norm history of the state whose dynamics image is ``image``.

    Solves dynamics @ x0 = gram @ image for the start state and runs the
    stepper from x0.  With image = (y_u, y_v), the first block row reads
    S v0 = S y_u, and S is positive definite, so v0 = y_u; the second
    leaves the m x m system (S + Ma) u0 = Cvv y_u - M y_v, with
    S + Ma = -Cvu, one symmetric sparse LU.  Returns (times, profile)
    with profile normalized by the graph norm
    sqrt(||x0||^2 + ||image||^2).  No decay-rate law is asserted here; the
    profile is the deliverable.
    """
    image = np.asarray(image, dtype=float)
    y_u, y_v = pencil.split(image)
    rhs = pencil.dynamics_vv_csr @ y_u - pencil.mass_csr @ y_v
    try:
        u0 = linalg.LuFactorization(-pencil.dynamics_vu_csr).solve(rhs)
    except SingularMatrixError as err:
        raise SingularMatrixError(
            "dynamics matrix is singular: zero is an eigenvalue of the "
            "evolution and the start state is not determined"
        ) from err
    x0 = pencil.join(u0, y_u)
    graph = np.sqrt(
        state_norm(pencil, x0) ** 2 + state_norm(pencil, image) ** 2
    )
    traj = simulate(pencil, x0, dt, nsteps)
    if graph == 0.0:
        return traj.times, np.zeros_like(traj.xnorm)
    return traj.times, traj.xnorm / graph


def energy_csv(traj: Trajectory) -> str:
    """CSV text 't,energy,xnorm' with 17 significant digits per field."""
    lines = ["t,energy,xnorm"]
    for t, en, nr in zip(traj.times, traj.energy, traj.xnorm):
        lines.append(f"{t:.17g},{en:.17g},{nr:.17g}")
    return "\n".join(lines) + "\n"
