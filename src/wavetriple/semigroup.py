"""Time evolution of the assembled model by the Cayley (midpoint) scheme.

One step solves (gram - dt/2 * dyn) x_next = (gram + dt/2 * dyn) x with
dyn = pencil.dynamics, the whole generator including interior reaction and
damping.  The scheme is A-stable and norm-exact: for a dissipative model
the state norm never grows, and with no damping it is conserved to
rounding.  Explicit schemes are deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from . import linalg
from .assembly import OperatorPencil, physical_energy, state_norm
from .errors import (
    ContractionBreachError,
    InitialDataError,
    ProblemSizeError,
    SingularMatrixError,
)
from .mesh import clamped_nodes

# Relative per-step growth beyond which a dissipative run is aborted.
BREACH_RTOL = 1e-10
# Largest number of float64 values a trajectory records, (nsteps + 1) times
# (state_dim + 3) for the states, times, energies and norms: 1 GiB.  The
# three per-step values also bound the step count of an empty state.
MAX_TRAJECTORY_VALUES = 2**27


def provably_dissipative(pencil: OperatorPencil) -> bool:
    """True when the symmetric part of the dynamics is certainly <= 0.

    Requires no reaction term and nonnegative interior damping; boundary
    damper coefficients are nonnegative by construction.
    """
    return bool(
        np.all(pencil.coeffs.reaction == 0.0) and np.all(pencil.coeffs.damping >= 0.0)
    )


class CayleyStepper:
    """Cached-factorization midpoint stepper for one pencil and step size.

    Both shifted matrices are formed sparse from CSR copies of gram and
    dyn, with no dense state-size temporary: gram - dt/2 dyn is factored
    once by sparse LU and gram + dt/2 dyn is applied as CSR.
    """

    def __init__(self, pencil: OperatorPencil, dt: float):
        if not dt > 0:
            raise ValueError(f"step size must be positive, got {dt}")
        self.pencil = pencil
        self.dt = float(dt)
        half = 0.5 * self.dt
        gram, dynamics = csr_matrix(pencil.gram), csr_matrix(pencil.dynamics)
        self._plus = gram + half * dynamics
        self._solver = linalg.LuFactorization(gram - half * dynamics)

    def step(self, state: np.ndarray) -> np.ndarray:
        return self._solver.solve(self._plus @ state)


@dataclass(frozen=True)
class Trajectory:
    """Time history of one run: states plus energy and norm per sample."""

    times: np.ndarray      # (nsteps + 1,)
    states: np.ndarray     # (nsteps + 1, state_dim)
    energy: np.ndarray     # (nsteps + 1,) physical energy
    xnorm: np.ndarray      # (nsteps + 1,) state norm in the gram metric

    def __len__(self) -> int:
        return self.times.shape[0]


def simulate(
    pencil: OperatorPencil,
    x0: np.ndarray,
    dt: float,
    nsteps: int,
    enforce_contraction: bool | None = None,
) -> Trajectory:
    """Run nsteps Cayley steps from x0, recording energy and norm each step.

    When the model is provably dissipative (decided automatically unless
    enforce_contraction is forced), any per-step norm growth beyond a
    rounding allowance aborts with ContractionBreachError.  A run that would
    record more than MAX_TRAJECTORY_VALUES values is refused with
    ProblemSizeError before anything is allocated or factored, and so is
    an x0 whose energy or norm is not finite, with InitialDataError.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (pencil.state_dim,):
        raise ValueError(f"initial state must have length {pencil.state_dim}")
    if nsteps < 0:
        raise ValueError("nsteps must be nonnegative")
    if (int(nsteps) + 1) * (pencil.state_dim + 3) > MAX_TRAJECTORY_VALUES:
        raise ProblemSizeError(
            f"{nsteps} steps of state dimension {pencil.state_dim} would record more "
            f"than {MAX_TRAJECTORY_VALUES} values, the largest trajectory this package keeps"
        )
    # Finite data too large for float64 overflow here: say so, quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        energy0, xnorm0 = physical_energy(pencil, x0), state_norm(pencil, x0)
    if not (np.isfinite(energy0) and np.isfinite(xnorm0)):
        raise InitialDataError(
            f"initial energy {energy0:.3e} or norm {xnorm0:.3e} is not finite: "
            "the initial data are too large for float64"
        )
    if enforce_contraction is None:
        enforce_contraction = provably_dissipative(pencil)
    stepper = CayleyStepper(pencil, dt)

    states = np.zeros((nsteps + 1, pencil.state_dim))
    energy = np.zeros(nsteps + 1)
    xnorm = np.zeros(nsteps + 1)
    states[0] = x0
    energy[0], xnorm[0] = energy0, xnorm0
    x = x0
    for k in range(1, nsteps + 1):
        x = stepper.step(x)
        states[k] = x
        energy[k] = physical_energy(pencil, x)
        xnorm[k] = state_norm(pencil, x)
        if enforce_contraction and xnorm[k] > xnorm[k - 1] * (1.0 + BREACH_RTOL):
            raise ContractionBreachError(
                f"norm grew from {xnorm[k - 1]:.17g} to {xnorm[k]:.17g} at step {k}"
            )
    times = dt * np.arange(nsteps + 1)
    return Trajectory(times, states, energy, xnorm)


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

    Solves dynamics @ x0 = gram @ image for the start state, runs the
    stepper from x0, and returns (times, profile) with profile normalized
    by the graph norm sqrt(||x0||^2 + ||image||^2).  No decay-rate law is
    asserted here; the profile is the deliverable.
    """
    image = np.asarray(image, dtype=float)
    try:
        x0 = linalg.LuFactorization(pencil.dynamics).solve(pencil.gram @ image)
    except SingularMatrixError as err:
        raise SingularMatrixError(
            "dynamics matrix is singular: zero is an eigenvalue of the "
            "evolution and the start state is not determined"
        ) from err
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
