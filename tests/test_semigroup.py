"""Tests for the midpoint time stepper and trajectory bookkeeping."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import models
import oracles
import wavetriple as wt
from wavetriple import assembly, linalg, semigroup

DENSE_VIEWS = (
    "mass",
    "stiffness",
    "boundary_spring",
    "boundary_damper",
    "displacement_gram",
    "gram",
    "dynamics",
)


def eliminated_blocks(pencil, half):
    """Dense A = M - h Cvv - h^2 Cvu and R = [2h Cvu, M + h Cvv + h^2 Cvu].

    Cvu and Cvv are the lower block row of the dense generator.
    """
    m = pencil.num_active
    dyn, mass = pencil.dynamics, pencil.mass
    vu, vv = dyn[m:, :m], dyn[m:, m:]
    square = half * half
    explicit = np.hstack([2.0 * half * vu, mass + half * vv + square * vu])
    return mass - half * vv - square * vu, explicit


def dense_cayley_step(pencil, x, dt):
    """The full-size midpoint step, solved densely."""
    dyn, gram = pencil.dynamics, pencil.gram
    return np.linalg.solve(gram - 0.5 * dt * dyn, (gram + 0.5 * dt * dyn) @ x)


class MismatchedStepper(semigroup.CayleyStepper):
    """Midpoint stepper whose implicit matrix is shifted by 1.001 dt / 2."""

    def __init__(self, pencil, dt):
        super().__init__(pencil, dt)
        self._solver = linalg.LuFactorization(eliminated_blocks(pencil, 0.5 * 1.001 * dt)[0])


class LossyStepper(semigroup.CayleyStepper):
    """Midpoint stepper whose every output is shrunk by a factor 1 - 1e-6."""

    def step(self, state):
        return (1.0 - 1e-6) * super().step(state)


class TestCayleyStep:
    def test_undamped_step_is_isometry(self):
        pencil = models.dirichlet_pencil(16)
        rng = np.random.default_rng(1)
        x = models.random_state(pencil, rng)
        y = wt.CayleyStepper(pencil, 0.05).step(x)
        nx, ny = wt.state_norm(pencil, x), wt.state_norm(pencil, y)
        assert abs(ny - nx) <= 1e-12 * nx

    def test_zero_state_fixed_point(self):
        pencil = models.damped_pencil(8)
        y = wt.CayleyStepper(pencil, 0.1).step(np.zeros(pencil.state_dim))
        assert np.abs(y).max() == 0.0

    def test_damped_steps_monotone(self):
        pencil = models.damped_pencil(20)
        rng = np.random.default_rng(2)
        x = models.random_state(pencil, rng)
        stepper = semigroup.CayleyStepper(pencil, 0.02)
        prev = wt.state_norm(pencil, x)
        for _ in range(100):
            x = stepper.step(x)
            cur = wt.state_norm(pencil, x)
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur

    def test_step_matches_dense_solve(self):
        mesh = wt.interval_mesh(12, right=wt.BoundaryLabel.ELASTIC_DAMPED)
        perturbed = wt.assemble_pencil(
            mesh,
            wt.sample_coefficients(
                mesh, reaction=0.5, damping=0.25, boundary_stiffness=1.0, boundary_damping=2.0
            ),
        )
        expansive = models.interior_pencil(mesh, reaction=-0.5, damping=-1.0)
        rng = np.random.default_rng(4)
        for pencil in (
            models.damped_pencil(16),
            models.square_pencil(4, 5, seed=3),
            perturbed,
            expansive,
        ):
            dt = 0.03
            x = models.random_state(pencil, rng)
            want = dense_cayley_step(pencil, x, dt)
            got = semigroup.CayleyStepper(pencil, dt).step(x)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            # The eliminated matrices are summed from CSR blocks; summing
            # the dense blocks first and converting gives the same bits.
            implicit, explicit = eliminated_blocks(pencil, 0.5 * dt)
            v_next = linalg.LuFactorization(implicit).solve(csr_matrix(explicit) @ x)
            u, v = pencil.split(x)
            assert np.array_equal(got, pencil.join(u + 0.5 * dt * (v + v_next), v_next))

    def test_shifted_matrices_have_the_dense_pattern(self, monkeypatch):
        # A and R are summed from the pencil's CSR forms; building them from
        # the dense blocks and converting gives the same pattern and bits,
        # so SuperLU sees the same matrix and picks the same ordering.
        factored = []
        real_init = linalg.LuFactorization.__init__

        def capture(self, mat):
            factored.append(mat)
            real_init(self, mat)

        monkeypatch.setattr(linalg.LuFactorization, "__init__", capture)
        mesh = wt.rectangle_mesh(5, 4, models.square_partition())
        interior = wt.assemble_pencil(
            mesh, wt.sample_coefficients(mesh, reaction=0.5, damping=lambda p: p[:, 0])
        )
        half = 0.015
        for pencil in models.ci_pencils() + [interior]:
            stepper = semigroup.CayleyStepper(pencil, 2.0 * half)
            implicit, explicit = eliminated_blocks(pencil, half)
            pairs = ((stepper._rhs, csr_matrix(explicit)), (factored[-1], csr_matrix(implicit)))
            for got, want in pairs:
                assert np.all(got.data != 0.0)
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.data, want.data)

    def test_nonpositive_dt_rejected(self):
        pencil = models.damped_pencil(4)
        with pytest.raises(ValueError):
            wt.CayleyStepper(pencil, 0.0).step(np.zeros(pencil.state_dim))

    def test_midpoint_energy_balance_identity(self):
        # Per step: |x1|^2 - |x0|^2 = -2 dt * vmid' D vmid, to rounding.
        pencil = models.damped_pencil(16, k2=2.5)
        rng = np.random.default_rng(3)
        x0 = models.random_state(pencil, rng)
        dt = 0.03
        x1 = wt.CayleyStepper(pencil, dt).step(x0)
        _, v0 = pencil.split(x0)
        _, v1 = pencil.split(x1)
        vmid = 0.5 * (v0 + v1)
        drop = wt.state_norm(pencil, x1) ** 2 - wt.state_norm(pencil, x0) ** 2
        want = -2.0 * dt * float(vmid @ pencil.boundary_damper @ vmid)
        assert abs(drop - want) <= 1e-10 * (abs(drop) + abs(want) + 1.0)


class TestSimulate:
    def test_undamped_energy_and_norm_constant(self):
        pencil = models.dirichlet_pencil(32)
        x0 = semigroup.initial_state(
            pencil,
            lambda p: np.sin(np.pi * p[:, 0]),
            lambda p: np.zeros(p.shape[0]),
        )
        traj = wt.simulate(pencil, x0, 0.01, 200)
        drift = np.abs(traj.xnorm - traj.xnorm[0]).max()
        assert drift <= 1e-10 * traj.xnorm[0]
        endrift = np.abs(traj.energy - traj.energy[0]).max()
        assert endrift <= 1e-10 * traj.energy[0]

    def test_damped_run_decays_and_records(self):
        pencil = models.damped_pencil(24)
        rng = np.random.default_rng(4)
        x0 = models.random_state(pencil, rng)
        traj = wt.simulate(pencil, x0, 0.02, 150)
        assert len(traj) == 151
        assert traj.states.shape == (1, pencil.state_dim)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.xnorm[-1] < traj.xnorm[0]
        assert np.all(np.diff(traj.xnorm) <= 1e-10 * traj.xnorm[:-1] + 1e-300)
        stepper, x = wt.CayleyStepper(pencil, 0.02), x0
        for _ in range(150):
            x = stepper.step(x)
        assert np.array_equal(traj.states[-1], x)

    def test_fused_record_equals_energy_and_norm_bitwise(self):
        # simulate records K u, S u and M v from one stacked product; each
        # sample, x0's included, equals physical_energy and state_norm of
        # its state.
        for pencil in models.ci_pencils() + models.cell_average_pencils():
            rng = np.random.default_rng(pencil.state_dim)
            x0 = models.random_state(pencil, rng)
            one, two = wt.simulate(pencil, x0, 0.02, 1), wt.simulate(pencil, x0, 0.02, 2)
            for traj in (one, two):
                x = traj.states[0]
                assert traj.energy[-1] == wt.physical_energy(pencil, x)
                assert traj.xnorm[-1] == wt.state_norm(pencil, x)
                assert traj.energy[0] == wt.physical_energy(pencil, x0)
                assert traj.xnorm[0] == wt.state_norm(pencil, x0)
            assert two.energy[1] == one.energy[1] and two.xnorm[1] == one.xnorm[1]

    def test_worst_ratio_equals_the_balance_from_separate_products(self):
        # simulate reads G (x_next - x), (D + Mb) v and Ma v from one stacked
        # product; taken one by one they give the reported ratio bit for bit.
        square = wt.rectangle_mesh(5, 4, models.square_partition())
        interval = wt.interval_mesh(12, right=wt.BoundaryLabel.ELASTIC_DAMPED)
        interior = [
            models.interior_pencil(mesh, reaction=1.5, damping=0.5) for mesh in (interval, square)
        ]
        dt, nsteps = 0.02, 10
        for pencil in models.ci_pencils() + interior:
            x = models.random_state(pencil, np.random.default_rng(pencil.state_dim))
            traj = wt.simulate(pencil, x, dt, nsteps)
            gram, (reaction, damper) = pencil.gram_csr, assembly.dissipation_forms(pencil)
            stepper, worst = semigroup.CayleyStepper(pencil, dt), 0.0
            for _ in range(nsteps):
                prev, x = x, stepper.step(x)
                mid = 0.5 * (prev + x)
                u_mid, v_mid = pencil.split(mid)
                damped = 2.0 * dt * float(v_mid @ (damper @ v_mid))
                reacted = 2.0 * dt * float(u_mid @ (reaction @ v_mid))
                defect = 2.0 * float(mid @ (gram @ (x - prev))) + damped + reacted
                before, after = wt.state_norm(pencil, prev), wt.state_norm(pencil, x)
                terms = after * after + before * before + abs(damped) + abs(reacted)
                bound = semigroup.BALANCE_RTOL * terms
                worst = max(worst, abs(defect) / bound) if defect else worst
            assert 0.0 < worst <= 1.0
            assert traj.balance_worst_ratio == worst

    def test_memory_does_not_grow_with_the_history(self):
        # 2,001 states of length 400 would take 6.4 MB; the run keeps two.
        pencil = models.damped_pencil(200)
        x0 = models.random_state(pencil, np.random.default_rng(9))
        nsteps = 2000
        wt.simulate(pencil, x0, 0.01, 2)  # first-call imports and caches
        tracemalloc.start()
        try:
            wt.simulate(pencil, x0, 0.01, nsteps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        history = (nsteps + 1) * pencil.state_dim * 8
        assert peak < history / 8

    def test_trajectory_guard_counts_only_the_recorded_values(self, monkeypatch):
        # Three values per sample: 3 * 101 fits in 1,000, 3 * 334 does not,
        # whatever the state dimension.
        monkeypatch.setattr(semigroup, "MAX_TRAJECTORY_VALUES", 1000)
        pencil = models.damped_pencil(24)
        x0 = models.random_state(pencil, np.random.default_rng(10))
        assert pencil.state_dim == 48
        assert len(wt.simulate(pencil, x0, 0.01, 100)) == 101
        with pytest.raises(wt.ProblemSizeError, match="333 steps would record more than 1000"):
            wt.simulate(pencil, x0, 0.01, 333)

    def test_contraction_breach_detected(self, monkeypatch):
        # Negative interior damping makes the flow expansive; its steps keep
        # the energy balance and pass.  A stepper that factors its implicit
        # matrix with 1.001 dt breaks the balance and has to trip the check.
        mesh = wt.interval_mesh(12)
        coeffs = wt.sample_coefficients(mesh, damping=-2.0)
        pencil = wt.assemble_pencil(mesh, coeffs)
        rng = np.random.default_rng(5)
        x0 = models.random_state(pencil, rng)
        grown = wt.simulate(pencil, x0, 0.05, 40)
        assert grown.xnorm[-1] > grown.xnorm[0]
        assert 0.0 < grown.balance_worst_ratio <= 1.0
        monkeypatch.setattr(semigroup, "CayleyStepper", MismatchedStepper)
        with pytest.raises(wt.ContractionBreachError, match="energy balance fails at step 1:"):
            wt.simulate(pencil, x0, 0.05, 40)

    @pytest.mark.parametrize(
        ("faulty", "message"),
        [(MismatchedStepper, "at step 1:"), (LossyStepper, "at step 1: defect -")],
        ids=["mismatched", "lossy"],
    )
    def test_injected_gain_or_loss_detected_on_every_model(self, monkeypatch, faulty, message):
        # A dissipative model, a model with reaction and an expansive one:
        # each is checked at every step, through simulate and decay_profile.
        # The lossy stepper never grows the norm, so a growth check passes it.
        mesh = wt.interval_mesh(12, right=wt.BoundaryLabel.ELASTIC_DAMPED)
        pencils = [
            models.damped_pencil(16),
            models.interior_pencil(mesh, reaction=1.5, damping=0.5),
            models.interior_pencil(mesh, reaction=-0.5, damping=-1.0),
        ]
        rng = np.random.default_rng(11)
        states = [models.random_state(pencil, rng) for pencil in pencils]
        for pencil, x0 in zip(pencils, states):
            assert wt.simulate(pencil, x0, 0.02, 10).balance_worst_ratio <= 1.0
        monkeypatch.setattr(semigroup, "CayleyStepper", faulty)
        for pencil, x0 in zip(pencils, states):
            with pytest.raises(wt.ContractionBreachError, match=message):
                wt.simulate(pencil, x0, 0.02, 10)
            with pytest.raises(wt.ContractionBreachError, match=message):
                wt.decay_profile(pencil, x0, 0.02, 10)

    def test_certificate_does_not_read_the_generator(self):
        # Dropping the interior damping from the generator's velocity row
        # changes the steps but not the forms the balance is checked against.
        mesh = wt.interval_mesh(12, right=wt.BoundaryLabel.ELASTIC_DAMPED)
        pencil = models.interior_pencil(mesh, reaction=0.5, damping=1.0)
        wrong = dataclasses.replace(pencil, dynamics_vv_csr=-pencil.boundary_damper_csr)
        x0 = models.random_state(pencil, np.random.default_rng(13))
        assert wt.simulate(pencil, x0, 0.02, 10).balance_worst_ratio <= 1.0
        with pytest.raises(wt.ContractionBreachError, match="at step 1:"):
            wt.simulate(wrong, x0, 0.02, 10)

    def test_balance_on_ci_and_cell_average_models(self):
        rng = np.random.default_rng(14)
        for pencil in models.ci_pencils() + models.cell_average_pencils():
            x0 = models.random_state(pencil, rng)
            traj = wt.simulate(pencil, x0, 0.03, 20)
            assert 0.0 < traj.balance_worst_ratio <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_balance_holds_on_random_models(self, data):
        pencil, rng = models.draw_random_pencil(data)
        dt = data.draw(st.floats(1e-3, 0.5), label="dt")
        traj = wt.simulate(pencil, models.random_state(pencil, rng), dt, 8)
        assert 0.0 <= traj.balance_worst_ratio <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_step_matches_dense_solve_on_random_models(self, data):
        # Compared in the Gram norm, in which the step is a contraction: the
        # dense reference's own max-norm error grows with the conditioning
        # of the random coefficients.
        pencil, rng = models.draw_random_pencil(data)
        dt = data.draw(st.floats(1e-3, 0.5), label="dt")
        x = models.random_state(pencil, rng)
        want = dense_cayley_step(pencil, x, dt)
        got = semigroup.CayleyStepper(pencil, dt).step(x)
        assert wt.state_norm(pencil, got - want) <= 1e-12 * wt.state_norm(pencil, want)

    def test_balance_ratio_on_a_fine_string(self):
        # The worst ratio grows with n on the 1-D string; 6.4e-3 was measured
        # at n = 4,096 before the defect was polarized (6.3e-5 after), and the
        # bound pinned at twice the former.
        pencil = models.damped_pencil(4096, k2=3.0)
        x0 = semigroup.initial_state(
            pencil, lambda p: p[:, 0], lambda p: np.zeros(p.shape[0])
        )
        traj = wt.simulate(pencil, x0, 0.01, 200)
        assert 0.0 < traj.balance_worst_ratio <= 1.3e-2

    def test_balance_holds_on_a_string_between_powers_of_two(self):
        # The difference of squared norms read 2.2e-10 against a bound of
        # 2.0e-10 at step 1 here; the polarized defect's worst ratio is 2.8e-2.
        pencil = models.damped_pencil(4160, k2=3.0)
        x0 = semigroup.initial_state(
            pencil, lambda p: p[:, 0], lambda p: np.zeros(p.shape[0])
        )
        traj = wt.simulate(pencil, x0, 0.01, 200)
        assert len(traj) == 201
        assert 0.0 < traj.balance_worst_ratio <= 1.0

    @pytest.mark.parametrize("case", ["fully-clamped", "no-steps", "zero-state"])
    def test_trivial_runs_report_ratio_zero(self, case):
        mesh = wt.interval_mesh(1) if case == "fully-clamped" else wt.interval_mesh(8)
        pencil = wt.assemble_pencil(mesh, wt.sample_coefficients(mesh, reaction=1.0))
        x0 = np.zeros(pencil.state_dim)
        if case == "no-steps":
            x0 = models.random_state(pencil, np.random.default_rng(15))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = wt.simulate(pencil, x0, 0.1, 0 if case == "no-steps" else 5)
        assert traj.balance_worst_ratio == 0.0
        # The final state, a copy of x0 in each case, never an alias of it.
        assert traj.states.shape == (1, pencil.state_dim)
        assert np.array_equal(traj.states[-1], x0)
        assert not np.shares_memory(traj.states, x0)

    def test_overflowing_initial_energy_refused_before_factoring(self, monkeypatch):
        pencil = models.dirichlet_pencil(8)
        x0 = np.full(pencil.state_dim, 1e200)

        def refuse(*args):
            raise AssertionError("factored before the initial data were checked")

        monkeypatch.setattr(linalg.LuFactorization, "__init__", refuse)
        with np.errstate(all="raise"):
            with pytest.raises(wt.InitialDataError, match="initial energy inf"):
                wt.simulate(pencil, x0, 0.1, 5)

    def test_step_loop_reads_only_the_csr_forms(self, monkeypatch):
        # Any read of a dense view while stepping raises.
        pencil = models.square_pencil(6, 5, seed=2)
        x0 = models.random_state(pencil, np.random.default_rng(6))
        want = wt.simulate(pencil, x0, 0.02, 20)
        want_profile = wt.decay_profile(pencil, x0, 0.02, 20)[1]
        want_energy = [wt.physical_energy(pencil, x) for x in want.states]

        def refuse(self):
            raise AssertionError("a dense view of the pencil was read")

        for name in DENSE_VIEWS:
            monkeypatch.setattr(assembly.OperatorPencil, name, property(refuse))
            with pytest.raises(AssertionError, match="dense view"):
                getattr(pencil, name)
        got = wt.simulate(pencil, x0, 0.02, 20)
        assert np.isfinite(want.energy).all() and np.isfinite(want.xnorm).all()
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.energy, want.energy)
        assert np.array_equal(got.xnorm, want.xnorm)
        assert np.array_equal(wt.decay_profile(pencil, x0, 0.02, 20)[1], want_profile)
        assert [wt.physical_energy(pencil, x) for x in got.states] == want_energy

    def test_wrong_state_length_rejected(self):
        pencil = models.damped_pencil(6)
        with pytest.raises(ValueError):
            wt.simulate(pencil, np.zeros(3), 0.1, 2)

    def test_order_two_richardson(self):
        pencil = models.dirichlet_pencil(24)
        x0 = semigroup.initial_state(
            pencil,
            lambda p: np.sin(np.pi * p[:, 0]),
            lambda p: np.zeros(p.shape[0]),
        )
        t_end = 1.0
        ref = wt.simulate(pencil, x0, t_end / 512, 512).states[-1]
        coarse = wt.simulate(pencil, x0, t_end / 16, 16).states[-1]
        fine = wt.simulate(pencil, x0, t_end / 32, 32).states[-1]
        e_coarse = wt.state_norm(pencil, coarse - ref)
        e_fine = wt.state_norm(pencil, fine - ref)
        assert 3.5 <= e_coarse / e_fine <= 4.5


def bump(points):
    """cos^2(2 pi (x - 1/2)) on |x - 1/2| < 1/4, zero elsewhere."""
    x = points[:, 0]
    return np.where(np.abs(x - 0.5) < 0.25, np.cos(2.0 * np.pi * (x - 0.5)) ** 2, 0.0)


class TestRoundTripLaw:
    """simulate against the continuum: E(t + 2 tau) = r^2 E(t) on a damped string.

    On a string of impedance z = 1 with travel time tau the law is
    oracles.round_trip_ratio(k2, 1) for every t.  Each run starts from the
    bump at rest, takes `steps` steps per tau and takes under 0.13 s.  The
    law holds on the 2-D channel too: the unit square fixed on the left,
    free on top and bottom and damped on the right.  The bump depends on x
    only, so the continuum solution there is the string's, while the
    damper acts along a whole edge through its boundary mass and the
    triangulation's diagonals break the y-symmetry.
    """

    @staticmethod
    def energy_ratio(pencil, tau: float, steps: int, start: int, stop: int) -> float:
        x0 = wt.initial_state(pencil, bump, lambda p: np.zeros(len(p)))
        energy = wt.simulate(pencil, x0, tau / steps, stop * steps).energy
        return energy[stop * steps] / energy[start * steps]

    def unit_string_ratio(self, n: int, k2: float, start: int, stop: int) -> float:
        # models.damped_pencil has z = 1 and tau = 1; dt = h.
        return self.energy_ratio(models.damped_pencil(n, k2), 1.0, n, start, stop)

    @staticmethod
    def channel(nx: int, k2: float, right=(wt.Segment(wt.BoundaryLabel.DAMPED),), **fields):
        """Pencil of the nx by nx channel with damper k2 on the segments right."""
        label = wt.BoundaryLabel
        sides = {
            "left": (wt.Segment(label.FIXED),),
            "right": right,
            "bottom": (wt.Segment(label.FREE),),
            "top": (wt.Segment(label.FREE),),
        }
        mesh = wt.rectangle_mesh(nx, nx, sides)
        return wt.assemble_pencil(mesh, wt.sample_coefficients(mesh, boundary_damping=k2, **fields))

    def test_damper_of_three_keeps_a_quarter_of_the_energy_per_round_trip(self):
        # Measured |E(3)/E(1) - 1/4| = 6.66e-4 at n = 64 and 3.85e-5 at
        # n = 256: a factor 17.3, where order h^2 gives 16.  The bounds
        # are 1.5 times the measured errors and a factor of 12.
        want = oracles.round_trip_ratio(3.0, 1.0)
        coarse, fine = (abs(self.unit_string_ratio(n, 3.0, 1, 3) - want) for n in (64, 256))
        assert coarse <= 1e-3 and fine <= 6e-5
        assert coarse >= 12.0 * fine

    def test_a_transparent_damper_absorbs_the_wave_in_one_round_trip(self):
        # k2 = z, so E(2) = 0 in the continuum.  Measured E(2)/E(0) =
        # 8.45e-5 at n = 64 and 1.43e-6 at n = 256: a factor 59, where
        # order h^3 gives 64.  The bounds are 1.5 times the measured
        # values and a factor of 40.
        assert oracles.round_trip_ratio(1.0, 1.0) == 0.0
        coarse, fine = (self.unit_string_ratio(n, 1.0, 0, 2) for n in (64, 256))
        assert coarse <= 1.3e-4 and fine <= 2.2e-6
        assert coarse >= 40.0 * fine

    @pytest.mark.parametrize(
        "start, coarse_bound, fine_bound",
        [(0, 7.1e-4, 3.6e-5), (1, 5.7e-4, 3.4e-5)],
        ids=["from-0", "from-tau"],
    )
    def test_variable_speed_string_of_unit_impedance(self, start, coarse_bound, fine_bound):
        # Modulus 1 + x and density 1 / (1 + x): speed 1 + x, impedance 1,
        # so no wave reflects inside, and tau = ln 2.  With dt = tau /
        # round(1.5 n tau), measured |E(t + 2 tau)/E(t) - 1/4| at t = 0 and
        # t = tau: 4.70e-4 and 3.80e-4 at n = 64, 2.38e-5 and 2.22e-5 at
        # n = 256 (factors 19.8 and 17.1, where order h^2 gives 16), and
        # 1.39e-6 and 1.37e-6 at n = 1,024.  The bounds are 1.5 times the
        # measured errors and a factor of 12.
        tau, want = np.log(2.0), oracles.round_trip_ratio(3.0, 1.0)
        errors = []
        for n in (64, 256):
            mesh = wt.interval_mesh(n, right=wt.BoundaryLabel.DAMPED)
            coeffs = wt.sample_coefficients(
                mesh,
                modulus=lambda p: 1.0 + p[:, 0],
                density=lambda p: 1.0 / (1.0 + p[:, 0]),
                boundary_damping=3.0,
            )
            pencil = wt.assemble_pencil(mesh, coeffs)
            ratio = self.energy_ratio(pencil, tau, round(1.5 * n * tau), start, start + 2)
            errors.append(abs(ratio - want))
        coarse, fine = errors
        assert coarse <= coarse_bound and fine <= fine_bound
        assert coarse >= 12.0 * fine

    def test_channel_damper_of_three_keeps_a_quarter_of_the_energy_per_round_trip(self):
        # Unit coefficients, dt = h = 1 / nx.  Measured |E(3)/E(1) - 1/4| =
        # 3.104e-3 at nx = 32 and 6.736e-4 at nx = 64: a factor 4.6, where
        # order h^2 gives 4.  The bounds are 1.5 times the measured errors
        # and a factor of 3.5.
        want = oracles.round_trip_ratio(3.0, 1.0)
        coarse, fine = (
            abs(self.energy_ratio(self.channel(nx, 3.0), 1.0, nx, 1, 3) - want) for nx in (32, 64)
        )
        assert coarse <= 4.66e-3 and fine <= 1.01e-3
        assert coarse >= 3.5 * fine

    def test_a_transparent_channel_damper_absorbs_the_wave_in_one_round_trip(self):
        # k2 = z, so E(2) = 0 in the continuum.  Measured E(2)/E(0) =
        # 8.035e-4 at nx = 32 and 9.105e-5 at nx = 64: a factor 8.8, where
        # order h^3 gives 8.  The bounds are 1.5 times the measured values
        # and a factor of 6.
        coarse, fine = (self.energy_ratio(self.channel(nx, 1.0), 1.0, nx, 0, 2) for nx in (32, 64))
        assert coarse <= 1.21e-3 and fine <= 1.37e-4
        assert coarse >= 6.0 * fine

    @pytest.mark.parametrize(
        "start, coarse_bound, fine_bound",
        [(0, 4.23e-3, 7.38e-4), (1, 3.16e-3, 6.10e-4)],
        ids=["from-0", "from-tau"],
    )
    def test_variable_speed_channel_of_unit_impedance(self, start, coarse_bound, fine_bound):
        # The variable-speed string's modulus 1 + x and density 1 / (1 + x)
        # on the channel, tau = ln 2 and dt = tau / round(1.5 nx tau).
        # Measured |E(t + 2 tau)/E(t) - 1/4| at t = 0 and t = tau: 2.822e-3
        # and 2.108e-3 at nx = 32, 4.920e-4 and 4.066e-4 at nx = 64
        # (factors 5.7 and 5.2, where order h^2 gives 4).  The bounds are
        # 1.5 times the measured errors and a factor of 3.5.
        tau, want = np.log(2.0), oracles.round_trip_ratio(3.0, 1.0)
        fields = {"modulus": lambda p: 1.0 + p[:, 0], "density": lambda p: 1.0 / (1.0 + p[:, 0])}
        errors = []
        for nx in (32, 64):
            pencil = self.channel(nx, 3.0, **fields)
            ratio = self.energy_ratio(pencil, tau, round(1.5 * nx * tau), start, start + 2)
            errors.append(abs(ratio - want))
        coarse, fine = errors
        assert coarse <= coarse_bound and fine <= fine_bound
        assert coarse >= 3.5 * fine

    def test_a_damped_side_split_in_two_segments_is_one_damper(self):
        # The damped side as a damped half and an elastic_damped half with
        # no spring: the same boundary forms, so the same energies bit for
        # bit (measured at nx = 32).
        label = wt.BoundaryLabel
        split = (wt.Segment(label.DAMPED, 0.0, 0.5), wt.Segment(label.ELASTIC_DAMPED, 0.5, 1.0))
        whole = self.channel(32, 3.0)
        halves = self.channel(32, 3.0, right=split, boundary_stiffness=0.0)
        x0 = wt.initial_state(whole, bump, lambda p: np.zeros(len(p)))
        energies = [wt.simulate(p, x0, 1.0 / 32, 96).energy for p in (whole, halves)]
        assert np.array_equal(*energies)


class TestPerturbation:
    def test_zero_fields_leave_dynamics_unchanged(self):
        pencil = models.damped_pencil(10)
        s, d = pencil.displacement_gram, pencil.boundary_damper
        unperturbed = np.block([[np.zeros_like(s), s], [-s, -d]])
        assert np.array_equal(pencil.dynamics, unperturbed)

    def test_blocks_land_in_velocity_rows(self):
        mesh = wt.interval_mesh(8, right=wt.BoundaryLabel.FREE)
        coeffs = wt.sample_coefficients(mesh, reaction=1.5, damping=0.5)
        pencil = wt.assemble_pencil(mesh, coeffs)
        ix = np.ix_(pencil.active, pencil.active)
        ma = models.mass_triplets(mesh, coeffs.reaction).toarray()[ix]
        mb = models.mass_triplets(mesh, coeffs.damping).toarray()[ix]
        m = pencil.num_active
        s, d = pencil.displacement_gram, pencil.boundary_damper
        dyn = pencil.dynamics
        assert np.array_equal(dyn[:m, :m], np.zeros((m, m)))
        assert np.array_equal(dyn[:m, m:], s)
        assert np.allclose(dyn[m:, :m], -s - ma)
        assert np.allclose(dyn[m:, m:], -d - mb)
        # The reaction block breaks skewness of the off-diagonal pair.
        sym = dyn + dyn.T
        assert np.abs(sym[:m, m:]).max() > 0.1

    def test_interior_damping_keeps_dissipativity(self):
        mesh = wt.interval_mesh(10)
        coeffs = wt.sample_coefficients(mesh, damping=0.75)
        pencil = wt.assemble_pencil(mesh, coeffs)
        dyn = pencil.dynamics
        sym = dyn + dyn.T
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert eigs.max() <= 1e-12
        rng = np.random.default_rng(6)
        x = models.random_state(pencil, rng)
        y = wt.CayleyStepper(pencil, 0.04).step(x)
        assert wt.state_norm(pencil, y) <= wt.state_norm(pencil, x) * (1 + 1e-12)


class TestInitialState:
    def test_values_are_nodal_samples(self):
        pencil = models.damped_pencil(5)
        x0 = semigroup.initial_state(
            pencil, lambda p: p[:, 0] ** 2, lambda p: -p[:, 0]
        )
        u, v = pencil.split(x0)
        xs = pencil.mesh.nodes[pencil.active, 0]
        assert np.allclose(u, xs**2)
        assert np.allclose(v, -xs)

    def test_clamped_violation_rejected(self):
        pencil = models.dirichlet_pencil(6)
        with pytest.raises(ValueError, match="vanish"):
            semigroup.initial_state(
                pencil, lambda p: p[:, 0] + 1.0, lambda p: np.zeros(p.shape[0])
            )


class TestDecayProfile:
    def test_zero_image_zero_profile(self):
        pencil = models.damped_pencil(8)
        times, prof = wt.decay_profile(pencil, np.zeros(pencil.state_dim), 0.05, 10)
        assert times.shape == (11,)
        assert np.abs(prof).max() == 0.0

    def test_profile_nonincreasing_and_bounded_by_one(self):
        pencil = models.damped_pencil(24)
        rng = np.random.default_rng(7)
        y = models.random_state(pencil, rng)
        _, prof = wt.decay_profile(pencil, y, 0.02, 120)
        assert np.all(np.diff(prof) <= 1e-10 * prof[:-1] + 1e-300)
        # |x0| <= graph norm, so the normalized profile starts below 1.
        assert prof[0] <= 1.0 + 1e-12

    def test_start_state_solves_dynamics_equation(self):
        pencil = models.damped_pencil(12)
        rng = np.random.default_rng(8)
        y = models.random_state(pencil, rng)
        _, prof = wt.decay_profile(pencil, y, 0.05, 0)
        dyn = pencil.dynamics
        x0 = linalg.LuFactorization(dyn).solve(pencil.gram @ y)
        graph = np.sqrt(
            wt.state_norm(pencil, x0) ** 2 + wt.state_norm(pencil, y) ** 2
        )
        assert abs(prof[0] - wt.state_norm(pencil, x0) / graph) < 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_dynamics_reported(self):
        pencil = models.damped_pencil(4)
        # [[0, S], [0, 0]] is singular.
        zero = csr_matrix(pencil.mass_csr.shape)
        broken = dataclasses.replace(pencil, dynamics_vu_csr=zero, dynamics_vv_csr=zero)
        with pytest.raises(wt.SingularMatrixError, match="zero is an eigenvalue"):
            wt.decay_profile(broken, np.ones(broken.state_dim), 0.1, 1)


def zeros_of(size):
    """An initial data callable that returns size zeros, whatever its points."""
    return lambda points: np.zeros(size)


# Each bad input to the damped string at n = 5 (5 active nodes), its
# exception and its message.
INPUT_REFUSALS = {
    "negative nsteps": (
        lambda p: wt.simulate(p, np.zeros(p.state_dim), 0.1, -1),
        ValueError,
        "nsteps must be nonnegative",
    ),
    "short displacement": (
        lambda p: semigroup.initial_state(p, zeros_of(4), zeros_of(5)),
        wt.InitialDataError,
        "initial data callables must return one value per active node",
    ),
    "long velocity": (
        lambda p: semigroup.initial_state(p, zeros_of(5), zeros_of(6)),
        wt.InitialDataError,
        "initial data callables must return one value per active node",
    ),
}


@pytest.mark.parametrize("name", INPUT_REFUSALS)
def test_bad_input_is_refused_with_its_message(name):
    call, error, message = INPUT_REFUSALS[name]
    with pytest.raises(error, match=message):
        call(models.damped_pencil(5))


class TestEnergyCsv:
    def test_header_and_row_count(self):
        pencil = models.damped_pencil(6)
        rng = np.random.default_rng(9)
        traj = wt.simulate(pencil, models.random_state(pencil, rng), 0.1, 5)
        text = wt.energy_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,energy,xnorm"
        assert len(lines) == 7
        t, en, nr = lines[1].split(",")
        assert float(t) == 0.0
        assert float(en) > 0 and float(nr) > 0

    def test_determinism(self):
        pencil = models.damped_pencil(6)
        rng = np.random.default_rng(9)
        x0 = models.random_state(pencil, rng)
        a = wt.energy_csv(wt.simulate(pencil, x0, 0.1, 5))
        b = wt.energy_csv(wt.simulate(pencil, x0, 0.1, 5))
        assert a == b
