"""Tests for the midpoint time stepper and trajectory bookkeeping."""

import dataclasses

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import models
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
        rng = np.random.default_rng(4)
        for pencil in (models.damped_pencil(16), models.square_pencil(4, 5, seed=3), perturbed):
            dt = 0.03
            dyn = pencil.dynamics
            x = models.random_state(pencil, rng)
            want = np.linalg.solve(
                pencil.gram - 0.5 * dt * dyn, (pencil.gram + 0.5 * dt * dyn) @ x
            )
            got = semigroup.CayleyStepper(pencil, dt).step(x)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            # The shifts are summed from CSR copies; summing the dense
            # arrays first and converting gives the same bits.
            plus = csr_matrix(pencil.gram + 0.5 * dt * dyn)
            minus = linalg.LuFactorization(pencil.gram - 0.5 * dt * dyn)
            assert np.array_equal(got, minus.solve(plus @ x))

    def test_shifted_matrices_have_the_dense_pattern(self, monkeypatch):
        # The shifts are summed from the pencil's CSR forms; converting the
        # dense gram and dynamics first gives the same pattern and bits, so
        # SuperLU sees the same matrix and picks the same ordering.
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
            gram, dyn = csr_matrix(pencil.gram), csr_matrix(pencil.dynamics)
            pairs = ((stepper._plus, gram + half * dyn), (factored[-1], gram - half * dyn))
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
        assert traj.states.shape == (151, pencil.state_dim)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.xnorm[-1] < traj.xnorm[0]
        assert np.all(np.diff(traj.xnorm) <= 1e-10 * traj.xnorm[:-1] + 1e-300)

    def test_contraction_breach_detected(self, monkeypatch):
        # Negative interior damping makes the flow expansive; simulate must
        # not enforce contraction then, but a model taken for dissipative
        # has to trip the check.
        mesh = wt.interval_mesh(12)
        coeffs = wt.sample_coefficients(mesh, damping=-2.0)
        pencil = wt.assemble_pencil(mesh, coeffs)
        assert not semigroup.provably_dissipative(pencil)
        rng = np.random.default_rng(5)
        x0 = models.random_state(pencil, rng)
        grown = wt.simulate(pencil, x0, 0.05, 40)
        assert grown.xnorm[-1] > grown.xnorm[0]
        monkeypatch.setattr(semigroup, "provably_dissipative", lambda pencil: True)
        with pytest.raises(wt.ContractionBreachError):
            wt.simulate(pencil, x0, 0.05, 40)

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
        ma = assembly.mass_triplets(mesh, coeffs.reaction).toarray()[ix]
        mb = assembly.mass_triplets(mesh, coeffs.damping).toarray()[ix]
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
        assert semigroup.provably_dissipative(pencil)
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
        zero = csr_matrix(np.zeros_like(pencil.dynamics))
        broken = dataclasses.replace(pencil, dynamics_csr=zero)
        with pytest.raises(wt.SingularMatrixError, match="zero is an eigenvalue"):
            wt.decay_profile(broken, np.ones(broken.state_dim), 0.1, 1)


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
