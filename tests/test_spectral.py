"""Tests for spectral reports, stability diagnostics, and the trace constant."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import models
import oracles
import wavetriple as wt
from wavetriple import linalg, spectral
from wavetriple.errors import (
    DegenerateEnergyNormError,
    EigenSolverError,
    NotPositiveDefiniteError,
)


def without_interior_damping(pencil):
    """The pencil with its interior damping dropped from the generator only."""
    m = pencil.num_active
    dynamics = pencil.dynamics.copy()
    dynamics[m:, m:] = -pencil.boundary_damper
    return dataclasses.replace(pencil, dynamics_csr=csr_matrix(dynamics))


def interior_terms_pencils():
    """A 1-D and a 2-D model with interior reaction and damping."""
    fields = {"reaction": lambda p: 1.0 + p[:, 0], "damping": lambda p: 0.5 + p[:, 0]}
    meshes = [
        wt.interval_mesh(16, right=wt.BoundaryLabel.DAMPED),
        wt.rectangle_mesh(5, 4, models.square_partition()),
    ]
    return [
        wt.assemble_pencil(mesh, wt.sample_coefficients(mesh, boundary_damping=1.0, **fields))
        for mesh in meshes
    ]


def positive_branch(values):
    """Eigenvalues with positive imaginary part, ordered by frequency."""
    upper = values[values.imag > 0]
    return upper[np.argsort(upper.imag)]


class TestMeshSize:
    def test_interval(self):
        mesh = wt.interval_mesh(8)
        assert spectral.mesh_size(mesh) == 0.125

    def test_rectangle_uses_diameter(self):
        mesh = wt.rectangle_mesh(4, 2, models.square_partition())
        # Longest edge of each cell is the split diagonal.
        assert spectral.mesh_size(mesh) == pytest.approx(np.hypot(0.25, 0.5), rel=1e-14)


class TestAxisGap:
    def test_min_absolute_real_part(self):
        vals = np.array([-1.0 + 2.0j, 0.5 + 1.0j, -0.25 - 3.0j])
        assert spectral.imaginary_axis_gap(vals) == 0.25

    def test_empty_spectrum(self):
        assert spectral.imaginary_axis_gap(np.array([])) == np.inf


class TestComputeSpectrum:
    def test_count_matches_state_dimension(self):
        for pencil in (models.dirichlet_pencil(16), models.square_pencil(4, 3)):
            report = wt.compute_spectrum(pencil)
            assert report.values.shape[0] == pencil.state_dim
            assert report.state_dim == pencil.state_dim

    def test_values_sorted_and_conjugate_closed(self):
        report = wt.compute_spectrum(models.damped_pencil(32))
        vals = report.values
        order = np.lexsort((vals.imag, vals.real))
        assert np.array_equal(order, np.arange(vals.shape[0]))
        for lam in vals:
            dist = np.abs(vals - np.conj(lam)).min()
            assert dist <= 1e-9 * (1.0 + abs(lam))

    def test_report_is_residual_certificate(self):
        report = wt.compute_spectrum(models.variable_pencil(24))
        assert report.residuals.max() <= 1e-8
        assert report.residuals.shape == report.values.shape
        assert report.k2_trace_residual.shape == report.values.shape
        assert report.flux_residual.shape == report.values.shape

    def test_flux_residual_certifies_the_absorbing_condition(self):
        fields = {"reaction": lambda p: 1.0 + p[:, 0], "damping": lambda p: 0.5 + p[:, 0]}
        mesh = wt.rectangle_mesh(5, 4, models.square_partition())
        interior = wt.assemble_pencil(
            mesh, wt.sample_coefficients(mesh, boundary_damping=1.0, **fields)
        )
        pencils = models.ci_pencils() + models.cell_average_pencils() + [interior]
        for pencil in pencils:
            report = wt.compute_spectrum(pencil)
            assert (report.flux_residual <= 1e-11 * (1.0 + np.abs(report.values))).all()

    def test_flux_residual_is_not_the_damper_trace(self, monkeypatch):
        pencil = models.damped_pencil(24)
        report = wt.compute_spectrum(pencil)
        assert report.k2_trace_residual.max() > 1.0
        assert report.flux_residual.max() < 1e-9
        # Eigenpairs of a generator that drops the damper fail the condition,
        # and compute_spectrum refuses them for their energy balance.
        m = pencil.num_active
        dynamics = pencil.dynamics.copy()
        dynamics[m:, m:] = 0.0
        undamped = dataclasses.replace(pencil, dynamics_csr=csr_matrix(dynamics))
        with pytest.raises(EigenSolverError, match="energy balance"):
            wt.compute_spectrum(undamped)
        monkeypatch.setattr(spectral, "balance_tolerance", lambda values: np.inf)
        wrong = wt.compute_spectrum(undamped)
        assert wrong.flux_residual.max() > 1e-3

    def test_dense_limit_is_refused_before_the_eigensolve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "generalized_eig", lambda *args: calls.append(args))
        monkeypatch.setattr(spectral, "MAX_DENSE_STATE", 16)
        with pytest.raises(wt.ProblemSizeError, match="spectrum: state dimension 32 exceeds 16"):
            wt.compute_spectrum(models.damped_pencil(16))
        assert calls == []

    def test_undamped_spectrum_sits_on_axis(self):
        for pencil in (
            models.dirichlet_pencil(48),
            models.free_end_pencil(32),
            models.elastic_pencil(32),
        ):
            report = wt.compute_spectrum(pencil)
            assert abs(report.abscissa) <= 1e-9
            assert report.gap <= 1e-9

    def test_dirichlet_matches_discrete_frequency_formula(self):
        # The discrete modes are exactly sin(k pi x) sampled at the nodes,
        # so the computed frequencies must hit the closed form, not just
        # the continuum limit.
        n = 24
        report = wt.compute_spectrum(models.dirichlet_pencil(n))
        freqs = positive_branch(report.values).imag
        assert freqs.shape[0] == n - 1
        for k in range(1, n):
            want = oracles.discrete_dirichlet_frequency(n, k)
            assert abs(freqs[k - 1] - want) <= 1e-8 * want

    def test_cell_average_dirichlet_matches_discrete_frequency_formula(self):
        n = 24
        report = wt.compute_spectrum(models.dirichlet_pencil(n, kinetic="cell_average"))
        freqs = positive_branch(report.values).imag
        assert freqs.shape[0] == n - 1
        for k in range(1, n):
            want = oracles.discrete_dirichlet_frequency_cell_average(n, k)
            assert abs(freqs[k - 1] - want) <= 1e-8 * want

    def test_cell_average_damped_gap_is_continuum_decay(self):
        # Every mode of the cell-average scheme sits near the continuum
        # line, so the gap itself, not just the low modes, tracks it.
        for k2 in (3.0, 1.0 / 3.0):
            report = wt.compute_spectrum(models.damped_pencil(64, k2, kinetic="cell_average"))
            assert abs(report.gap + oracles.damped_string_decay(k2)) <= 1e-4

    def test_dirichlet_low_modes_near_continuum(self):
        report = wt.compute_spectrum(models.dirichlet_pencil(64))
        freqs = positive_branch(report.values).imag
        for k, want in enumerate(oracles.dirichlet_frequencies(5), start=1):
            assert abs(freqs[k - 1] - want) <= 0.005 * want

    def test_free_end_modes_at_half_integers(self):
        report = wt.compute_spectrum(models.free_end_pencil(64))
        freqs = positive_branch(report.values).imag
        for k, want in enumerate(oracles.mixed_frequencies(3), start=1):
            assert abs(freqs[k - 1] - want) <= 0.005 * want

    def test_damped_branch_above_one(self):
        report = wt.compute_spectrum(models.damped_pencil(96, 3.0))
        got = positive_branch(report.values)[:3]
        want = oracles.damped_string_modes(3.0, 3)
        for lam, ref in zip(got, want):
            assert abs(lam.real - ref.real) <= 0.02 * abs(ref.real)
            assert abs(lam.imag - ref.imag) <= 0.01 * ref.imag

    def test_damped_branch_below_one(self):
        report = wt.compute_spectrum(models.damped_pencil(96, 1.0 / 3.0))
        got = positive_branch(report.values)[:3]
        want = oracles.damped_string_modes(1.0 / 3.0, 3)
        # Same decay rate as k2 = 3 but frequencies shifted half a step.
        assert want[0].real == pytest.approx(oracles.damped_string_decay(3.0))
        for lam, ref in zip(got, want):
            assert abs(lam.real - ref.real) <= 0.02 * abs(ref.real)
            assert abs(lam.imag - ref.imag) <= 0.01 * ref.imag

    def test_damped_model_strictly_stable(self):
        report = wt.compute_spectrum(models.damped_pencil(48))
        assert report.abscissa < 0
        assert report.gap > 0
        assert report.min_modulus > 1e-6
        assert report.zero_excluded

    def test_near_axis_listing(self):
        damped = wt.compute_spectrum(models.damped_pencil(48))
        assert damped.near_axis.size == 0
        undamped = wt.compute_spectrum(models.dirichlet_pencil(16))
        assert undamped.near_axis.size == undamped.state_dim

    def test_reads_no_dense_view(self, monkeypatch):
        pencils = [models.damped_pencil(16), interior_terms_pencils()[1]]

        def refuse(pencil):
            raise AssertionError("compute_spectrum read a dense view")

        for name in (
            "mass",
            "stiffness",
            "boundary_spring",
            "boundary_damper",
            "displacement_gram",
            "gram",
            "dynamics",
        ):
            monkeypatch.setattr(wt.OperatorPencil, name, property(refuse))
        for pencil in pencils:
            wt.compute_spectrum(pencil)

    def test_peak_memory_is_four_complex_state_blocks(self):
        # The coarse guard: full-width residuals and balance products hold
        # four complex (2m, 2m) arrays.  A dense copy of the pencil, a dense
        # factor or one more copy of the eigenvectors would push it past
        # five.  The streamed spectrum stays well below; the test below
        # holds it to 2.5.
        pencil = models.damped_pencil(128)
        block = 16 * pencil.state_dim**2
        tracemalloc.start()
        try:
            wt.compute_spectrum(pencil)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * block

    def test_peak_memory_is_below_three_complex_state_blocks(self):
        # At its peak compute_spectrum holds the eigenvectors (one complex
        # (2m, 2m) block) and one real array of half a block: LAPACK's vector
        # matrix, or the copy the back-transform solves in.  That is 1.67
        # blocks at n = 256, and 2.28 at n = 128, where the temporaries of a
        # 64-column block are a larger share; 2.17 at n = 256 if the reduced
        # matrix outlives its copy.  Every product with the eigenvectors is
        # a column block; one full-width complex product more would pass
        # 2.5, and full-width residuals and balance products peak at four.
        for n in (128, 256):
            pencil = models.damped_pencil(n)
            block = 16 * pencil.state_dim**2
            tracemalloc.start()
            try:
                wt.compute_spectrum(pencil)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * block, n

    def test_block_results_equal_full_width_recomputation(self):
        # State dimension 200 is not a multiple of the column block, so the
        # last block is narrower than the others.
        pencil = models.damped_pencil(100)
        assert pencil.state_dim % linalg.COLUMN_BLOCK != 0
        report = wt.compute_spectrum(pencil)
        values, vectors, m = report.values, report.vectors, pencil.num_active
        gram_z, resid = pencil.gram_csr @ vectors, pencil.dynamics_csr @ vectors
        denom = np.linalg.norm(gram_z, axis=0) * (1.0 + np.abs(values))
        gram_z *= values
        resid -= gram_z
        assert np.array_equal(report.residuals, np.linalg.norm(resid, axis=0) / denom)
        _, (mass_v, damp_v, react_u) = spectral._balance_defect(pencil, values, vectors)
        slots = pencil.trace_slots
        flux = values * mass_v[slots] + pencil.stiffness_csr[slots] @ vectors[:m]
        b1 = pencil.boundary_spring_csr[slots] @ vectors[:m] + flux
        flux_res = np.linalg.norm(b1 + damp_v[slots] + react_u[slots], axis=0)
        k2_res = np.linalg.norm(pencil.boundary_damper_csr[slots] @ vectors[m:], axis=0)
        assert np.array_equal(report.flux_residual, flux_res)
        assert np.array_equal(report.k2_trace_residual, k2_res)

    def test_fully_constrained_model(self):
        pencil = wt.assemble_pencil(
            wt.interval_mesh(1), wt.sample_coefficients(wt.interval_mesh(1))
        )
        report = wt.compute_spectrum(pencil)
        assert report.values.shape[0] == 0
        assert report.abscissa == -np.inf
        assert report.gap == np.inf
        assert report.min_modulus == np.inf
        assert report.zero_excluded

    def test_rejects_miscounted_eigensolve(self, monkeypatch):
        real = linalg.generalized_eig

        def dropped(gram, op, factors=None):
            values, vectors, residuals = real(gram, op, factors)
            return values[:-1], vectors[:, :-1], residuals[:-1]

        monkeypatch.setattr(spectral.linalg, "generalized_eig", dropped)
        with pytest.raises(EigenSolverError, match="expected"):
            wt.compute_spectrum(models.dirichlet_pencil(8))

    def test_rejects_large_residual(self, monkeypatch):
        real = linalg.generalized_eig

        def inflated(gram, op, factors=None):
            values, vectors, residuals = real(gram, op, factors)
            return values, vectors, residuals + 1e-3

        monkeypatch.setattr(spectral.linalg, "generalized_eig", inflated)
        with pytest.raises(EigenSolverError, match="residual"):
            wt.compute_spectrum(models.dirichlet_pencil(8))


    def test_each_gram_block_factored_once(self, monkeypatch):
        real = linalg.certify_positive_definite
        orders, dense = [], []

        def counting(mat):
            orders.append(np.shape(mat)[0])
            return real(mat)

        mesh = wt.rectangle_mesh(5, 4, models.square_partition())
        coeffs = wt.sample_coefficients(
            mesh, boundary_stiffness=1.0, boundary_damping=lambda p: 1.0 + p[:, 0]
        )
        pencil = wt.assemble_pencil(mesh, coeffs)
        assert pencil.coeffs.damping_active
        monkeypatch.setattr(linalg, "certify_positive_definite", counting)
        monkeypatch.setattr(linalg, "cholesky", lambda mat: dense.append(mat))
        wt.compute_spectrum(pencil)
        assert orders == [pencil.num_active, pencil.num_active]
        assert dense == []


class TestEnergyBalance:
    def test_balance_identity_on_ci_models(self):
        for pencil in models.ci_pencils():
            report = wt.compute_spectrum(pencil)
            defect = spectral._balance_defect(pencil, report.values, report.vectors)[0]
            bound = spectral.balance_tolerance(report.values)
            assert (defect <= bound).all()
            assert 0.0 <= report.balance_worst_ratio <= 1.0

    def test_balance_identity_on_cell_average_models(self):
        for pencil in models.cell_average_pencils():
            report = wt.compute_spectrum(pencil)
            defect = spectral._balance_defect(pencil, report.values, report.vectors)[0]
            bound = spectral.balance_tolerance(report.values)
            assert (defect <= bound).all()

    def test_report_ratio_is_the_public_check_over_its_bound(self):
        for pencil in models.ci_pencils() + interior_terms_pencils():
            report = wt.compute_spectrum(pencil)
            defect = spectral._balance_defect(pencil, report.values, report.vectors)[0]
            bound = spectral.balance_tolerance(report.values)
            assert report.balance_worst_ratio == (defect / bound).max(initial=0.0)

    def test_balance_identity_with_interior_reaction_and_damping(self):
        for pencil in interior_terms_pencils():
            report = wt.compute_spectrum(pencil)
            assert 0.0 <= report.balance_worst_ratio <= 1.0
            # Dropping the interior damping from the generator breaks the balance.
            with pytest.raises(EigenSolverError, match="energy balance"):
                wt.compute_spectrum(without_interior_damping(pencil))

    def test_balance_is_not_vacuous_when_damped(self):
        pencil = models.damped_pencil(32)
        report = wt.compute_spectrum(pencil)
        assert np.abs(report.values.real).max() > 0.1

    def test_worst_ratio_above_one_is_an_eigensolver_error(self, monkeypatch):
        real = spectral.dissipation_forms

        def doubled(pencil):
            reaction, damper = real(pencil)
            return 2.0 * reaction, 2.0 * damper

        monkeypatch.setattr(spectral, "dissipation_forms", doubled)
        with pytest.raises(EigenSolverError, match="energy balance"):
            wt.compute_spectrum(models.damped_pencil(8))


class TestPoincareConstant:
    def test_full_dirichlet_interval(self):
        pencil = models.dirichlet_pencil(128)
        got = wt.poincare_constant(pencil.mesh, pencil.coeffs)
        assert abs(got - oracles.FULL_DIRICHLET_POINCARE) <= 0.005 / np.pi

    def test_mixed_interval(self):
        pencil = models.free_end_pencil(128)
        got = wt.poincare_constant(pencil.mesh, pencil.coeffs)
        assert abs(got - oracles.MIXED_POINCARE) <= 0.01 * oracles.MIXED_POINCARE

    def test_spring_alone_gives_finite_constant(self):
        mesh = wt.interval_mesh(
            16, left=wt.BoundaryLabel.ELASTIC, right=wt.BoundaryLabel.ELASTIC
        )
        coeffs = wt.sample_coefficients(mesh, boundary_stiffness=2.0)
        got = wt.poincare_constant(mesh, coeffs)
        assert 0.0 < got < 10.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_no_active_node_gives_zero(self, dim):
        fixed = wt.BoundaryLabel.FIXED
        if dim == 1:
            mesh = wt.interval_mesh(1, left=fixed, right=fixed)
        else:
            sides = ("left", "right", "bottom", "top")
            mesh = wt.rectangle_mesh(1, 1, {side: (wt.Segment(fixed),) for side in sides})
        assert wt.poincare_constant(mesh, wt.sample_coefficients(mesh)) == 0.0

    @pytest.mark.parametrize("free_right", [False, True], ids=["fixed-fixed", "fixed-free"])
    @pytest.mark.parametrize("n", [64, 512, 2048, 4000])
    def test_matches_the_discrete_closed_form(self, n, free_right):
        right = wt.BoundaryLabel.FREE if free_right else wt.BoundaryLabel.FIXED
        mesh = wt.interval_mesh(n, left=wt.BoundaryLabel.FIXED, right=right)
        got = wt.poincare_constant(mesh, wt.sample_coefficients(mesh))
        want = oracles.discrete_poincare_constant(n, free_right)
        assert abs(got - want) <= 5e-10 * want

    def test_allocates_less_than_one_dense_block(self):
        mesh = wt.rectangle_mesh(32, 32, models.square_partition())
        coeffs = wt.sample_coefficients(mesh, boundary_stiffness=1.0)
        tracemalloc.start()
        try:
            wt.poincare_constant(mesh, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        active = 1056
        assert wt.assemble_pencil(mesh, coeffs).num_active == active
        assert peak < active**2 * 8

    def test_every_shift_rejected_is_an_error(self, monkeypatch):
        real, calls = linalg.certify_positive_definite, []

        def assembly_only(mat):
            # The first two calls certify S and M inside assemble_pencil.
            calls.append(mat.shape)
            if len(calls) > 2:
                raise NotPositiveDefiniteError("rejected")
            return real(mat)

        pencil = models.dirichlet_pencil(16)
        monkeypatch.setattr(linalg, "certify_positive_definite", assembly_only)
        with pytest.raises(NotPositiveDefiniteError, match="not coercive"):
            wt.poincare_constant(pencil.mesh, pencil.coeffs)
        assert len(calls) > 50

    def test_degenerate_form_rejected(self):
        mesh = wt.interval_mesh(
            16, left=wt.BoundaryLabel.FREE, right=wt.BoundaryLabel.FREE
        )
        coeffs = wt.sample_coefficients(mesh)
        with pytest.raises(DegenerateEnergyNormError, match="degenerate"):
            wt.poincare_constant(mesh, coeffs)


class TestRefinementStudy:
    def test_row_contents(self):
        rows = wt.refinement_study(models.damped_pencil, [8, 16, 32])
        assert len(rows) == 3
        for n, row in zip([8, 16, 32], rows):
            h, dim, abscissa, gap = row
            assert h == pytest.approx(1.0 / n, rel=1e-14)
            assert dim == 2 * n
            assert abscissa < 0
            assert 0 < gap <= -abscissa + 1e-15

    def test_broken_energy_balance_is_an_eigensolver_error(self):
        wrong = without_interior_damping(interior_terms_pencils()[0])
        with pytest.raises(EigenSolverError, match="energy balance"):
            wt.refinement_study(lambda size: wrong, [16])

    def test_report_is_released_before_the_next_size(self):
        # A report kept across sizes would hold its eigenvectors, 2 * 128
        # complex columns of length 256 (1 MB), during the next solve.
        peaks = []
        for sizes in ([128], [128, 128]):
            tracemalloc.start()
            wt.refinement_study(models.damped_pencil, sizes)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_study_csv_format(self):
        rows = wt.refinement_study(models.damped_pencil, [8, 16])
        text = wt.study_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "h,N,abscissa,gap"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert len(fields) == 4
        assert float(fields[0]) == 0.125
        assert int(fields[1]) == 16
        assert wt.study_csv(rows) == text


class TestEigenvaluesCsv:
    def test_header_and_rows(self):
        pencil = models.damped_pencil(8)
        report = wt.compute_spectrum(pencil)
        text = wt.eigenvalues_csv(report)
        lines = text.splitlines()
        assert lines[0] == "index,re,im,residual,k2_trace_residual,flux_residual"
        assert len(lines) == 1 + pencil.state_dim
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == report.values[0].real
        assert float(first[2]) == report.values[0].imag

    def test_deterministic(self):
        pencil = models.damped_pencil(6)
        a = wt.eigenvalues_csv(wt.compute_spectrum(pencil))
        b = wt.eigenvalues_csv(wt.compute_spectrum(pencil))
        assert a == b
