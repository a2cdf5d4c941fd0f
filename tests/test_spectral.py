"""Tests for spectral reports, stability diagnostics, and the trace constant."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    return dataclasses.replace(pencil, dynamics_vv_csr=-pencil.boundary_damper_csr)


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


def interior_damped_string(n):
    """The damped string with interior damping too: a pencil on the dgeev route."""
    mesh = wt.interval_mesh(n, right=wt.BoundaryLabel.DAMPED)
    return wt.assemble_pencil(mesh, wt.sample_coefficients(mesh, boundary_damping=3.0, damping=0.5))


# One 1-D string per eigensolver route, by the size n.
ROUTE_PENCILS = {"secular": models.damped_pencil, "dgeev": interior_damped_string}


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
        zero = csr_matrix(pencil.mass_csr.shape)
        undamped = dataclasses.replace(pencil, dynamics_vv_csr=zero)
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
        # factor or one more copy of the eigenvectors would push either
        # route past five.  The streamed spectrum stays well below; the
        # test below holds it to 1.3 blocks.
        for route, build in ROUTE_PENCILS.items():
            pencil = build(128)
            block = 16 * pencil.state_dim**2
            tracemalloc.start()
            try:
                wt.compute_spectrum(pencil)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * block, route

    def test_peak_memory_is_below_three_complex_state_blocks(self):
        # On the dgeev route the peak is its packed real eigenvectors, half
        # a complex (2m, 2m) block, beside dgeev's overwritten input, one
        # more half block.  The secular route keeps no 2m x 2m matrix: its
        # peak is the m x m undamped modes and the eigh that makes them,
        # or the temporaries of one block of owners.  Measured with
        # tracemalloc at n = 128 / 256 / 512, where the block temporaries
        # are a shrinking share: 1.52 / 1.15 / 1.07 blocks on the dgeev
        # route (the string with interior damping) and 1.16 / 0.57 / 0.34
        # on the secular route (the damped string).  Expanding the
        # eigenvectors to a complex array beside the real one, as the
        # dgeev route once did, peaked at 2.30 / 1.68 / 1.58; half a block
        # more (a real copy of the vectors, say) passes 1.3 at n = 256 and
        # 512, and full-width residuals and balance products peak at four.
        for route, build in ROUTE_PENCILS.items():
            for n, bound in ((128, 2.0), (256, 1.3), (512, 1.3)):
                pencil = build(n)
                block = 16 * pencil.state_dim**2
                tracemalloc.start()
                try:
                    wt.compute_spectrum(pencil)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound * block, (route, n)

    def test_secular_peak_is_below_half_a_complex_state_block(self):
        # The secular route builds each block of owners from the m x m
        # modes, an eighth of a block, and keeps no packed 2m x 2m matrix,
        # which alone is half a block: measured 0.34 blocks at n = 512
        # (0.83 when the route packed its vectors).
        pencil = models.damped_pencil(512)
        block = 16 * pencil.state_dim**2
        tracemalloc.start()
        try:
            report = wt.compute_spectrum(pencil)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(report.vectors, linalg.SecularEigenvectors)
        assert peak < 0.5 * block

    def test_block_results_equal_full_width_recomputation(self):
        # State dimension 200 is not a multiple of the column block, so the
        # last block is narrower than the others.
        pencil = models.damped_pencil(100)
        assert pencil.state_dim % linalg.COLUMN_BLOCK != 0
        report = wt.compute_spectrum(pencil)
        values, vectors, m = report.values, report.vectors.expand(), pencil.num_active
        gram_z, resid = pencil.gram_csr @ vectors, pencil.dynamics_csr @ vectors
        denom = np.linalg.norm(gram_z, axis=0) * (1.0 + np.abs(values))
        gram_z *= values
        resid -= gram_z
        assert np.array_equal(report.residuals, np.linalg.norm(resid, axis=0) / denom)
        _, (mass_v, damp_v, react_u) = oracles.balance_defect(pencil, values, vectors)
        slots = pencil.trace_slots
        flux = values * mass_v[slots] + pencil.stiffness_csr[slots] @ vectors[:m]
        b1 = pencil.boundary_spring_csr[slots] @ vectors[:m] + flux
        flux_res = np.linalg.norm(b1 + damp_v[slots] + react_u[slots], axis=0)
        k2_res = np.linalg.norm(pencil.boundary_damper_csr[slots] @ vectors[m:], axis=0)
        assert np.array_equal(report.flux_residual, flux_res)
        assert np.array_equal(report.k2_trace_residual, k2_res)

    def test_conjugate_members_equal_their_recomputation(self):
        # The member re - i*im of a pair copies its owner's four numbers;
        # recomputed from its own expanded vector they are the same bits.
        mesh = wt.interval_mesh(100, right=wt.BoundaryLabel.DAMPED)
        fields = {"reaction": lambda p: 1.0 + p[:, 0], "damping": lambda p: 0.5 + p[:, 0]}
        coeffs = wt.sample_coefficients(mesh, boundary_damping=3.0, **fields)
        pencils = {"secular": models.damped_pencil(100), "dgeev": wt.assemble_pencil(mesh, coeffs)}
        for route, pencil in pencils.items():
            report = wt.compute_spectrum(pencil)
            assert isinstance(report.vectors, linalg.PackedEigenvectors) == (route == "dgeev")
            lower = np.flatnonzero(report.values.imag < 0)
            assert lower.size > linalg.COLUMN_BLOCK, route
            values, vectors = report.values[lower], report.vectors.expand(lower)
            m = pencil.num_active
            gram_z, resid = pencil.gram_csr @ vectors, pencil.dynamics_csr @ vectors
            denom = np.linalg.norm(gram_z, axis=0) * (1.0 + np.abs(values))
            gram_z *= values
            resid -= gram_z
            residuals = np.linalg.norm(resid, axis=0) / denom
            defect, (mass_v, damp_v, react_u) = oracles.balance_defect(pencil, values, vectors)
            slots = pencil.trace_slots
            flux = values * mass_v[slots] + pencil.stiffness_csr[slots] @ vectors[:m]
            b1 = pencil.boundary_spring_csr[slots] @ vectors[:m] + flux
            flux_res = np.linalg.norm(b1 + damp_v[slots] + react_u[slots], axis=0)
            k2_res = np.linalg.norm(pencil.boundary_damper_csr[slots] @ vectors[m:], axis=0)
            assert np.array_equal(report.residuals[lower], residuals), route
            assert np.array_equal(report.flux_residual[lower], flux_res), route
            assert np.array_equal(report.k2_trace_residual[lower], k2_res), route
            # The report keeps only the worst balance ratio: the member's
            # defect must equal the one its owner's copy came from.
            owner = report.vectors.owner[lower]
            assert np.all(report.values[owner] == values.conj()), route
            owned = report.vectors.expand(owner)
            assert np.array_equal(oracles.balance_defect(pencil, values.conj(), owned)[0], defect)

    def test_dgeev_route_builds_each_owner_block_once_from_dgeevs_output(self):
        # The certifying pass builds every block of owners once, and no code
        # writes into the vector matrix dgeev returned, expand included.
        returned, built = [], []
        dgeev, owner_block = scipy.linalg.lapack.dgeev, linalg.PackedEigenvectors.owner_block

        def spy_dgeev(*args, **kwargs):
            out = dgeev(*args, **kwargs)
            returned.append(out[3].copy())
            return out

        def spy_block(vectors, own):
            built.append(own.tolist())
            return owner_block(vectors, own)

        pencil = models.square_pencil(6, 6)
        with mock.patch.object(scipy.linalg.lapack, "dgeev", spy_dgeev):
            with mock.patch.object(linalg.PackedEigenvectors, "owner_block", spy_block):
                report = wt.compute_spectrum(pencil)
        blocks = linalg.owner_blocks(report.vectors.sign)
        assert len(blocks) > 1
        assert built == [own.tolist() for own in blocks]
        report.vectors.expand()
        assert len(returned) == 1 and np.array_equal(report.vectors.packed, returned[0])

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

        def dropped(op, factors):
            values, vectors = real(op, factors)
            vectors = dataclasses.replace(
                vectors, column=vectors.column[:-1], sign=vectors.sign[:-1]
            )
            return values[:-1], vectors

        monkeypatch.setattr(spectral.linalg, "generalized_eig", dropped)
        with pytest.raises(EigenSolverError, match="expected"):
            wt.compute_spectrum(models.dirichlet_pencil(8))

    def test_rejects_large_residual(self, monkeypatch):
        real = linalg.pencil_residuals

        def inflated(gram_z, op_z, values):
            return real(gram_z, op_z, values) + 1e-3

        monkeypatch.setattr(spectral.linalg, "pencil_residuals", inflated)
        with pytest.raises(EigenSolverError, match="residual"):
            wt.compute_spectrum(models.dirichlet_pencil(8))

    def test_a_refused_block_ends_the_dgeev_pass(self, monkeypatch):
        # The first block of owners whose residuals miss RESIDUAL_TOL ends
        # the pass, and the error names that block's worst residual: no
        # later block is built.
        pencil = models.square_pencil(8, 8)
        assert len(linalg.owner_blocks(wt.compute_spectrum(pencil).vectors.sign)) > 1
        real, owner_block = linalg.pencil_residuals, linalg.PackedEigenvectors.owner_block
        built = []

        def inflated(*args):
            return real(*args) + 1e-3

        def spy_block(vectors, own):
            built.append(own.tolist())
            return owner_block(vectors, own)

        monkeypatch.setattr(spectral.linalg, "pencil_residuals", inflated)
        monkeypatch.setattr(linalg.PackedEigenvectors, "owner_block", spy_block)
        with pytest.raises(EigenSolverError, match=r"pencil residual 1\.0\d\de-03 exceeds 1\.0e-08"):
            wt.compute_spectrum(pencil)
        assert len(built) == 1

    def test_the_pass_multiplies_s_and_m_by_no_eigenvector_block(self):
        # S u and M v are read from gram z, formed once per block of owners,
        # so neither S nor M is applied to an eigenvector block on its own.
        products = []

        class CountingCsr(csr_matrix):
            def __matmul__(self, other):
                products.append(np.shape(other))
                return super().__matmul__(other)

        for pencil in (models.damped_pencil(100), models.square_pencil(8, 8)):
            counted = dataclasses.replace(
                pencil,
                mass_csr=CountingCsr(pencil.mass_csr),
                displacement_gram_csr=CountingCsr(pencil.displacement_gram_csr),
            )
            report = wt.compute_spectrum(counted)
            assert wt.eigenvalues_csv(report) == wt.eigenvalues_csv(wt.compute_spectrum(pencil))
        assert products == []


    def test_each_gram_block_factored_once(self, monkeypatch):
        # Assembly certifies S and M once; the spectrum reads those factors.
        real = linalg.certify_positive_definite
        orders, dense = [], []

        def counting(mat):
            orders.append(np.shape(mat)[0])
            return real(mat)

        mesh = wt.rectangle_mesh(5, 4, models.square_partition())
        coeffs = wt.sample_coefficients(
            mesh, boundary_stiffness=1.0, boundary_damping=lambda p: 1.0 + p[:, 0]
        )
        monkeypatch.setattr(linalg, "certify_positive_definite", counting)
        monkeypatch.setattr(linalg, "cholesky", lambda mat: dense.append(mat))
        pencil = wt.assemble_pencil(mesh, coeffs)
        assert pencil.coeffs.damping_active
        wt.compute_spectrum(pencil)
        assert orders == [pencil.num_active, pencil.num_active]
        assert dense == []


class TestEigensolverRoutes:
    """The pencil picks the route: the secular equation or dgeev."""

    @staticmethod
    def eig_calls(monkeypatch, pencil):
        calls, real = [], linalg.eig_nonsymmetric

        def counting(mat):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(linalg, "eig_nonsymmetric", counting)
        wt.compute_spectrum(pencil)
        return len(calls)

    def test_only_the_rank_one_damped_string_skips_dgeev(self, monkeypatch):
        string = wt.interval_mesh(16, right=wt.BoundaryLabel.DAMPED)
        reaction = wt.assemble_pencil(
            string, wt.sample_coefficients(string, boundary_damping=3.0, reaction=2.0)
        )
        assert self.eig_calls(monkeypatch, models.damped_pencil(16)) == 0
        for pencil in (
            models.dirichlet_pencil(16),
            reaction,
            interior_damped_string(16),
            models.square_pencil(4, 3),
        ):
            assert self.eig_calls(monkeypatch, pencil) == 1

    def test_a_generator_not_built_from_its_forms_takes_dgeev(self, monkeypatch):
        pencil = models.damped_pencil(16)
        doubled = dataclasses.replace(pencil, dynamics_vv_csr=2.0 * pencil.dynamics_vv_csr)
        assert spectral._rank_one_damper(doubled, spectral.dissipation_forms(doubled)) is None
        assert spectral._rank_one_damper(pencil, spectral.dissipation_forms(pencil)) == (15, 3.0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(8, 256),
        modulus=st.tuples(st.floats(0.2, 5.0), st.floats(-0.8, 3.0)),
        density=st.tuples(st.floats(0.2, 5.0), st.floats(-0.8, 3.0)),
        k2=st.one_of(st.floats(0.05, 20.0), st.floats(100.0, 1000.0)),
    )
    @example(n=64, modulus=(1.0, 0.5), density=(1.0, 0.25), k2=1000.0)
    @example(n=189, modulus=(1.0, 0.0), density=(1.0, 0.0), k2=1.0)
    def test_secular_values_match_dgeev(self, n, modulus, density, k2):
        mesh = wt.interval_mesh(n, right=wt.BoundaryLabel.DAMPED)
        coeffs = wt.sample_coefficients(
            mesh,
            modulus=lambda p: modulus[0] * (1.0 + modulus[1] * p[:, 0]),
            density=lambda p: density[0] * (1.0 + density[1] * p[:, 0] ** 2),
            boundary_damping=k2,
        )
        pencil = wt.assemble_pencil(mesh, coeffs)
        factors = pencil.gram_factors
        damper = spectral._rank_one_damper(pencil, spectral.dissipation_forms(pencil))
        solved = linalg.secular_eig(pencil.displacement_gram_csr, factors[1], *damper)
        assert solved is not None
        values, vectors = solved
        want = linalg.generalized_eig(pencil.dynamics_csr, factors)[0]
        z = vectors.expand()
        residuals = linalg.pencil_residuals(pencil.gram_csr @ z, pencil.dynamics_csr @ z, values)
        assert residuals.max() <= spectral.RESIDUAL_TOL
        # Without reaction C^T = JCJ, J = diag(I, -I), so J conj(z) is the
        # left eigenvector and kappa = z^H G z / |z^T J G z| the condition
        # number.  Near the matched damper (k2 = sqrt(modulus density) at
        # the end) kappa reaches 1e3, and two backward-stable routes then
        # agree only to about kappa eps max|lambda|.
        gram_z = pencil.gram_csr @ z
        norms = np.einsum("ij,ij->j", z.conj(), gram_z).real
        gram_z[pencil.num_active :] *= -1.0
        kappa = norms / np.abs(np.einsum("ij,ij->j", z, gram_z))
        # Frequencies are well apart, so sorting by (imag, real) pairs them.
        order = np.lexsort((values.real, values.imag))
        got, kappa = values[order], kappa[order]
        want = want[np.lexsort((want.real, want.imag))]
        eps = np.finfo(float).eps
        bound = 1e-10 * np.abs(want) + 100.0 * kappa * eps * np.abs(want).max()
        assert (np.abs(got - want) <= bound).all()
        if k2 >= 100.0:
            # Strongly overdamped: the spectrum has real eigenvalues.
            assert np.count_nonzero(values.imag == 0.0) >= 2

    @staticmethod
    def assert_dgeev_report(monkeypatch, pencil):
        """compute_spectrum(pencil) is the dgeev route's report bit for bit."""
        got = wt.compute_spectrum(pencil)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_rank_one_damper", lambda pencil, forms: None)
            want = wt.compute_spectrum(pencil)
        assert wt.eigenvalues_csv(got) == wt.eigenvalues_csv(want)
        for field in dataclasses.fields(spectral.SpectralReport):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "vectors":
                for part in ("packed", "column", "sign"):
                    assert np.array_equal(getattr(a, part), getattr(b, part))
            else:
                assert np.array_equal(a, b), field.name

    def test_refused_roots_fall_back_to_dgeev_bit_for_bit(self, monkeypatch):
        pencil = models.damped_pencil(24)
        real = linalg.secular_roots

        def duplicated(omega2, weights):
            roots = real(omega2, weights)
            roots[1] = roots[0]
            return roots

        monkeypatch.setattr(linalg, "secular_roots", duplicated)
        stiffness, mass_factor = pencil.displacement_gram_csr, pencil.gram_factors[1]
        with pytest.raises(EigenSolverError, match="disjoint Smith discs"):
            linalg.secular_eig(stiffness, mass_factor, 23, 3.0)
        self.assert_dgeev_report(monkeypatch, pencil)

    def test_roots_not_conjugate_closed_fall_back_to_dgeev_bit_for_bit(self, monkeypatch):
        # One upper root replaced by its conjugate: m - 1 upper roots and no
        # real one do not make 2m.
        pencil = models.damped_pencil(24)
        real = linalg.secular_roots

        def flipped(omega2, weights):
            roots = real(omega2, weights)
            upper = np.flatnonzero(roots.imag > 0.0)[0]
            roots[upper] = roots[upper].conj()
            return roots

        monkeypatch.setattr(linalg, "secular_roots", flipped)
        stiffness, mass_factor = pencil.displacement_gram_csr, pencil.gram_factors[1]
        with pytest.raises(EigenSolverError, match="conjugate closure"):
            linalg.secular_eig(stiffness, mass_factor, 23, 3.0)
        self.assert_dgeev_report(monkeypatch, pencil)

    def test_a_wrong_trace_falls_back_to_dgeev_bit_for_bit(self, monkeypatch):
        # The trace -k2 (M^{-1})_NN is the one band solve of a single
        # vector; doubled, the certified roots no longer sum to it.
        pencil = models.damped_pencil(24)
        real = linalg._band_solve

        def doubled_trace(low, rhs, trans="N"):
            solved = real(low, rhs, trans)
            return 2.0 * solved if solved.ndim == 1 else solved

        monkeypatch.setattr(linalg, "_band_solve", doubled_trace)
        stiffness, mass_factor = pencil.displacement_gram_csr, pencil.gram_factors[1]
        with pytest.raises(EigenSolverError, match="certificate failed: trace"):
            linalg.secular_eig(stiffness, mass_factor, 23, 3.0)
        self.assert_dgeev_report(monkeypatch, pencil)

    def test_non_finite_secular_vectors_fall_back_to_dgeev_bit_for_bit(self, monkeypatch):
        # A zero damper weight passes the certificates (the roots are the
        # poles +-i w_k), but the closed form divides by it: every owner
        # block is NaN, and the certifying pass refuses the first.
        pencil = models.damped_pencil(24)
        values, vectors = linalg.secular_eig(
            pencil.displacement_gram_csr, pencil.gram_factors[1], 23, 0.0
        )
        for own in linalg.owner_blocks(vectors.sign):
            assert np.isnan(vectors.owner_block(own)).all()
        forms = spectral.dissipation_forms(pencil)
        with pytest.raises(EigenSolverError, match="pencil residual nan exceeds"):
            spectral._certify_pairs(
                pencil, forms, pencil.gram_csr, pencil.dynamics_csr, values, vectors
            )
        monkeypatch.setattr(spectral, "_rank_one_damper", lambda pencil, forms: (23, 0.0))
        self.assert_dgeev_report(monkeypatch, pencil)

    def test_a_velocity_row_other_than_minus_s_is_refused_on_the_dgeev_route(self, monkeypatch):
        # C_vu = -2 S: no rank-one damper of the undamped generator, so the
        # pencil takes dgeev, whose pairs break the energy balance.
        pencil = models.damped_pencil(16)
        altered = dataclasses.replace(pencil, dynamics_vu_csr=2.0 * pencil.dynamics_vu_csr)
        assert spectral._rank_one_damper(altered, spectral.dissipation_forms(altered)) is None
        calls, real = [], linalg.eig_nonsymmetric
        monkeypatch.setattr(linalg, "eig_nonsymmetric", lambda mat: calls.append(1) or real(mat))
        with pytest.raises(EigenSolverError, match="energy balance"):
            wt.compute_spectrum(altered)
        assert calls == [1]

    def test_secular_pairs_over_the_residual_bound_fall_back_to_dgeev(self, monkeypatch):
        real = linalg.secular_eig

        def shifted(*args):
            # Each value moved by 1e-3 (1 + |lambda|): a residual of about 1e-3.
            values, vectors = real(*args)
            return values + 1e-3 * (1.0 + np.abs(values)), vectors

        monkeypatch.setattr(linalg, "secular_eig", shifted)
        self.assert_dgeev_report(monkeypatch, models.damped_pencil(24))

    def test_a_heterogeneous_string_falls_back_to_dgeev(self, monkeypatch):
        # Per-cell lognormal(0, 2) modulus and density and a lognormal(0, 3)
        # damper: the undamped modes lose accuracy like eps w_max^2 / w_k^2,
        # and this string's secular pairs miss RESIDUAL_TOL (8.9e-8).
        rng = np.random.default_rng(627)
        modulus, density = rng.lognormal(0.0, 2.0, 128), rng.lognormal(0.0, 2.0, 128)
        mesh = wt.interval_mesh(128, right=wt.BoundaryLabel.DAMPED)
        coeffs = wt.sample_coefficients(
            mesh,
            modulus=lambda p: modulus,
            density=lambda p: density,
            boundary_damping=float(rng.lognormal(0.0, 3.0)),
        )
        pencil = wt.assemble_pencil(mesh, coeffs)
        damper = spectral._rank_one_damper(pencil, spectral.dissipation_forms(pencil))
        stiffness, mass_factor = pencil.displacement_gram_csr, pencil.gram_factors[1]
        values, vectors = linalg.secular_eig(stiffness, mass_factor, *damper)
        z = vectors.expand()
        residuals = linalg.pencil_residuals(pencil.gram_csr @ z, pencil.dynamics_csr @ z, values)
        assert residuals.max() > spectral.RESIDUAL_TOL
        self.assert_dgeev_report(monkeypatch, pencil)

    def test_secular_values_are_conjugate_closed_exactly(self):
        # Each pair is one root and its conjugate, so its real parts agree.
        values = wt.compute_spectrum(models.variable_pencil(48)).values
        upper, lower = values[values.imag > 0], values[values.imag < 0]
        assert np.array_equal(np.sort_complex(upper.conj()), np.sort_complex(lower))


class TestEnergyBalance:
    def test_balance_identity_on_ci_models(self):
        for pencil in models.ci_pencils():
            report = wt.compute_spectrum(pencil)
            defect = oracles.balance_defect(pencil, report.values, report.vectors.expand())[0]
            bound = spectral.balance_tolerance(report.values)
            assert (defect <= bound).all()
            assert 0.0 <= report.balance_worst_ratio <= 1.0

    def test_balance_identity_on_cell_average_models(self):
        for pencil in models.cell_average_pencils():
            report = wt.compute_spectrum(pencil)
            defect = oracles.balance_defect(pencil, report.values, report.vectors.expand())[0]
            bound = spectral.balance_tolerance(report.values)
            assert (defect <= bound).all()

    def test_report_ratio_is_the_public_check_over_its_bound(self):
        for pencil in models.ci_pencils() + interior_terms_pencils():
            report = wt.compute_spectrum(pencil)
            defect = oracles.balance_defect(pencil, report.values, report.vectors.expand())[0]
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
        # real columns of length 256 (0.5 MB), during the next solve.
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
