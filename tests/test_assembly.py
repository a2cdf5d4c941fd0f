"""Tests for matrix assembly, the boundary maps, and the Green identity."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import block_diag, bmat, coo_matrix, csr_matrix

import models
import wavetriple as wt
from wavetriple import assembly, linalg
from wavetriple.coefficients import energy_anchored
from wavetriple.mesh import BoundaryLabel as BL
from wavetriple.mesh import cell_volumes, clamped_nodes, facet_measures


class TestMassMatrix:
    def test_single_cell(self):
        mesh = wt.interval_mesh(1)
        got = models.mass_triplets(mesh, np.ones(1)).toarray()
        assert np.allclose(got, np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0, atol=1e-16)

    def test_zero_weight(self):
        mesh = wt.interval_mesh(3)
        got = models.mass_triplets(mesh, np.zeros(3)).toarray()
        assert np.array_equal(got, np.zeros((4, 4)))

    def test_partition_of_unity(self):
        mesh = wt.interval_mesh(2)
        assert abs(models.mass_triplets(mesh, np.ones(2)).toarray().sum() - 1.0) < 1e-15
        square = wt.rectangle_mesh(3, 3, models.uniform_sides(BL.FREE))
        total = models.mass_triplets(square, np.ones(square.num_cells)).toarray().sum()
        assert abs(total - 1.0) < 1e-14

    def test_symmetry_bitwise(self):
        square = wt.rectangle_mesh(3, 2, models.uniform_sides(BL.FREE))
        rng = np.random.default_rng(0)
        mat = models.mass_triplets(square, rng.uniform(0.5, 2.0, square.num_cells)).toarray()
        assert np.array_equal(mat, mat.T)


class TestCellAverageMass:
    def test_single_cell(self):
        mesh = wt.interval_mesh(1)
        got = models.mass_triplets(mesh, np.array([3.0]), "cell_average").toarray()
        assert np.array_equal(got, 3.0 * 1.0 / 4.0 * np.ones((2, 2)))

    def test_total_mass_is_density_integral(self):
        mesh = wt.interval_mesh(7)
        rng = np.random.default_rng(15)
        rho = rng.uniform(0.5, 2.0, 7)
        got = models.mass_triplets(mesh, rho, "cell_average").toarray().sum()
        assert abs(got - rho.sum() / 7.0) < 1e-14

    def test_symmetry_bitwise(self):
        mesh = wt.interval_mesh(9)
        rng = np.random.default_rng(16)
        mat = models.mass_triplets(mesh, rng.uniform(0.5, 2.0, 9), "cell_average").toarray()
        assert np.array_equal(mat, mat.T)

    def test_two_dimensional_mesh_rejected(self):
        mesh = wt.rectangle_mesh(3, 3, models.square_partition())
        with pytest.raises(wt.KineticMassError, match="1-D only"):
            wt.assemble_pencil(mesh, wt.sample_coefficients(mesh), kinetic="cell_average")

    def test_model_without_fixed_end_rejected(self):
        mesh = wt.interval_mesh(4, left=BL.ELASTIC, right=BL.ELASTIC)
        coeffs = wt.sample_coefficients(mesh, boundary_stiffness=1.0)
        with pytest.raises(wt.KineticMassError, match="fixed end.*singular"):
            wt.assemble_pencil(mesh, coeffs, kinetic="cell_average")

    def test_unknown_scheme_rejected(self):
        mesh = wt.interval_mesh(4)
        with pytest.raises(ValueError, match="kinetic"):
            wt.assemble_pencil(mesh, wt.sample_coefficients(mesh), kinetic="lumped")

    def test_unknown_scheme_rejected_by_the_mass_builder(self):
        mesh = wt.interval_mesh(4)
        with pytest.raises(ValueError, match="kinetic"):
            models.mass_triplets(mesh, np.ones(4), "lumped")

    def test_oversized_model_refused_before_any_dense_block(self, monkeypatch):
        def no_dense_block(*args):
            raise AssertionError("a sparsity pattern was built")

        monkeypatch.setattr(assembly, "_Pattern", no_dense_block)
        mesh = wt.interval_mesh(assembly.MAX_PENCIL_STATE // 2 + 1, right=BL.DAMPED)
        with pytest.raises(wt.ProblemSizeError, match="state dimension"):
            wt.assemble_pencil(mesh, wt.sample_coefficients(mesh))

    def test_oversized_model_refused_in_little_memory(self):
        # The size check comes before anything the size of the cell list:
        # refusing the nx = 300 square (state 180,600) stays below 4 MB.
        mesh = wt.rectangle_mesh(300, 300, models.square_partition())
        coeffs = wt.sample_coefficients(mesh)
        tracemalloc.start()
        try:
            with pytest.raises(wt.ProblemSizeError, match="state dimension 180600"):
                wt.assemble_pencil(mesh, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


class TestStiffnessMatrix:
    def test_single_cell(self):
        mesh = wt.interval_mesh(1)
        got = models.stiffness_triplets(mesh, np.ones(1)).toarray()
        assert np.allclose(got, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-16)

    def test_uniform_tridiagonal_stencil(self):
        n = 6
        mesh = wt.interval_mesh(n)
        got = models.stiffness_triplets(mesh, np.ones(n)).toarray()
        want = n * (2 * np.eye(n + 1) - np.eye(n + 1, k=1) - np.eye(n + 1, k=-1))
        want[0, 0] = want[n, n] = n
        assert np.allclose(got, want, atol=1e-12)

    def test_constants_in_kernel(self):
        mesh = wt.interval_mesh(5)
        stiff = models.stiffness_triplets(mesh, np.ones(5)).toarray()
        assert np.abs(stiff @ np.ones(6)).max() < 1e-13
        square = wt.rectangle_mesh(3, 3, models.uniform_sides(BL.FREE))
        tensor = np.broadcast_to(
            np.array([[2.0, 0.5], [0.5, 1.0]]), (square.num_cells, 2, 2)
        ).copy()
        stiff = models.stiffness_triplets(square, tensor).toarray()
        assert np.abs(stiff @ np.ones(square.num_nodes)).max() < 1e-12

    def test_symmetry_bitwise_2d(self):
        square = wt.rectangle_mesh(4, 3, models.uniform_sides(BL.FREE))
        rng = np.random.default_rng(1)
        modulus = rng.uniform(0.5, 2.0, square.num_cells)
        stiff = models.stiffness_triplets(square, modulus).toarray()
        assert np.array_equal(stiff, stiff.T)


class TestBoundaryMass:
    def test_point_mass_at_right_end(self):
        mesh = wt.interval_mesh(4, right=BL.ELASTIC)
        got = models.boundary_triplets(mesh, np.array([0.0, 1.0])).toarray()
        want = np.zeros((5, 5))
        want[4, 4] = 1.0
        assert np.array_equal(got, want)

    def test_zero_coefficient(self):
        mesh = wt.interval_mesh(4)
        got = models.boundary_triplets(mesh, np.zeros(2)).toarray()
        assert np.array_equal(got, np.zeros((5, 5)))

    def test_square_side_edge_masses(self):
        mesh = wt.rectangle_mesh(2, 2, models.uniform_sides(BL.ELASTIC))
        # Put unit stiffness on the two bottom edges (nodes 0-1 and 1-2).
        k = np.zeros(mesh.num_facets)
        for i, facet in enumerate(mesh.boundary_facets):
            if {int(facet[0]), int(facet[1])} in ({0, 1}, {1, 2}):
                k[i] = 1.0
        got = models.boundary_triplets(mesh, k).toarray()
        h = 0.5
        block = h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        want = np.zeros((9, 9))
        want[np.ix_([0, 1], [0, 1])] += block
        want[np.ix_([1, 2], [1, 2])] += block
        assert np.allclose(got, want, atol=1e-16)
        assert abs(got.sum() - 1.0) < 1e-15

    def test_negative_coefficient_rejected(self):
        mesh = wt.interval_mesh(2)
        with pytest.raises(wt.CoefficientError, match="nonnegative"):
            models.boundary_triplets(mesh, np.array([-1.0, 0.0]))


class TestPencilStructure:
    def test_reduced_energy_gram_hand_case(self):
        mesh = wt.interval_mesh(2, right=BL.FREE)
        coeffs = wt.sample_coefficients(mesh)
        pencil = wt.assemble_pencil(mesh, coeffs)
        assert pencil.active.tolist() == [1, 2]
        assert np.allclose(
            pencil.displacement_gram, [[4.0, -2.0], [-2.0, 2.0]], atol=1e-13
        )
        gram = wt.assemble_pencil(mesh, coeffs).gram
        assert np.allclose(gram[:2, :2], [[4.0, -2.0], [-2.0, 2.0]], atol=1e-13)

    def test_modulus_scaling_doubles_displacement_block(self):
        mesh = wt.interval_mesh(4, right=BL.FREE)
        one = wt.assemble_pencil(mesh, wt.sample_coefficients(mesh))
        # Within-bound rescaling: modulus 2 against bound 2.
        two = wt.assemble_pencil(mesh, wt.sample_coefficients(mesh, modulus=2.0))
        assert np.allclose(two.displacement_gram, 2.0 * one.displacement_gram)
        assert np.allclose(two.mass, one.mass)

    def test_undamped_dynamics_skew(self):
        pencil = models.dirichlet_pencil(8)
        assert np.array_equal(pencil.dynamics, -pencil.dynamics.T)

    def test_dissipation_block_identity_bitwise(self):
        for pencil in models.ci_pencils():
            m = pencil.num_active
            sym = pencil.dynamics + pencil.dynamics.T
            want = np.zeros_like(sym)
            want[m:, m:] = -2.0 * pencil.boundary_damper
            assert np.array_equal(sym, want)

    def test_two_cell_damped_symmetric_part(self):
        mesh = wt.interval_mesh(2, right=BL.DAMPED)
        coeffs = wt.sample_coefficients(mesh, boundary_damping=1.0)
        pencil = wt.assemble_pencil(mesh, coeffs)
        sym = pencil.dynamics + pencil.dynamics.T
        want = np.zeros((4, 4))
        want[3, 3] = -2.0
        assert np.array_equal(sym, want)

    def test_fully_clamped_model_is_empty(self):
        mesh = wt.interval_mesh(1)
        pencil = wt.assemble_pencil(mesh, wt.sample_coefficients(mesh))
        assert pencil.state_dim == 0 and pencil.num_trace == 0

    def test_replaced_blocks_get_their_own_factors(self):
        pencil = models.square_pencil(4, 3, seed=9)
        stiff_factor, mass_factor = pencil.gram_factors
        mass = 2.0 * pencil.mass_csr
        heavier = dataclasses.replace(pencil, mass_csr=mass)
        assert np.array_equal(heavier.gram_factors[0], stiff_factor)
        assert np.array_equal(heavier.gram_factors[1], linalg.certify_positive_definite(mass))
        assert not np.array_equal(heavier.gram_factors[1], mass_factor)
        stiffer = pencil.displacement_gram_csr + pencil.mass_csr
        replaced = dataclasses.replace(pencil, displacement_gram_csr=stiffer)
        assert np.array_equal(replaced.gram_factors[0], linalg.certify_positive_definite(stiffer))
        assert np.array_equal(replaced.gram_factors[1], mass_factor)

    def test_degenerate_model_rejected_at_assembly(self):
        mesh = wt.interval_mesh(3, left=BL.FREE, right=BL.FREE)
        with pytest.raises(wt.DegenerateEnergyNormError):
            wt.assemble_pencil(mesh, wt.sample_coefficients(mesh))

    def test_gram_blocks(self):
        pencil = models.square_pencil(4, 3, seed=9)
        m = pencil.num_active
        assert np.array_equal(pencil.gram[:m, :m], pencil.displacement_gram)
        assert np.array_equal(pencil.gram[m:, m:], pencil.mass)
        assert np.array_equal(pencil.gram[:m, m:], np.zeros((m, m)))
        assert np.array_equal(
            pencil.displacement_gram, pencil.stiffness + pencil.boundary_spring
        )

    def test_csr_forms_equal_dense_fields_bitwise(self):
        mesh = wt.rectangle_mesh(5, 4, models.square_partition())
        interior = models.interior_pencil(mesh, reaction=lambda p: 1.0 + p[:, 0], damping=0.25)
        cases = [(p, "consistent") for p in models.ci_pencils() + [interior]]
        cases += [(p, "cell_average") for p in models.cell_average_pencils()]
        for pencil, kinetic in cases:
            for name, dense in dense_pencil(pencil, kinetic).items():
                sparse = getattr(pencil, f"{name}_csr")
                assert sparse.format == "csr"
                assert np.array_equal(sparse.toarray(), dense), name

    def test_every_matrix_field_is_csr(self):
        for pencil in models.ci_pencils() + models.cell_average_pencils():
            for field in dataclasses.fields(pencil):
                value = getattr(pencil, field.name)
                assert not (isinstance(value, np.ndarray) and value.ndim == 2), field.name
                if field.name.endswith("_csr"):
                    assert value.format == "csr" and value.has_canonical_format
                    assert np.all(value.data != 0.0)
                else:
                    assert not isinstance(value, np.ndarray) or value.ndim == 1

    def test_assembly_allocates_less_than_one_dense_block(self):
        mesh = wt.rectangle_mesh(32, 32, models.square_partition())
        coeffs = wt.sample_coefficients(mesh, boundary_stiffness=1.0, boundary_damping=1.0)
        tracemalloc.start()
        try:
            pencil = wt.assemble_pencil(mesh, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pencil.num_active == 1056
        assert peak < pencil.num_active**2 * 8

    def test_dense_views_are_fresh_read_only_copies(self):
        pencil = models.square_pencil(4, 3, seed=9)
        view = pencil.gram
        view[:] = np.nan
        assert np.isfinite(pencil.gram).all()
        with pytest.raises(AttributeError):
            pencil.gram = view


def dense_pencil(pencil, kinetic):
    """Every pencil matrix built dense, block by block, from the triplets.

    Each block is the dense triplet sum restricted to the active nodes;
    gram = blockdiag(S, M) and dynamics = [[0, S], [-S - Ma, -D - Mb]].
    """
    mesh, coeffs = pencil.mesh, pencil.coeffs

    def block(triplets):
        return triplets.toarray()[np.ix_(pencil.active, pencil.active)]

    m = pencil.num_active
    out = {
        "stiffness": block(models.stiffness_triplets(mesh, coeffs.modulus)),
        "boundary_spring": block(models.boundary_triplets(mesh, coeffs.boundary_stiffness)),
        "boundary_damper": block(models.boundary_triplets(mesh, coeffs.boundary_damping)),
        "mass": block(models.mass_triplets(mesh, coeffs.density, kinetic)),
    }
    gram = np.zeros((2 * m, 2 * m))
    disp_gram = gram[:m, :m]
    np.add(out["stiffness"], out["boundary_spring"], out=disp_gram)
    gram[m:, m:] = out["mass"]
    dynamics = np.zeros((2 * m, 2 * m))
    dynamics[:m, m:] = disp_gram
    dynamics[m:, :m] = -disp_gram
    dynamics[m:, m:] = -out["boundary_damper"]
    dynamics[m:, :m] -= block(models.mass_triplets(mesh, coeffs.reaction))
    dynamics[m:, m:] -= block(models.mass_triplets(mesh, coeffs.damping))
    return {**out, "displacement_gram": disp_gram.copy(), "gram": gram, "dynamics": dynamics}


def interior_meshes():
    return [
        wt.interval_mesh(12, right=BL.ELASTIC_DAMPED),
        wt.rectangle_mesh(5, 4, models.square_partition()),
    ]


class TestInteriorTerms:
    """dynamics is the whole generator: [[0, S], [-S - Ma, -D - Mb]]."""

    def test_interior_damping_dissipation_identity_bitwise(self):
        for mesh in interior_meshes():
            pencil = models.interior_pencil(mesh, damping=lambda p: 0.5 + 0.25 * p[:, 0])
            ix = np.ix_(pencil.active, pencil.active)
            mb = models.mass_triplets(mesh, pencil.coeffs.damping).toarray()[ix]
            assert np.abs(mb).max() > 0.0
            m = pencil.num_active
            sym = pencil.dynamics + pencil.dynamics.T
            want = np.zeros_like(sym)
            want[m:, m:] = -2.0 * (pencil.boundary_damper + mb)
            assert np.array_equal(sym, want)

    def test_reaction_block_bitwise(self):
        for mesh in interior_meshes():
            pencil = models.interior_pencil(mesh, reaction=lambda p: 1.0 + p[:, 0], damping=0.25)
            ix = np.ix_(pencil.active, pencil.active)
            ma = models.mass_triplets(mesh, pencil.coeffs.reaction).toarray()[ix]
            m = pencil.num_active
            assert np.array_equal(pencil.dynamics[m:, :m], -pencil.displacement_gram - ma)
            assert np.array_equal(pencil.dynamics[:m, m:], pencil.displacement_gram)


class TestCellAverageScheme:
    def test_dissipation_block_identity_bitwise(self):
        for pencil in models.cell_average_pencils():
            m = pencil.num_active
            sym = pencil.dynamics + pencil.dynamics.T
            want = np.zeros_like(sym)
            want[m:, m:] = -2.0 * pencil.boundary_damper
            assert np.array_equal(sym, want)

    def test_green_identity(self):
        rng = np.random.default_rng(17)
        for pencil in models.cell_average_pencils():
            for _ in range(20):
                ex = models.random_element(pencil, rng)
                ey = models.random_element(pencil, rng)
                scale = (
                    wt.state_norm(pencil, pencil.join(ex.displacement, ex.velocity))
                    * wt.state_norm(pencil, wt.apply_A(pencil, ey))
                    + wt.state_norm(pencil, pencil.join(ey.displacement, ey.velocity))
                    * wt.state_norm(pencil, wt.apply_A(pencil, ex))
                    + 1.0
                )
                assert wt.green_identity_residual(pencil, ex, ey) <= 1e-12 * scale


class TestApplyA:
    def test_zero_displacement_and_flux(self):
        pencil = models.damped_pencil(8)
        rng = np.random.default_rng(2)
        elem = wt.DomainElement(
            np.zeros(pencil.num_active),
            rng.standard_normal(pencil.num_active),
            np.zeros(pencil.num_trace),
        )
        image = wt.apply_A(pencil, elem)
        udot, vdot = pencil.split(image)
        assert np.array_equal(udot, elem.velocity)
        assert np.abs(vdot).max() < 1e-14

    def test_zero_velocity(self):
        pencil = models.damped_pencil(8)
        rng = np.random.default_rng(3)
        elem = wt.DomainElement(
            rng.standard_normal(pencil.num_active),
            np.zeros(pencil.num_active),
            rng.standard_normal(pencil.num_trace),
        )
        udot, vdot = pencil.split(wt.apply_A(pencil, elem))
        assert np.abs(udot).max() == 0.0
        rhs = -pencil.stiffness @ elem.displacement
        rhs[pencil.trace_slots] += elem.flux_trace
        assert np.abs(pencil.mass @ vdot - rhs).max() < 1e-12

    def test_solves_with_the_pencil_mass_factor(self, monkeypatch):
        pencil = models.square_pencil(4, 3, seed=2)
        rng = np.random.default_rng(5)
        elem = models.random_element(pencil, rng)
        calls = []
        monkeypatch.setattr(linalg.LuFactorization, "__init__", lambda *args: calls.append(args))
        monkeypatch.setattr(linalg, "certify_positive_definite", lambda *args: calls.append(args))
        _, vdot = pencil.split(wt.apply_A(pencil, elem))
        assert calls == []
        rhs = -pencil.stiffness @ elem.displacement
        rhs[pencil.trace_slots] += elem.flux_trace
        assert np.abs(pencil.mass @ vdot - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_no_active_node_gives_an_empty_state(self):
        mesh = wt.interval_mesh(1)
        pencil = wt.assemble_pencil(mesh, wt.sample_coefficients(mesh))
        elem = wt.DomainElement(np.zeros(0), np.zeros(0), np.zeros(0))
        image = wt.apply_A(pencil, elem)
        assert image.shape == (0,) and image.dtype == float

    def test_dirichlet_eigenvector_ratio(self):
        n = 64
        pencil = models.dirichlet_pencil(n)
        xs = pencil.mesh.nodes[pencil.active, 0]
        elem = wt.DomainElement(
            np.sin(np.pi * xs), np.zeros(pencil.num_active), np.zeros(0)
        )
        _, vdot = pencil.split(wt.apply_A(pencil, elem))
        ratio = -vdot / elem.displacement
        assert np.abs(ratio - np.pi**2).max() <= 0.01 * np.pi**2


class TestBoundaryMaps:
    def test_b1_zero_without_spring_and_flux(self):
        pencil = models.damped_pencil(6)
        rng = np.random.default_rng(4)
        elem = wt.DomainElement(
            rng.standard_normal(pencil.num_active),
            rng.standard_normal(pencil.num_active),
            np.zeros(pencil.num_trace),
        )
        assert np.array_equal(wt.trace_B1(pencil, elem), np.zeros(pencil.num_trace))

    def test_b2_is_nodal_trace(self):
        pencil = models.square_pencil(3, 3, seed=5)
        v = np.zeros(pencil.num_active)
        v[pencil.trace_slots[2]] = 1.0
        elem = wt.DomainElement(np.zeros(pencil.num_active), v, np.zeros(pencil.num_trace))
        b2 = wt.trace_B2(pencil, elem)
        want = np.zeros(pencil.num_trace)
        want[2] = 1.0
        assert np.array_equal(b2, want)

    def test_duality_pairing_is_dot(self):
        assert wt.duality_pairing(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0


class TestGreenIdentity:
    @pytest.mark.parametrize("builder", [
        lambda: models.damped_pencil(16),
        lambda: models.elastic_pencil(16),
        lambda: models.square_pencil(4, 4, seed=6),
    ])
    def test_random_elements(self, builder):
        pencil = builder()
        rng = np.random.default_rng(7)
        for _ in range(20):
            ex = models.random_element(pencil, rng)
            ey = models.random_element(pencil, rng)
            ax = wt.apply_A(pencil, ex)
            ay = wt.apply_A(pencil, ey)
            scale = (
                wt.state_norm(pencil, pencil.join(ex.displacement, ex.velocity))
                * wt.state_norm(pencil, ay)
                + wt.state_norm(pencil, pencil.join(ey.displacement, ey.velocity))
                * wt.state_norm(pencil, ax)
                + 1.0
            )
            assert wt.green_identity_residual(pencil, ex, ey) <= 1e-12 * scale

    def test_solve_free_route_matches_solve_route(self):
        # The residual is evaluated without linear solves; cross-check one
        # pairing against the honest apply_A route.
        pencil = models.square_pencil(3, 3, seed=8)
        rng = np.random.default_rng(8)
        ex = models.random_element(pencil, rng)
        ey = models.random_element(pencil, rng)
        ax = wt.apply_A(pencil, ex)
        ay = wt.apply_A(pencil, ey)
        y = pencil.join(ey.displacement, ey.velocity)
        x = pencil.join(ex.displacement, ex.velocity)
        lhs = wt.state_inner(pencil, ax, y) + wt.state_inner(pencil, x, ay)
        rhs = wt.duality_pairing(
            wt.trace_B1(pencil, ex), wt.trace_B2(pencil, ey)
        ) + wt.duality_pairing(wt.trace_B2(pencil, ex), wt.trace_B1(pencil, ey))
        assert abs(lhs - rhs) < 1e-10 * (abs(lhs) + abs(rhs) + 1.0)

    def test_zero_velocity_kills_b2_term(self):
        pencil = models.damped_pencil(10)
        rng = np.random.default_rng(10)
        ex = wt.DomainElement(
            rng.standard_normal(pencil.num_active),
            np.zeros(pencil.num_active),
            rng.standard_normal(pencil.num_trace),
        )
        assert np.abs(wt.trace_B2(pencil, ex)).max() == 0.0


class TestSurjectivityWitness:
    def test_zero_targets_zero_element(self):
        pencil = models.damped_pencil(8)
        elem = wt.surjectivity_witness(
            pencil, np.zeros(pencil.num_trace), np.zeros(pencil.num_trace)
        )
        assert np.abs(elem.displacement).max() == 0.0
        assert np.abs(elem.velocity).max() == 0.0
        assert np.abs(elem.flux_trace).max() == 0.0

    def test_random_targets_match_bitwise(self):
        pencil = models.square_pencil(4, 4, seed=11)
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = rng.standard_normal(pencil.num_trace)
            h = rng.standard_normal(pencil.num_trace)
            elem = wt.surjectivity_witness(pencil, f, h)
            assert np.array_equal(wt.trace_B1(pencil, elem), f)
            assert np.array_equal(wt.trace_B2(pencil, elem), h)

    def test_nonzero_displacement_same_traces(self):
        pencil = models.elastic_pencil(16)
        rng = np.random.default_rng(12)
        f = rng.standard_normal(pencil.num_trace)
        h = rng.standard_normal(pencil.num_trace)
        u = rng.standard_normal(pencil.num_active)
        elem = wt.surjectivity_witness(pencil, f, h, displacement=u)
        assert np.array_equal(elem.displacement, u)
        assert np.abs(wt.trace_B1(pencil, elem) - f).max() <= 1e-14 * (
            1.0 + np.abs(f).max()
        )
        assert np.array_equal(wt.trace_B2(pencil, elem), h)


def element(u=4, v=4, g=1):
    """A zero DomainElement with the given field lengths."""
    return wt.DomainElement(np.zeros(u), np.zeros(v), np.zeros(g))


def hand_built(pencil, **fields):
    """assemble_pencil on the pencil's coefficients with fields replaced."""
    return wt.assemble_pencil(pencil.mesh, dataclasses.replace(pencil.coeffs, **fields))


# Each bad input to the damped string at n = 4 (4 active nodes, 1 trace
# node, 4 cells, 2 boundary facets), its exception and its message.
INPUT_REFUSALS = {
    "split": (lambda p: p.split(np.zeros(7)), ValueError, "state length 7 != 8"),
    "apply_A displacement": (
        lambda p: wt.apply_A(p, element(u=3)), ValueError, "element fields must have length 4"
    ),
    "apply_A velocity": (
        lambda p: wt.apply_A(p, element(v=5)), ValueError, "element fields must have length 4"
    ),
    "apply_A flux": (
        lambda p: wt.apply_A(p, element(g=2)), ValueError, "flux trace must have length 1"
    ),
    "witness targets": (
        lambda p: wt.surjectivity_witness(p, np.zeros(2), np.zeros(1)),
        ValueError,
        "targets must have length 1",
    ),
    "witness displacement": (
        lambda p: wt.surjectivity_witness(p, np.zeros(1), np.zeros(1), np.zeros(3)),
        ValueError,
        "displacement must have length 4",
    ),
    "density": (
        lambda p: hand_built(p, density=np.ones(3)),
        wt.CoefficientError,
        r"weight must have one value per cell, got \(3,\)",
    ),
    "modulus": (
        lambda p: hand_built(p, modulus=np.ones((4, 2, 2))),
        wt.CoefficientError,
        r"modulus shape \(4, 2, 2\) not supported on a 1-D mesh",
    ),
    "boundary": (
        lambda p: hand_built(p, boundary_damping=np.ones(3)),
        wt.CoefficientError,
        r"need one value per boundary facet, got \(3,\)",
    ),
}


@pytest.mark.parametrize("name", INPUT_REFUSALS)
def test_bad_input_is_refused_with_its_message(name):
    call, error, message = INPUT_REFUSALS[name]
    with pytest.raises(error, match=message):
        call(models.damped_pencil(4))


class TestStateMetric:
    def test_norm_matches_gram_quadratic_form(self):
        pencil = models.square_pencil(3, 4, seed=13)
        rng = np.random.default_rng(13)
        x = models.random_state(pencil, rng)
        want = float(x @ pencil.gram @ x)
        assert abs(wt.state_norm(pencil, x) ** 2 - want) < 1e-10 * (want + 1.0)

    def test_physical_energy_drops_spring_term(self):
        pencil = models.elastic_pencil(8)
        rng = np.random.default_rng(14)
        x = models.random_state(pencil, rng)
        u, v = pencil.split(x)
        spring = float(u @ pencil.boundary_spring @ u)
        assert spring > 0
        diff = wt.state_norm(pencil, x) ** 2 - wt.physical_energy(pencil, x)
        assert abs(diff - spring) < 1e-10 * (spring + 1.0)


def add_at_reference(n, cells, local):
    """Dense assembly by np.add.at, the scatter the builders must reproduce."""
    full = np.zeros((n, n))
    np.add.at(full, (cells[:, :, None], cells[:, None, :]), local)
    return full


def reference_triangle_gradients(mesh):
    pts = mesh.nodes[mesh.cells]
    p0, p1, p2 = pts[:, 0], pts[:, 1], pts[:, 2]
    vols = cell_volumes(mesh)
    grads = np.stack(
        [
            np.stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]], axis=1),
            np.stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]], axis=1),
            np.stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]], axis=1),
        ],
        axis=2,
    )
    return grads / (2.0 * vols)[:, None, None]


class TestDenseBuildersMatchAddAt:
    """The reference triplet builders of models scatter through COO
    triplets; toarray() sums the duplicates in input order, so every entry
    must equal np.add.at's."""

    def meshes(self):
        return [
            wt.interval_mesh(9, right=BL.ELASTIC_DAMPED),
            wt.rectangle_mesh(5, 4, models.square_partition()),
        ]

    def test_mass_and_cell_average_mass(self):
        rng = np.random.default_rng(31)
        seg = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        tri = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
        for mesh in self.meshes():
            w = rng.uniform(0.5, 2.0, mesh.num_cells)
            scaled = (w * cell_volumes(mesh))[:, None, None]
            want = add_at_reference(mesh.num_nodes, mesh.cells, scaled * (seg if mesh.dim == 1 else tri))
            assert np.array_equal(models.mass_triplets(mesh, w).toarray(), want)
            if mesh.dim == 1:
                want = add_at_reference(mesh.num_nodes, mesh.cells, scaled * np.full((2, 2), 0.25))
                got = models.mass_triplets(mesh, w, "cell_average").toarray()
                assert np.array_equal(got, want)

    def test_stiffness(self):
        rng = np.random.default_rng(32)
        interval, square = self.meshes()
        t = rng.uniform(0.5, 2.0, interval.num_cells)
        local = (t / cell_volumes(interval))[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        want = add_at_reference(interval.num_nodes, interval.cells, local)
        assert np.array_equal(models.stiffness_triplets(interval, t).toarray(), want)
        a = rng.uniform(-0.5, 0.5, (square.num_cells, 2, 2))
        for modulus in (
            rng.uniform(0.5, 2.0, square.num_cells),
            a + np.swapaxes(a, 1, 2) + 2.0 * np.eye(2),
        ):
            tensors = modulus[:, None, None] * np.eye(2) if modulus.ndim == 1 else modulus
            grads = reference_triangle_gradients(square)
            vols = cell_volumes(square)
            flux = np.einsum("cab,cbj->caj", tensors, grads)
            local = vols[:, None, None] * np.einsum("cai,caj->cij", grads, flux)
            local = np.triu(local) + np.swapaxes(np.triu(local, 1), 1, 2)
            want = add_at_reference(square.num_nodes, square.cells, local)
            assert np.array_equal(models.stiffness_triplets(square, modulus).toarray(), want)

    def test_boundary_mass(self):
        rng = np.random.default_rng(33)
        for mesh in self.meshes():
            k = rng.uniform(0.0, 2.0, mesh.num_facets)
            facets = mesh.boundary_facets
            if mesh.dim == 1:
                want = np.zeros((mesh.num_nodes, mesh.num_nodes))
                np.add.at(want, (facets[:, 0], facets[:, 0]), k)
            else:
                seg = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
                local = (k * facet_measures(mesh))[:, None, None] * seg
                want = add_at_reference(mesh.num_nodes, facets, local)
            assert np.array_equal(models.boundary_triplets(mesh, k).toarray(), want)


class TestRestrict:
    """A form restricted to a node set through the shared sparsity pattern."""

    def test_matches_dense_indexing_bitwise(self):
        rng = np.random.default_rng(42)
        for mesh in interior_meshes():
            active = np.setdiff1d(np.arange(mesh.num_nodes), clamped_nodes(mesh))
            w = rng.uniform(0.5, 2.0, mesh.num_cells)
            k = rng.uniform(0.0, 2.0, mesh.num_facets)
            for triplets, element in (
                (models.mass_triplets(mesh, w), "cells"),
                (models.stiffness_triplets(mesh, w), "cells"),
                (models.boundary_triplets(mesh, k), "facets"),
            ):
                want = triplets.toarray()[np.ix_(active, active)]
                assert np.array_equal(restrict(mesh, triplets, active, element).toarray(), want)

    def test_returns_canonical_csr(self):
        mesh = wt.rectangle_mesh(5, 4, models.square_partition())
        active = np.setdiff1d(np.arange(mesh.num_nodes), clamped_nodes(mesh))
        triplets = models.stiffness_triplets(mesh, np.ones(mesh.num_cells))
        block = restrict(mesh, triplets, active)
        assert block.format == "csr" and block.shape == (active.size, active.size)
        assert block.has_canonical_format

    def test_empty_node_set(self):
        mesh = wt.rectangle_mesh(3, 2, models.square_partition())
        triplets = models.mass_triplets(mesh, np.ones(mesh.num_cells))
        block = restrict(mesh, triplets, np.arange(0))
        assert block.shape == (0, 0) and block.nnz == 0

    def test_eight_or_more_duplicates(self):
        # Two stacked copies of a 2-D stiffness give up to twelve triplets
        # per diagonal entry; np.add.reduceat sums runs that long pairwise.
        mesh = wt.rectangle_mesh(6, 5, models.square_partition())
        triplets = stacked_triplets(mesh, "stiffness", np.random.default_rng(7), copies=2)
        _, counts = np.unique(triplets.row * mesh.num_nodes + triplets.col, return_counts=True)
        assert counts.max() >= 8
        nodes = np.arange(mesh.num_nodes)
        want = triplets.toarray()
        assert np.array_equal(restrict(mesh, triplets, nodes).toarray(), want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_dense_indexing_on_random_meshes(self, data):
        labels = st.sampled_from(list(BL))
        if data.draw(st.booleans(), label="one-dimensional"):
            n = data.draw(st.integers(1, 10), label="n")
            mesh = wt.interval_mesh(n, left=data.draw(labels), right=data.draw(labels))
        else:
            sides = {side: (wt.Segment(data.draw(labels, label=side)),) for side in wt.mesh.SIDES}
            nx, ny = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
            mesh = wt.rectangle_mesh(nx, ny, sides)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["mass", "stiffness", "boundary"]), label="kind")
        triplets = stacked_triplets(mesh, kind, rng, copies=data.draw(st.integers(1, 5)))
        if data.draw(st.booleans(), label="active set"):
            nodes = np.setdiff1d(np.arange(mesh.num_nodes), clamped_nodes(mesh))
        else:
            size = data.draw(st.integers(0, mesh.num_nodes), label="subset size")
            nodes = rng.permutation(mesh.num_nodes)[:size]
        want = triplets.toarray()[np.ix_(nodes, nodes)]
        element = "facets" if kind == "boundary" else "cells"
        assert np.array_equal(restrict(mesh, triplets, nodes, element).toarray(), want)


def restrict(mesh, triplets, nodes, element="cells"):
    """CSR block on nodes of triplets, through the pattern of mesh on nodes.

    triplets are one or more copies, stacked in order, of the output of a
    builder over element ("cells" or "facets").
    """
    pattern = assembly._Pattern(mesh, nodes)
    entry = getattr(pattern, element)
    copies = triplets.nnz // max(entry.size, 1)
    return pattern.csr(pattern.sum(triplets.data, np.tile(entry, copies)))


def reference_restrict(triplets, nodes):
    """CSR block of triplets on nodes, summed with np.add.at as toarray() does.

    The restriction the pencil was built with before the shared pattern:
    one np.unique per block, exact zeros dropped.
    """
    n = nodes.size
    slot = np.full(triplets.shape[0], -1)
    slot[nodes] = np.arange(n)
    rows, cols = slot[triplets.row], slot[triplets.col]
    keep = (rows >= 0) & (cols >= 0)
    key, entry = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    data = np.zeros(key.size)
    np.add.at(data, entry, triplets.data[keep])
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    block = csr_matrix((data, key % max(n, 1), indptr), shape=(n, n))
    block.eliminate_zeros()
    return block


def reference_fields(mesh, coeffs, active, kinetic):
    """The seven CSR pencil fields composed with reference_restrict, block_diag and bmat."""

    def block(triplets):
        return reference_restrict(triplets, active)

    stiff = block(models.stiffness_triplets(mesh, coeffs.modulus))
    spring = block(models.boundary_triplets(mesh, coeffs.boundary_stiffness))
    damper = block(models.boundary_triplets(mesh, coeffs.boundary_damping))
    mass = block(models.mass_triplets(mesh, coeffs.density, kinetic))
    reaction = block(models.mass_triplets(mesh, coeffs.reaction))
    damping = block(models.mass_triplets(mesh, coeffs.damping))
    disp_gram = stiff + spring
    lower = [-disp_gram - reaction, -damper - damping]
    return {
        "gram": block_diag((disp_gram, mass), format="csr"),
        "dynamics": bmat([[None, disp_gram], lower], format="csr"),
        "mass": mass,
        "stiffness": stiff,
        "boundary_spring": spring,
        "boundary_damper": damper,
        "displacement_gram": disp_gram,
    }


def draw_field(data, rng, size, label, low, high):
    """A random field of one of three kinds: all zero, partly zero, or dense."""
    kind = data.draw(st.sampled_from(["zero", "sparse", "dense"]), label=label)
    values = rng.uniform(low, high, size)
    if kind == "zero":
        return np.zeros(size)
    if kind == "sparse":
        values[rng.random(size) < 0.5] = 0.0
    return values


class TestSharedPattern:
    """Every pencil block comes from one pattern, bit for bit as before it."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_seven_fields_match_the_reference_composition_bitwise(self, data):
        labels = st.sampled_from(list(BL))
        one_d = data.draw(st.booleans(), label="one-dimensional")
        if one_d:
            n = data.draw(st.integers(1, 16), label="n")
            mesh = wt.interval_mesh(n, left=data.draw(labels), right=data.draw(labels))
        else:
            sides = {side: (wt.Segment(data.draw(labels, label=side)),) for side in wt.mesh.SIDES}
            nx, ny = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
            mesh = wt.rectangle_mesh(nx, ny, sides)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        cells, facets = mesh.num_cells, mesh.num_facets
        coeffs = wt.sample_coefficients(
            mesh,
            modulus=rng.lognormal(0.0, 1.5, cells),
            density=rng.lognormal(0.0, 1.5, cells),
            reaction=draw_field(data, rng, cells, "reaction", -3.0, 3.0),
            damping=draw_field(data, rng, cells, "damping", -3.0, 3.0),
            boundary_stiffness=draw_field(data, rng, facets, "springs", 0.0, 2.0),
            boundary_damping=draw_field(data, rng, facets, "dampers", 0.0, 2.0),
        )
        kinetic = "consistent"
        if one_d and clamped_nodes(mesh).size and data.draw(st.booleans(), label="cell average"):
            kinetic = "cell_average"
        assume(energy_anchored(mesh, coeffs))
        pencil = wt.assemble_pencil(mesh, coeffs, kinetic=kinetic)
        want = reference_fields(mesh, coeffs, pencil.active, kinetic)
        for name, ref in want.items():
            got = getattr(pencil, f"{name}_csr")
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got, part), getattr(ref, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)

    def test_one_pattern_per_assembly(self, monkeypatch):
        built = []

        class Counting(assembly._Pattern):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(assembly, "_Pattern", Counting)
        for build, size in ((models.square_pencil, (4, 3)), (models.variable_pencil, (9,))):
            pencil = build(*size)
            assert len(built) == 1
            assert np.array_equal(built[0][1], pencil.active)
            built.clear()

    def test_one_geometry_pass_per_assembly(self, monkeypatch):
        # The element builders share one cell_volumes, the basis gradients
        # of the 2-D stiffness included.
        calls = []

        def counting(mesh):
            calls.append(mesh)
            return cell_volumes(mesh)

        monkeypatch.setattr(assembly, "cell_volumes", counting)
        for build, size in ((models.square_pencil, (4, 3)), (models.variable_pencil, (9,))):
            build(*size)
            assert len(calls) == 1
            calls.clear()

    def test_dropping_zeros_alters_neither_values_nor_pattern(self):
        # eliminate_zeros compacts its arrays in place; csr works on copies.
        mesh = wt.rectangle_mesh(4, 3, models.square_partition())
        pattern = assembly._Pattern(mesh, np.arange(mesh.num_nodes))
        values = np.random.default_rng(3).uniform(1.0, 2.0, pattern.nnz)
        values[::3] = 0.0
        kept = values.copy(), pattern.indices.copy(), pattern.indptr.copy()
        first, second = pattern.csr(values), pattern.csr(values)
        for before, after in zip(kept, (values, pattern.indices, pattern.indptr)):
            assert np.array_equal(before, after)
        assert first.nnz == second.nnz == np.count_nonzero(values)
        assert np.array_equal(first.toarray(), second.toarray())

    def test_zero_fields_store_no_entries(self):
        mesh = wt.rectangle_mesh(4, 3, models.square_partition())
        pencil = wt.assemble_pencil(mesh, wt.sample_coefficients(mesh))
        assert pencil.boundary_spring_csr.nnz == pencil.boundary_damper_csr.nnz == 0
        reaction, damper = assembly.dissipation_forms(pencil)
        assert reaction.nnz == damper.nnz == 0
        assert pencil.dynamics_csr.nnz == 2 * pencil.stiffness_csr.nnz


def stacked_triplets(mesh, kind, rng, copies):
    """copies triplet sets of one kind with random weights, in one COO matrix.

    Weights span several decades, so a different order of summation shows
    in the last bits.
    """
    parts = []
    for _ in range(copies):
        if kind == "boundary":
            k = rng.lognormal(0.0, 3.0, mesh.num_facets)
            parts.append(models.boundary_triplets(mesh, k))
        else:
            build = models.mass_triplets if kind == "mass" else models.stiffness_triplets
            parts.append(build(mesh, rng.lognormal(0.0, 3.0, mesh.num_cells)))
    return coo_matrix(
        (
            np.concatenate([p.data for p in parts]),
            (np.concatenate([p.row for p in parts]), np.concatenate([p.col for p in parts])),
        ),
        shape=parts[0].shape,
    )


class TestSparseOperators:
    def test_sparse_stiffness_is_symmetric_and_matches_dense(self):
        mesh = wt.rectangle_mesh(6, 5, models.square_partition())
        modulus = np.random.default_rng(34).uniform(0.5, 2.0, mesh.num_cells)
        sparse = models.stiffness_triplets(mesh, modulus).tocsr()
        dense = models.stiffness_triplets(mesh, modulus).toarray()
        assert np.array_equal(sparse.toarray(), sparse.toarray().T)
        assert np.abs(sparse.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()
        # Seven entries per interior row of a split-cell grid, not n.
        assert sparse.nnz <= 7 * mesh.num_nodes

    def test_gradient_operator_exact_on_affine_functions(self):
        for mesh, slope in (
            (wt.interval_mesh(7), np.array([-2.5])),
            (wt.rectangle_mesh(4, 6, models.square_partition()), np.array([1.5, -0.75])),
        ):
            p = 0.3 + mesh.nodes @ slope
            grads = (assembly.gradient_operator(mesh) @ p).reshape(mesh.num_cells, mesh.dim)
            assert np.abs(grads - slope).max() <= 1e-12

    def test_gradient_operator_equals_the_scattered_csr_bitwise(self):
        for mesh in (wt.interval_mesh(7), wt.rectangle_mesh(5, 4, models.square_partition())):
            vols = cell_volumes(mesh)
            rows = np.arange(mesh.num_cells * mesh.dim).reshape(mesh.num_cells, mesh.dim)
            shape = (mesh.num_cells * mesh.dim, mesh.num_nodes)
            local = assembly._basis_gradients(mesh, vols)
            want = models._scatter(rows, mesh.cells, local, shape).tocsr()
            got = assembly.gradient_operator(mesh)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), part
            assert got.data.tobytes() == want.data.tobytes()
        # Some triangle lists its nodes out of column order, so an unsorted
        # row would show above.
        assert (np.diff(mesh.cells, axis=1) < 0).any()


@pytest.fixture
def stacked_reads(monkeypatch):
    """Reads of gram_csr and dynamics_csr on every pencil, counted by name."""
    reads = dict.fromkeys(("gram_csr", "dynamics_csr"), 0)
    for name in reads:
        stack = getattr(wt.OperatorPencil, name).fget

        def counting(pencil, name=name, stack=stack):
            reads[name] += 1
            return stack(pencil)

        monkeypatch.setattr(wt.OperatorPencil, name, property(counting))
    return reads


class TestDerivedGenerator:
    """gram_csr and dynamics_csr are stacked from the stored blocks on each read."""

    def test_simulate_stacks_each_at_most_once(self, stacked_reads):
        pencil = models.square_pencil(4, 3, seed=9)
        x0 = models.random_state(pencil, np.random.default_rng(5))
        wt.simulate(pencil, x0, 0.02, 10)
        assert max(stacked_reads.values()) <= 1

    def test_compute_spectrum_stacks_each_once(self, stacked_reads):
        wt.compute_spectrum(models.damped_pencil(8))
        assert stacked_reads == {"gram_csr": 1, "dynamics_csr": 1}

    def test_decay_profile_stacks_each_once(self, stacked_reads):
        # Its start state comes from the velocity row alone (one m x m solve
        # of -Cvu), so it stacks no dynamics; the one gram_csr read is
        # simulate's.
        pencil = models.damped_pencil(12)
        image = models.random_state(pencil, np.random.default_rng(6))
        wt.decay_profile(pencil, image, 0.05, 4)
        assert stacked_reads == {"gram_csr": 1, "dynamics_csr": 0}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dissipation_and_green_identity_on_random_models(self, data):
        pencil, rng = models.draw_random_pencil(data)
        if data.draw(st.booleans(), label="no reaction"):
            zero = np.zeros_like(pencil.coeffs.reaction)
            pencil = wt.assemble_pencil(pencil.mesh, dataclasses.replace(pencil.coeffs, reaction=zero))
        m = pencil.num_active
        dynamics = pencil.dynamics_csr
        sym = (dynamics + dynamics.T).toarray()
        reaction, damper = assembly.dissipation_forms(pencil)
        assert np.array_equal(sym[m:, m:], -2.0 * damper.toarray())
        if not reaction.nnz:
            assert not sym[:m, m:].any() and not sym[m:, :m].any()
        for _ in range(5):
            ex, ey = models.random_element(pencil, rng), models.random_element(pencil, rng)
            x, y = (pencil.join(e.displacement, e.velocity) for e in (ex, ey))
            ax, ay = (wt.state_norm(pencil, wt.apply_A(pencil, e)) for e in (ex, ey))
            scale = wt.state_norm(pencil, x) * ay + wt.state_norm(pencil, y) * ax + 1.0
            assert wt.green_identity_residual(pencil, ex, ey) <= 1e-12 * scale
