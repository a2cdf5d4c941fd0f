"""Tests for the linear-algebra kernels."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import models
import oracles
import wavetriple as wt
from wavetriple import assembly, linalg, semigroup, spectral
from wavetriple.errors import EigenSolverError, NotPositiveDefiniteError, SingularMatrixError
from wavetriple.mesh import boundary_nodes


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestCholesky:
    def test_hand_factor(self):
        low = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(low, [[2.0, 0.0], [1.0, 1.0]], atol=1e-15)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction_and_triangularity(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 20, 40):
            mat = random_spd(rng, n)
            low = linalg.cholesky(mat)
            assert np.allclose(np.triu(low, 1), 0.0)
            scale = np.abs(mat).max()
            assert np.abs(low @ low.T - mat).max() <= 1e-12 * scale

    def test_semidefinite_pivot_breakdown(self):
        # Rank-1 PSD matrix: second pivot collapses to rounding level.
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(NotPositiveDefiniteError, match="pivot"):
            linalg.cholesky(np.outer(v, v))

    def test_empty_matrix(self):
        assert linalg.cholesky(np.zeros((0, 0))).shape == (0, 0)

    def test_input_not_mutated(self):
        mat = np.array([[4.0, 2.0], [2.0, 2.0]])
        ref = mat.copy()
        linalg.cholesky(mat)
        assert np.array_equal(mat, ref)

    def test_tiny_pivot_rejected_although_lapack_succeeds(self):
        mat = np.diag([1.0, 1e-15])
        assert np.all(np.diag(np.linalg.cholesky(mat)) > 0.0)
        with pytest.raises(NotPositiveDefiniteError, match="pivot"):
            linalg.cholesky(mat)

    @pytest.mark.parametrize(
        "mat",
        [
            np.diag([1.0, -1.0]),
            -np.eye(3),
            np.zeros((2, 2)),
            np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 3.0], [0.0, 3.0, 5.0]]),
        ],
    )
    def test_indefinite_is_not_a_lapack_error(self, mat):
        with pytest.raises(NotPositiveDefiniteError, match="pivot") as info:
            linalg.cholesky(mat)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize(
        "mat",
        [
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.ones((2, 3)),
            np.ones(4),
        ],
    )
    def test_bad_input_is_a_value_error(self, mat):
        with pytest.raises(ValueError):
            linalg.cholesky(mat)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        rank_drop=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_factor_or_reject_property(self, n, rank_drop, seed, scale):
        # X X^T has rank n - rank_drop: SPD when nothing is dropped,
        # positive semidefinite with a kernel otherwise.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, max(n - rank_drop, 0)))
        mat = scale * (x @ x.T)
        if rank_drop == 0:
            mat += scale * np.eye(n)
        try:
            low = linalg.cholesky(mat)
        except NotPositiveDefiniteError:
            assert rank_drop > 0
            return
        assert np.array_equal(np.triu(low, 1), np.zeros((n, n)))
        assert np.abs(low @ low.T - mat).max() <= 1e-12 * np.abs(mat).max()


def band_factor(gram):
    """Band factor of a dense SPD gram, the form the reduction takes."""
    return linalg.certify_positive_definite(scipy.sparse.csr_matrix(gram))


def dense_factor(band):
    """The lower triangular matrix a band factor stores."""
    n = band.shape[1]
    low = np.zeros((n, n))
    for k in range(band.shape[0]):
        low[np.arange(k, n), np.arange(n - k)] = band[k, : n - k]
    return low


def banded_matrix(kind, n, width, rng):
    """Symmetric matrix of order n and half-bandwidth at most width.

    "spd" is L L^T for a random lower band L whose diagonal dominates its
    rows, so L is well conditioned; "indefinite" is a random symmetric
    band whose diagonal may take either sign; "near_singular" is an spd
    matrix with one row and column scaled by 10^-4 to 10^-12, so one pivot
    is tiny but computed without cancellation; "badly_scaled" scales every
    row and column of an spd matrix by 10^-8 to 10^8.
    """
    low = np.tril(np.triu(rng.uniform(-1.0, 1.0, (n, n)), -width)) / (width + 1)
    np.fill_diagonal(low, rng.uniform(1.0, 2.0, n))
    if kind == "indefinite":
        sym = low + low.T
        np.fill_diagonal(sym, rng.uniform(-3.0, 3.0, n))
        return sym
    scaling = np.ones(n)
    if kind == "near_singular":
        scaling[rng.integers(n)] = 10.0 ** rng.uniform(-12.0, -4.0)
    elif kind == "badly_scaled":
        scaling = 10.0 ** rng.uniform(-8.0, 8.0, n)
    low *= scaling[:, None]
    return low @ low.T


def rule_outcome(certify, mat):
    """(error, pivots) of one call: the NotPositiveDefiniteError raised or
    None, and the pivots _pivot_rule checked (None on a LAPACK breakdown)."""
    seen = []
    real = linalg._pivot_rule

    def spy(factorize, operand, shape, entries, diagonal):
        def record(factor):
            seen.append(diagonal(factor))
            return seen[-1]

        return real(factorize, operand, shape, entries, record)

    with mock.patch.object(linalg, "_pivot_rule", spy):
        try:
            certify(mat)
        except NotPositiveDefiniteError as exc:
            return exc, seen[0] ** 2 if seen else None
    return None, seen[0] ** 2


def reported_row(exc):
    """Row a rejection names: the pivot rule's row, or a breakdown's minor - 1."""
    found = re.search(r"at row (\d+)", str(exc))
    if found:
        return int(found[1])
    return int(re.search(r"(\d+)-th leading minor", str(exc))[1]) - 1


def assert_same_verdict(mat):
    """The banded certificate and the dense factor agree on mat.

    Same verdict, and on rejection the same row and a reported pivot that
    agrees to 1e-12 relative, unless the smallest dense pivot lies within
    1e-12 relative of the threshold, where rounding may flip the verdict.
    """
    dense_error, dense_pivots = rule_outcome(linalg.cholesky, mat)
    band_error, band_pivots = rule_outcome(
        linalg.certify_positive_definite, scipy.sparse.csr_matrix(mat)
    )
    tol = linalg.PIVOT_RTOL * np.abs(mat).max(initial=0.0)
    if dense_pivots is not None and dense_pivots.size:
        if abs(dense_pivots.min() - tol) <= 1e-12 * tol:
            return
    assert (dense_error is None) == (band_error is None)
    if dense_error is None:
        return
    assert type(band_error) is type(dense_error)
    row = reported_row(dense_error)
    assert reported_row(band_error) == row
    assert (dense_pivots is None) == (band_pivots is None)
    if dense_pivots is not None:
        assert abs(band_pivots[row] - dense_pivots[row]) <= 1e-12 * dense_pivots[row]


class TestBandedCertificate:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["spd", "indefinite", "near_singular", "badly_scaled"]),
        n=st.integers(1, 40),
        width=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_dense_cholesky(self, kind, n, width, seed):
        assert_same_verdict(banded_matrix(kind, n, width, np.random.default_rng(seed)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_agrees_on_random_pencil_forms(self, data):
        pencil, _ = models.draw_random_pencil(data)
        for form in (pencil.displacement_gram_csr, pencil.mass_csr):
            assert_same_verdict(form.toarray())

    def test_accepts_spd_and_rejects_a_kernel(self):
        mat = banded_matrix("spd", 12, 2, np.random.default_rng(3))
        band = linalg.certify_positive_definite(scipy.sparse.csr_matrix(mat))
        assert band.shape == (3, 12)
        low = linalg.cholesky(mat)
        assert np.abs(dense_factor(band) - low).max() <= 1e-14 * np.abs(low).max()
        mat[:, 5] = mat[5, :] = 0.0
        with pytest.raises(NotPositiveDefiniteError, match="6-th leading minor"):
            linalg.certify_positive_definite(scipy.sparse.csr_matrix(mat))

    def test_empty_matrix(self):
        linalg.certify_positive_definite(scipy.sparse.csr_matrix((0, 0)))

    def test_duplicate_entries_are_summed(self):
        # Each entry stored twice, as two exact halves: not canonical CSR.
        csr = scipy.sparse.csr_matrix(banded_matrix("spd", 9, 2, np.random.default_rng(8)))
        twice = scipy.sparse.csr_matrix(
            (np.repeat(csr.data / 2, 2), np.repeat(csr.indices, 2), 2 * csr.indptr),
            shape=csr.shape,
        )
        assert not twice.has_canonical_format
        want = linalg.certify_positive_definite(csr)
        assert np.array_equal(linalg.certify_positive_definite(twice), want)
        assert twice.nnz == 2 * csr.nnz

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entry_is_the_dense_value_error(self, bad):
        mat = np.eye(3)
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(ValueError) as dense:
            linalg.cholesky(mat)
        with pytest.raises(ValueError) as band:
            linalg.certify_positive_definite(scipy.sparse.csr_matrix(mat))
        assert type(band.value) is type(dense.value)
        assert str(band.value) == str(dense.value) == "matrix contains non-finite entries"


    def test_band_solve_of_no_column_is_returned_as_it_is(self):
        # dtbtrs corrupts the heap on an (n, 0) right-hand side with n > 0,
        # so the calls run in a child that a crash cannot take down.  One
        # call did not always end in a crash; fifty of each kind did.
        src = str(Path(linalg.__file__).resolve().parents[1])
        code = (
            "import numpy as np, scipy.sparse\n"
            "from wavetriple import linalg\n"
            "tri = scipy.sparse.diags([[1.0] * 49, [4.0] * 50, [1.0] * 49], [-1, 0, 1])\n"
            "low = linalg.certify_positive_definite(tri)\n"
            "empty = np.zeros((50, 0), order='F')\n"
            "for trans in 'NT':\n"
            "    print({linalg._band_solve(low, empty, trans).shape for _ in range(50)})\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.split("\n") == ["{(50, 0)}", "{(50, 0)}", ""]


class TestLuSolve:
    def test_diagonal_system(self):
        x = linalg.LuFactorization(np.diag([2.0, 4.0])).solve(np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-15)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.LuFactorization(np.zeros((3, 3))).solve(np.ones(3))

    def test_random_residuals(self):
        rng = np.random.default_rng(5)
        for n in (2, 7, 31):
            mat = rng.standard_normal((n, n)) + n * np.eye(n)
            rhs = rng.standard_normal(n)
            x = linalg.LuFactorization(mat).solve(rhs)
            bound = 1e-10 * np.abs(mat).max() * max(np.abs(x).max(), 1.0)
            assert np.abs(mat @ x - rhs).max() <= bound

    def test_factorization_reuse_and_complex_rhs(self):
        rng = np.random.default_rng(6)
        mat = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        fact = linalg.LuFactorization(mat)
        rhs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x = fact.solve(rhs)
        assert np.abs(mat @ x - rhs).max() < 1e-10
        # Matrix-valued right-hand side.
        block = rng.standard_normal((8, 3))
        assert np.abs(mat @ fact.solve(block) - block).max() < 1e-10

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_nearly_singular_detected(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError):
            linalg.LuFactorization(mat)


def fem_like(rng, n):
    """Nonsymmetric tridiagonal matrix with a dominant diagonal."""
    return (
        np.diag(4.0 + rng.uniform(size=n))
        + np.diag(rng.standard_normal(n - 1), 1)
        + np.diag(rng.standard_normal(n - 1), -1)
    )


def string_stiffness(n):
    """Tridiagonal [-1, 2, -1]: the fixed-fixed string's stiffness, SPD."""
    return scipy.sparse.diags([[-1.0] * (n - 1), [2.0] * n, [-1.0] * (n - 1)], [-1, 0, 1])


def saddle_point(n):
    """[[K, B], [B^T, 0]]: symmetric, with a zero diagonal block.

    K is string_stiffness(n); column k of B ties node 3k to node 3k + 1.
    """
    cols = np.arange(n // 3)
    rows = np.stack([3 * cols, 3 * cols + 1], axis=1).ravel()
    values = np.tile([1.0, -1.0], cols.size)
    ties = scipy.sparse.csr_matrix((values, (rows, np.repeat(cols, 2))), shape=(n, cols.size))
    return scipy.sparse.bmat([[string_stiffness(n), ties], [ties.T, None]])


class TestSparseLu:
    def test_sparse_input_matches_dense_copy(self):
        rng = np.random.default_rng(21)
        dense = fem_like(rng, 15)
        rhs = rng.standard_normal(15)
        want = linalg.LuFactorization(dense).solve(rhs)
        assert np.abs(dense @ want - rhs).max() < 1e-12
        for fmt in ("csr", "csc", "coo"):
            sparse = scipy.sparse.csr_matrix(dense).asformat(fmt)
            assert np.array_equal(linalg.LuFactorization(sparse).solve(rhs), want)

    def test_complex_and_matrix_rhs_on_sparse_input(self):
        rng = np.random.default_rng(22)
        dense = fem_like(rng, 12)
        fact = linalg.LuFactorization(scipy.sparse.csc_matrix(dense))
        rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        x = fact.solve(rhs)
        assert np.iscomplexobj(x)
        assert np.abs(dense @ x - rhs).max() < 1e-12
        block = rng.standard_normal((12, 3))
        xb = fact.solve(block)
        assert xb.shape == (12, 3)
        assert np.abs(dense @ xb - block).max() < 1e-12

    def test_input_not_modified(self):
        rng = np.random.default_rng(23)
        sparse = scipy.sparse.csr_matrix(fem_like(rng, 6))
        before = sparse.copy()
        linalg.LuFactorization(sparse).solve(np.ones(6))
        assert (sparse != before).nnz == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_matrix_rejected(self, bad):
        mat = np.eye(3)
        mat[1, 2] = bad
        for form in (mat, scipy.sparse.csr_matrix(mat)):
            with pytest.raises(ValueError, match="non-finite"):
                linalg.LuFactorization(form)

    def test_nonfinite_rhs_rejected(self):
        fact = linalg.LuFactorization(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="non-finite"):
            fact.solve(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            fact.solve(np.array([1.0, 1j * np.inf]))

    def test_exactly_singular_sparse_is_singular_error(self):
        # A zero column: SuperLU stops with "exactly singular".
        mat = scipy.sparse.csr_matrix(np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [0.0, 0.0, 5.0]]))
        with pytest.raises(SingularMatrixError):
            linalg.LuFactorization(mat)

    def test_tiny_pivot_is_singular_error(self):
        # 1e-15 <= PIVOT_RTOL * max|a|: the package threshold, not SuperLU's.
        mat = scipy.sparse.diags([1.0, 1e-15, 1.0])
        with pytest.raises(SingularMatrixError, match="pivot"):
            linalg.LuFactorization(mat)
        linalg.LuFactorization(scipy.sparse.diags([1.0, 1e-13, 1.0]))

    def test_non_square_rejected(self):
        for shape in ((3,), (2, 3), (2, 2, 2)):
            with pytest.raises(ValueError, match="square"):
                linalg.LuFactorization(np.ones(shape))
        with pytest.raises(ValueError, match="square"):
            linalg.LuFactorization(scipy.sparse.csr_matrix((2, 3)))

    def test_interior_stiffness_takes_the_symmetric_path(self):
        # The Helmholtz potential block on the nx = 64 square (3,969 nodes).
        from scipy.sparse.linalg import splu

        mesh = wt.rectangle_mesh(64, 64, models.square_partition())
        inside = np.setdiff1d(np.arange(mesh.num_nodes), boundary_nodes(mesh))
        stiff = models.stiffness_triplets(mesh, np.ones(mesh.num_cells)).tocsr()
        block = stiff[inside][:, inside].tocsc()
        fact = linalg.LuFactorization(block)
        lu, default = fact._lu, splu(block)
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz
        rhs = np.random.default_rng(24).standard_normal(inside.size)
        x = fact.solve(rhs)
        assert np.abs(block @ x - rhs).max() <= 1e-12 * np.abs(rhs).max()

    @pytest.mark.parametrize(
        "mat",
        [
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            string_stiffness(40) - 1.3 * scipy.sparse.eye(40),
            -string_stiffness(40),
            saddle_point(30),
            np.array([[4.0, 1.0, 0.0], [2.0, 5.0, 1.0], [0.0, 3.0, 6.0]]),
        ],
        ids=["zero diagonal", "indefinite", "negative definite", "saddle point", "unsymmetric"],
    )
    def test_other_matrices_solve_as_on_the_default_path(self, mat):
        # The last four give a symmetric-mode solution that differs from the
        # default path's in the last bits, so taking it would show here.
        from scipy.sparse.linalg import splu

        csc = scipy.sparse.csc_matrix(mat)
        rhs = np.arange(1.0, mat.shape[0] + 1.0)
        got = linalg.LuFactorization(csc).solve(rhs)
        assert np.array_equal(got, splu(csc).solve(rhs))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_symmetric_singular_is_singular_error(self):
        # Exactly singular, and the free-free string's stiffness (constants
        # in its kernel, a last pivot at rounding level).
        free = scipy.sparse.diags([[-1.0] * 5, [1.0] + [2.0] * 4 + [1.0], [-1.0] * 5], [-1, 0, 1])
        for mat in (np.ones((2, 2)), free):
            with pytest.raises(SingularMatrixError):
                linalg.LuFactorization(mat)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_decay_profile_start_state_matches_the_dense_solve(self, data):
        # The start state from one m x m solve of S + Ma is the solution of
        # the stacked 2m x 2m system dynamics x0 = gram image, to 1e-12
        # relative, or to the rounding the condition number allows.
        pencil, rng = models.draw_random_pencil(data)
        if data.draw(st.booleans(), label="no reaction"):
            coeffs = dataclasses.replace(pencil.coeffs, reaction=np.zeros(pencil.mesh.num_cells))
            pencil = wt.assemble_pencil(pencil.mesh, coeffs)
        dynamics = pencil.dynamics_csr.toarray()
        assume(dynamics.size)
        image = models.random_state(pencil, rng)
        want = np.linalg.solve(dynamics, pencil.gram_csr @ image)
        with mock.patch.object(semigroup, "simulate", wraps=semigroup.simulate) as run:
            wt.decay_profile(pencil, image, 0.01, 0)
        got = run.call_args.args[1]
        bound = 1e-12 + 10 * np.finfo(float).eps * np.linalg.cond(dynamics)
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    def test_sparse_solver_not_imported_with_the_package(self):
        # Commands that never solve (spectrum) must not pay for SuperLU.
        src = str(Path(linalg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, wavetriple.cli\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_an_empty_factor_solves_to_zeros_of_the_rhs_type(self, shape):
        fact = linalg.LuFactorization(np.zeros((0, 0)))
        for dtype in (float, complex):
            x = fact.solve(np.zeros(shape, dtype))
            assert x.shape == shape and x.dtype == dtype


def interior_p1_stiffness(nx):
    """The P1 stiffness of the nx by nx square on its interior nodes, CSR."""
    mesh = wt.rectangle_mesh(nx, nx, models.square_partition())
    inside = np.setdiff1d(np.arange(mesh.num_nodes), boundary_nodes(mesh))
    return models.stiffness_triplets(mesh, np.ones(mesh.num_cells)).tocsr()[inside][:, inside]


def badly_scaled(mat, seed, orders):
    """D mat D with D diagonal, log10 D uniform in [-orders, orders]."""
    rng = np.random.default_rng(seed)
    scale = scipy.sparse.diags(10.0 ** rng.uniform(-orders, orders, mat.shape[0]))
    return (scale @ mat @ scale).tocsr()


def free_free_string(n):
    """The stiffness of a string with both ends free: constants in its kernel."""
    ends = [1.0] + [2.0] * (n - 2) + [1.0]
    return scipy.sparse.diags([[-1.0] * (n - 1), ends, [-1.0] * (n - 1)], [-1, 0, 1]).tocsr()


def lu_outcome(mat):
    """(paths, error) of LuFactorization(mat): the SuperLU calls it made, each
    "symmetric" or "default", and the SingularMatrixError raised or None."""
    import scipy.sparse.linalg

    paths, real = [], scipy.sparse.linalg.splu

    def spy(a, **options):
        paths.append("symmetric" if options else "default")
        return real(a, **options)

    with mock.patch.object(scipy.sparse.linalg, "splu", spy):
        try:
            linalg.LuFactorization(mat)
        except SingularMatrixError as exc:
            return paths, exc
    return paths, None


# Fixed symmetric sparse matrices, and whether the pivot rule accepts each.
ONE_RULE_MATRICES = {
    "P1 stiffness": (lambda: interior_p1_stiffness(8), True),
    # Entries over twelve orders of magnitude, every pivot still above the floor.
    "badly scaled SPD": (lambda: badly_scaled(interior_p1_stiffness(8), 37, 3.0), True),
    "indefinite": (lambda: (string_stiffness(40) - 1.3 * scipy.sparse.eye(40)).tocsr(), False),
    "free-free string": (lambda: free_free_string(6), False),
}


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("name", ONE_RULE_MATRICES)
def test_both_factor_engines_follow_one_pivot_rule(name):
    # LuFactorization keeps its symmetric-mode factor exactly when the band
    # Cholesky certificate accepts the matrix; both refuse the singular one.
    build, accepted = ONE_RULE_MATRICES[name]
    mat = build()
    try:
        linalg.certify_positive_definite(mat)
        certified = True
    except NotPositiveDefiniteError:
        certified = False
    paths, error = lu_outcome(mat)
    assert certified == accepted
    assert (paths == ["symmetric"] and error is None) == certified
    if not certified:
        assert paths == ["symmetric", "default"]
    if name == "free-free string":
        assert isinstance(error, SingularMatrixError)


# Each bad input to the factor layer, its call and its message.
INPUT_REFUSALS = {
    "rhs length": (
        lambda: linalg.LuFactorization(np.eye(2)).solve(np.zeros(3)),
        "rhs length 3 != matrix order 2",
    ),
    "eig non-square": (
        lambda: linalg.eig_nonsymmetric(np.ones((2, 3))),
        r"expected a square matrix, got shape \(2, 3\)",
    ),
}


@pytest.mark.parametrize("name", INPUT_REFUSALS)
def test_bad_input_is_a_value_error_with_its_message(name):
    call, message = INPUT_REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()


def reference_eigenvectors(mat):
    """Complex eigenvectors of mat, in the order eig_nonsymmetric sorts values.

    The construction eig_nonsymmetric used before it kept dgeev's packed
    layout: every sorted column is expanded from the real vector matrix into
    one complex (n, n) array and normalized there, in column blocks, by
    complex division by its norm.
    """
    a = np.array(mat, dtype=float, order="F")
    n = a.shape[0]
    lwork, _ = scipy.linalg.lapack.dgeev_lwork(n, compute_vl=0)
    wr, wi, _, vr, info = scipy.linalg.lapack.dgeev(
        a, compute_vl=0, lwork=int(lwork), overwrite_a=1
    )
    assert info == 0
    order = np.lexsort((wi, wr))
    first = np.arange(n) - (wi < 0)
    vectors = np.empty((n, n), complex)
    for cols in linalg.column_blocks(n):
        block, src = vectors[:, cols], order[cols]
        block.real = vr[:, first[src]]
        pair = wi[src] != 0
        block.imag[:, ~pair] = 0.0
        block.imag[:, pair] = vr[:, first[src[pair]] + 1] * np.sign(wi[src[pair]])
        block /= np.linalg.norm(block, axis=0)
    return vectors


def reference_pencil_vectors(op, factors):
    """generalized_eig's former vectors: the complex array back-transformed whole."""
    vectors = reference_eigenvectors(linalg.generalized_to_standard(op, factors))
    for rows, low in linalg._blocks(factors):
        real = vectors[rows].view(float)
        real[...] = linalg._band_solve(low, real, trans="T")
    return vectors


def spectrum_matrix(kinds, rng):
    """Q D Q^T, Q a random orthogonal matrix, D block diagonal.

    The k-th block of D is the real eigenvalue k (kinds[k] false) or the
    conjugate pair k +- i*w (true), so the sorted order of the eigenvalues
    follows kinds and a pair's two members sit next to each other.
    """
    blocks = []
    for k, pair in enumerate(kinds):
        w = rng.uniform(0.5, 3.0)
        blocks.append(np.array([[k, w], [-w, k]]) if pair else np.array([[float(k)]]))
    d = scipy.linalg.block_diag(*blocks)
    q = np.linalg.qr(rng.standard_normal(d.shape))[0]
    return q @ d @ q.T


def assert_blocks_equal(packed, want):
    """Every column_blocks block, a block across the first edge, and the whole.

    np.array_equal compares as IEEE numbers, so this is bit for bit except
    for the sign of a zero: where dgeev leaves an exact zero imaginary part,
    the former construction gave the conjugate member +0 or -0 by the sign
    of the real part, and the packed one always gives the negated zero.
    """
    n = want.shape[1]
    assert np.array_equal(packed.expand(), want)
    edge = slice(linalg.COLUMN_BLOCK - 3, linalg.COLUMN_BLOCK + 3)
    for cols in linalg.column_blocks(n) + [edge]:
        got = packed.expand(cols)
        assert got.dtype == complex and got.flags.c_contiguous
        assert np.array_equal(got, want[:, cols])


# A pair at sorted positions 63 and 64 crosses the first column-block edge;
# 129 columns end in a one-column tail, which joins the block before it.
EDGE_KINDS = [[False] * 63 + [True] + [False] * 2, [False] + [True] * 64]


class TestPackedEigenvectors:
    @settings(max_examples=25, deadline=None)
    @given(kinds=st.lists(st.booleans(), min_size=1, max_size=80), seed=st.integers(0, 2**32 - 1))
    @example(kinds=EDGE_KINDS[0], seed=0)
    @example(kinds=EDGE_KINDS[1], seed=1)
    def test_expanded_blocks_equal_the_complex_construction(self, kinds, seed):
        mat = spectrum_matrix(kinds, np.random.default_rng(seed))
        values, packed = linalg.eig_nonsymmetric(mat)
        assert np.array_equal(np.sign(values.imag), packed.sign)
        assert packed.packed.flags.f_contiguous
        assert_blocks_equal(packed, reference_eigenvectors(mat))

    @settings(max_examples=25, deadline=None)
    @given(kinds=st.lists(st.booleans(), min_size=2, max_size=80), seed=st.integers(0, 2**32 - 1))
    @example(kinds=EDGE_KINDS[0], seed=2)
    @example(kinds=EDGE_KINDS[1], seed=3)
    def test_back_transformed_blocks_equal_the_complex_construction(self, kinds, seed):
        # A tridiagonal Gram matrix split in two blocks, and an operator
        # whose reduced matrix is spectrum_matrix, so the kinds survive.
        rng = np.random.default_rng(seed)
        reduced = spectrum_matrix(kinds, rng)
        n = reduced.shape[0]
        off = rng.uniform(-0.4, 0.4, n - 1)
        gram = scipy.sparse.diags([off, rng.uniform(1.0, 2.0, n), off], [-1, 0, 1]).tocsr()
        gram[n // 2, n // 2 - 1] = gram[n // 2 - 1, n // 2] = 0.0
        gram.eliminate_zeros()
        halves = (gram[: n // 2, : n // 2], gram[n // 2 :, n // 2 :])
        factors = tuple(map(linalg.certify_positive_definite, halves))
        low = scipy.linalg.block_diag(*map(dense_factor, factors))
        op = low @ reduced @ low.T
        values, packed = linalg.generalized_eig(op, factors)
        assert_blocks_equal(packed, reference_pencil_vectors(op, factors))


class TestEig:
    def test_rotation_pair(self):
        values, _ = linalg.eig_nonsymmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(values, [-1j, 1j], atol=1e-14)

    def test_cube_roots_of_unity_companion(self):
        values, _ = linalg.eig_nonsymmetric(np.array([[0.0, 1.0], [-1.0, -1.0]]))
        want = np.array([(-1 - 1j * np.sqrt(3)) / 2, (-1 + 1j * np.sqrt(3)) / 2])
        assert np.allclose(values, want, atol=1e-14)

    def test_diagonal_sorting(self):
        values, _ = linalg.eig_nonsymmetric(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [1.0, 2.0, 3.0], atol=1e-14)

    def test_trace_and_determinant_invariants(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 8, 33, 64):
            mat = rng.standard_normal((n, n))
            values, _ = linalg.eig_nonsymmetric(mat)
            scale = np.abs(mat).max()
            assert abs(values.sum().real - np.trace(mat)) <= 1e-9 * scale * n
            assert abs(values.sum().imag) <= 1e-9 * scale * n
            det = oracles.elimination_determinant(mat.tolist())
            prod = np.prod(values)
            assert abs(prod - det) <= 1e-6 * max(abs(det), 1e-300)

    def test_conjugate_pairing(self):
        rng = np.random.default_rng(13)
        mat = rng.standard_normal((12, 12))
        values, _ = linalg.eig_nonsymmetric(mat)
        conj = np.sort_complex(values.conj())
        assert np.allclose(np.sort_complex(values), conj, atol=1e-9)

    def test_residuals_recomputed_small(self):
        rng = np.random.default_rng(14)
        mat = rng.standard_normal((20, 20))
        values, packed = linalg.eig_nonsymmetric(mat)
        vectors = packed.expand()
        norms = np.linalg.norm(vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        residuals = np.linalg.norm(mat @ vectors - vectors * values, axis=0)
        assert residuals.max() <= 1e-10 * np.abs(mat).max() * 20

    # dgeev scales a matrix whose largest entry lies outside [EIG_SAFE_MIN,
    # 1 / EIG_SAFE_MIN], and some OpenBLAS builds do not scale its
    # eigenvalues back; eig_nonsymmetric brings such a copy into range.
    @pytest.mark.parametrize(
        "mat, want",
        [([[s, 1.0], [0.0, 2.0]], [2.0, s]) for s in (1e139, 1e200, 1e300)]
        + [([[t, t], [0.0, 2 * t]], [t, 2 * t]) for t in (1e-140, 1e-200)],
        ids=["1e139", "1e200", "1e300", "1e-140", "1e-200"],
    )
    def test_values_right_outside_the_unscaled_range(self, mat, want):
        values, packed = linalg.eig_nonsymmetric(np.array(mat))
        vectors = packed.expand()
        assert np.all(np.abs(values - want) <= 1e-14 * np.abs(want))
        assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_an_eigensolver_error(self, bad):
        mat = np.eye(3)
        mat[1, 2] = bad
        with pytest.raises(EigenSolverError, match="non-finite"):
            linalg.eig_nonsymmetric(mat)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 129, 200])
    def test_matches_numpy_eig_on_random_matrices(self, n):
        rng = np.random.default_rng(40 + n)
        mat = rng.standard_normal((n, n))
        kept = mat.copy()
        values, packed = linalg.eig_nonsymmetric(mat)
        vectors = packed.expand()
        assert np.array_equal(mat, kept)
        assert vectors.dtype == complex and vectors.flags.c_contiguous
        assert np.array_equal(values, values[np.lexsort((values.imag, values.real))])
        want = np.linalg.eig(mat)[0]
        want = want[np.lexsort((want.imag, want.real))]
        assert np.all(np.abs(values - want) <= 1e-12 * np.abs(want).max())
        assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-13)
        residuals = np.linalg.norm(mat @ vectors - vectors * values, axis=0)
        assert residuals.max() <= 1e-12 * np.abs(mat).max() * n

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129, 130, 200])
    def test_column_blocks_cover_in_order_and_none_is_one_column(self, n):
        blocks = linalg.column_blocks(n)
        assert [i for cols in blocks for i in range(n)[cols]] == list(range(n))
        widths = [b.stop - b.start for b in blocks]
        assert all(w <= linalg.COLUMN_BLOCK + 1 for w in widths)
        assert n <= 1 or 1 not in widths


class TestPencil:
    def test_hand_pencil(self):
        gram = np.array([[2.0, 0.0], [0.0, 1.0]])
        dyn = np.array([[0.0, 1.0], [-1.0, 0.0]])
        values, _ = linalg.generalized_eig(dyn, (band_factor(gram),))
        want = np.array([-1j, 1j]) / np.sqrt(2.0)
        assert np.allclose(values, want, atol=1e-14)

    def test_reduction_is_congruent(self):
        rng = np.random.default_rng(21)
        gram = random_spd(rng, 6)
        op = rng.standard_normal((6, 6))
        band = band_factor(gram)
        b = linalg.generalized_to_standard(op, (band,))
        low = dense_factor(band)
        assert np.abs(low @ low.T - gram).max() <= 1e-12 * np.abs(gram).max()
        assert np.abs(low @ b @ low.T - op).max() <= 1e-10 * np.abs(op).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_characteristic_polynomial_oracle(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(25):
            gram = random_spd(rng, n)
            op = rng.standard_normal((n, n))
            got, _ = linalg.generalized_eig(op, (band_factor(gram),))
            want = oracles.pencil_eigenvalues(gram.tolist(), op.tolist())
            scale = 1.0 + max(abs(z) for z in want)
            assert oracles.match_roots(got, want) <= 1e-8 * scale

    def test_vectors_unit_gram_norm_and_residuals(self):
        rng = np.random.default_rng(22)
        gram = random_spd(rng, 10)
        op = rng.standard_normal((10, 10))
        values, packed = linalg.generalized_eig(op, (band_factor(gram),))
        vectors = packed.expand()
        residuals = linalg.pencil_residuals(gram @ vectors, op @ vectors, values)
        for k in range(values.shape[0]):
            z = vectors[:, k]
            assert abs(np.real(np.conj(z) @ gram @ z) - 1.0) < 1e-8
            raw = np.linalg.norm(op @ z - values[k] * (gram @ z))
            denom = np.linalg.norm(gram @ z) * (1.0 + abs(values[k]))
            assert abs(residuals[k] - raw / denom) < 1e-12
        assert residuals.max() < 1e-10

    def test_block_reduction_matches_full_factor(self):
        rng = np.random.default_rng(23)
        blocks = [random_spd(rng, 9), random_spd(rng, 6)]
        gram = np.zeros((15, 15))
        gram[:9, :9] = blocks[0]
        gram[9:, 9:] = blocks[1]
        op = rng.standard_normal((15, 15))
        factors = tuple(band_factor(b) for b in blocks)
        full, _ = linalg.generalized_eig(op, (band_factor(gram),))
        split, packed = linalg.generalized_eig(op, factors)
        z = packed.expand()
        split_residuals = linalg.pencil_residuals(gram @ z, op @ z, split)
        scale = np.abs(full).max()
        assert np.abs(split - full).max() <= 1e-12 * scale
        assert split_residuals.max() < spectral.RESIDUAL_TOL
        b_split = linalg.generalized_to_standard(op, factors)
        low = np.zeros((15, 15))
        low[:9, :9], low[9:, 9:] = map(dense_factor, factors)
        assert np.abs(low @ b_split @ low.T - op).max() <= 1e-10 * np.abs(op).max()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_band_reduction_matches_dense_cholesky_reduction(self, data):
        # Two backward-stable triangular solves per side: the two routes
        # agree to order * eps * cond(L) relative to the largest entry.
        pencil, _ = models.draw_random_pencil(data)
        blocks = (pencil.displacement_gram_csr, pencil.mass_csr)
        got = linalg.generalized_to_standard(
            pencil.dynamics_csr, tuple(map(linalg.certify_positive_definite, blocks))
        )
        low = scipy.linalg.block_diag(*(linalg.cholesky(b.toarray()) for b in blocks))
        half = scipy.linalg.solve_triangular(low, pencil.dynamics_csr.toarray(), lower=True)
        want = scipy.linalg.solve_triangular(low, half.T, lower=True).T
        order = want.shape[0]
        if order:
            tol = order * np.finfo(float).eps * np.linalg.cond(low) * np.abs(want).max()
            assert np.abs(got - want).max() <= tol

    def test_zero_on_the_band_factor_diagonal_is_singular(self):
        band = np.array([[1.0, 0.0, 1.0]])
        with pytest.raises(SingularMatrixError, match="LAPACK info 2"):
            linalg.generalized_to_standard(np.eye(3), (band,))

    def test_block_factors_must_cover_operator(self):
        factors = (np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="Gram order"):
            linalg.generalized_to_standard(np.eye(5), factors)

    def test_indefinite_gram_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gram = np.array([[1.0, 0.0], [0.0, -1.0]])
            linalg.generalized_eig(np.eye(2), (band_factor(gram),))


class TestSecularRoots:
    def test_one_mode_is_the_damped_oscillator(self):
        # m = 1: p(lam) = lam^2 + c lam + w^2, complex below critical
        # damping (c < 2w) and real above it.
        for omega2, weight in ((4.0, 0.5), (4.0, 3.9), (4.0, 4.1), (4.0, 40.0)):
            got = np.sort_complex(linalg.secular_roots(np.array([omega2]), np.array([weight])))
            want = np.sort_complex(np.roots([1.0, weight, omega2]).astype(complex))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_undamped_roots_are_the_poles(self):
        omega2 = (np.arange(1.0, 41.0) * np.pi) ** 2
        got = linalg.secular_roots(omega2, np.zeros(40))
        got = got[np.lexsort((got.real, got.imag))]
        want = 1j * np.sqrt(omega2)
        assert np.abs(got - np.concatenate([-want[::-1], want])).max() <= 1e-12 * want.imag.max()

    @pytest.mark.parametrize("weight", [0.01, 1.0, 6.0, 1e4])
    def test_roots_match_the_companion_matrix(self, weight):
        # The linearization [[0, W], [-W, -b b^T]], b = sqrt(c), has p's roots
        # for eigenvalues; c_k is 2 weight, as on the unit string.
        omega = np.arange(1.0, 13.0) * np.pi
        c = np.full(12, 2.0 * weight)
        b = np.sqrt(c)
        mat = np.block([[np.zeros((12, 12)), np.diag(omega)], [-np.diag(omega), -np.outer(b, b)]])
        want = np.linalg.eigvals(mat)
        got = linalg.secular_roots(omega**2, c)
        distance = np.abs(got[:, None] - want[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(distance)
        assert distance[rows, cols].max() <= 1e-9 * np.abs(want).max()
