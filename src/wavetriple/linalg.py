"""Linear-algebra kernels: Cholesky, LU solves, nonsymmetric eigenproblems.

certify_positive_definite applies Cholesky's pivot rule to a sparse
symmetric matrix by factoring only its band, and returns the band factor.
LU solves take dense or scipy.sparse input and always factor with SuperLU:
every matrix solved against is a finite element matrix with a handful of
entries per row.  Both apply a package-wide relative pivot threshold on
top of the library's own checks.  A pencil with a block-diagonal Gram
matrix is reduced by banded triangular solves with the factors of its
diagonal blocks; the eigensolve of the reduced matrix is dense by nature.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import EigenSolverError, NotPositiveDefiniteError, SingularMatrixError

# Relative pivot threshold below which a matrix is treated as not positive
# definite (resp. singular), scaled by the max-magnitude entry of the input:
# the package-wide detector for energy forms with a nontrivial kernel.
PIVOT_RTOL = 1e-14


def _pivot_rule(factorize, operand, shape, entries: np.ndarray, diagonal):
    """Lower factor by factorize(operand) under the package's positivity rule.

    shape and entries (stored values) are the matrix's: a non-square shape
    or a non-finite entry is a ValueError.  diagonal(factor) is diag(L).  A
    LAPACK breakdown, or a pivot diag(L)_j**2 at or below PIVOT_RTOL times
    the largest entry magnitude, is a NotPositiveDefiniteError.
    """
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    scale = float(np.abs(entries).max(initial=0.0))
    if not np.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
    try:
        factor = factorize(operand, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"nonpositive pivot: {exc}") from exc
    pivots = diagonal(factor) ** 2
    tol = PIVOT_RTOL * scale
    if not pivots.min(initial=np.inf) > tol:
        j = int(np.argmin(pivots))
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:.3e} at row {j} is below {tol:.3e}, which is "
            f"PIVOT_RTOL = {PIVOT_RTOL:.0e} times the largest entry {scale:.3e}"
        )
    return factor


def cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L, mat = L @ L.T, under _pivot_rule; mat is not modified.

    No caller in the package uses it.  It stays as the tests' reference for
    the band certificate, and the benchmark wraps it to count dense factors.
    """
    a = np.asarray(mat, dtype=float)
    return _pivot_rule(scipy.linalg.cholesky, a, a.shape, a, np.diag)


def certify_positive_definite(mat) -> np.ndarray:
    """Lower band factor of the symmetric sparse mat under cholesky's pivot rule.

    Only the band of its lower triangle is factored, in natural order, by
    scipy.linalg.cholesky_banded: half-bandwidth b costs (b + 1) m floats,
    no more than cholesky at b = m - 1.  The pivots are cholesky's to
    rounding, and so are the verdict, the exception and the reported row.
    The factor is in LAPACK lower band storage: L[j + k, j] = factor[k, j].
    """
    low = scipy.sparse.tril(mat, format="coo")
    band = np.zeros((int((low.row - low.col).max(initial=0)) + 1, low.shape[1]))
    np.add.at(band, (low.row - low.col, low.col), low.data)
    return _pivot_rule(scipy.linalg.cholesky_banded, band, low.shape, low.data, lambda c: c[0])


class LuFactorization:
    """Cached sparse LU factorization for repeated solves against one matrix.

    mat may be a dense array or a scipy.sparse matrix; it is factored by
    SuperLU in CSC form.  Non-finite entries are a ValueError.  A matrix
    SuperLU finds exactly singular, or whose smallest |diag(U)| falls at or
    below PIVOT_RTOL times the largest entry magnitude, is a
    SingularMatrixError.
    """

    def __init__(self, mat):
        from scipy.sparse.linalg import splu

        shape = np.shape(mat)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"expected a square matrix, got shape {shape}")
        self.shape = shape
        self._lu = None
        if shape[0] == 0:
            return
        a = scipy.sparse.csc_matrix(mat, dtype=float)
        if not np.all(np.isfinite(a.data)):
            raise ValueError("matrix contains non-finite entries")
        scale = float(np.abs(a.data).max(initial=0.0))
        if scale == 0.0:
            raise SingularMatrixError("LU of a zero matrix: the matrix is singular")
        try:
            self._lu = splu(a)
        except RuntimeError as exc:
            raise SingularMatrixError(f"LU breakdown signals a singular matrix: {exc}") from exc
        pivot = float(np.abs(self._lu.U.diagonal()).min())
        if pivot <= PIVOT_RTOL * scale:
            raise SingularMatrixError(f"LU pivot {pivot:.3e} signals a singular matrix")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise ValueError(f"rhs length {rhs.shape[0]} != matrix order {self.shape[0]}")
        if self._lu is None:
            return np.zeros_like(rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise ValueError("right-hand side contains non-finite entries")
        if np.iscomplexobj(rhs):
            return self._lu.solve(rhs.real) + 1j * self._lu.solve(rhs.imag)
        return self._lu.solve(rhs)


def eig_nonsymmetric(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a real square matrix: (values, vectors).

    values are sorted by (real, imag) and vectors[:, i] is a unit 2-norm
    eigenvector for values[i].  Backed by the LAPACK nonsymmetric solver
    (Hessenberg reduction plus shifted QR).  It computes no residual: its
    consumers certify the pairs against their own problem (generalized_eig
    against the pencil).
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return np.zeros(0, complex), np.zeros((0, 0), complex)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
    vectors /= np.linalg.norm(vectors, axis=0)
    order = np.lexsort((values.imag, values.real))
    # take keeps C order, where vectors[:, order] would give F order.
    return values[order], np.take(vectors, order, axis=1)


def _blocks(factors) -> list[tuple[slice, np.ndarray]]:
    """Index range of each diagonal block, paired with its band factor."""
    out, start = [], 0
    for low in factors:
        out.append((slice(start, start + low.shape[1]), low))
        start += low.shape[1]
    return out


def _band_solve(low: np.ndarray, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """L^{-1} rhs (trans "N") or L^{-T} rhs (trans "T") for a lower band factor.

    An F-ordered rhs is overwritten; any other is copied.
    """
    x, info = scipy.linalg.lapack.dtbtrs(low, rhs, uplo="L", trans=trans, overwrite_b=1)
    if info != 0:
        raise SingularMatrixError(f"banded triangular solve failed: LAPACK info {info}")
    return x


def generalized_to_standard(op, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Dense B = L^{-1} op L^{-T} for L = blockdiag(factors), one block at a time.

    factors are the band factors L_i (from certify_positive_definite) of the
    diagonal blocks of a block-diagonal Gram matrix, in order; a full Gram
    matrix is one block.  op is densified from CSR one block row at a time.
    The pencil eigenproblem op z = lambda gram z becomes B w = lambda w with
    z = L^{-T} w.  Congruence, so the spectrum is preserved exactly.  L is
    never formed: B_ij = L_i^{-1} op_ij L_j^{-T}.  A B that is not finite,
    from a non-finite op or an overflow, is an EigenSolverError.
    """
    a = scipy.sparse.csr_matrix(op)
    blocks = _blocks(factors)
    order = sum(low.shape[1] for low in factors)
    if a.shape != (order, order):
        raise ValueError(f"operator shape {a.shape} does not match Gram order {order}")
    b = np.empty((order, order))
    for rows, low in blocks:
        b[rows] = _band_solve(low, a[rows].toarray(order="F"))
    for cols, low in blocks:
        # b[:, cols].T is F-ordered when cols spans b, and is solved in place.
        b[:, cols] = _band_solve(low, b[:, cols].T).T
    if not np.isfinite(b).all():
        raise EigenSolverError(
            "the eigenproblem reduced to standard form is not finite: "
            "an operator entry is too large for float64"
        )
    return b


def generalized_eig(
    gram, op, factors: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of op z = lambda gram z for SPD gram: (values, vectors, residuals).

    values are sorted by (real, imag); vectors[:, i] solves the pencil
    problem for values[i] and has unit gram-norm (z* gram z = 1);
    residuals[i] is ||op z - lambda gram z|| / (||gram z|| * (1 + |lambda|)).
    gram and op are applied as CSR.  factors are the band factors of gram's
    diagonal blocks (see generalized_to_standard); the back-transform runs
    block by block, in place.  A residual norm that overflows is inf or nan,
    with no warning.
    """
    values, vectors = eig_nonsymmetric(generalized_to_standard(op, factors))
    if values.size == 0:
        return values, vectors, np.zeros(0)
    for rows, low in _blocks(factors):
        # The real view solves the real and imaginary parts side by side.
        real = vectors[rows].view(float)
        real[...] = _band_solve(low, real, trans="T")
    # w had unit 2-norm, so z = L^{-T} w already has unit gram-norm.
    gram_z = scipy.sparse.csr_matrix(gram) @ vectors
    resid = scipy.sparse.csr_matrix(op) @ vectors
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.linalg.norm(gram_z, axis=0) * (1.0 + np.abs(values))
        gram_z *= values
        resid -= gram_z
        return values, vectors, np.linalg.norm(resid, axis=0) / denom
