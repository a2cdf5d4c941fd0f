"""Linear-algebra kernels: Cholesky, LU solves, nonsymmetric eigenproblems.

certify_positive_definite applies Cholesky's pivot rule to a sparse
symmetric matrix by factoring only its band, and returns the band factor.
LU solves take dense or scipy.sparse input and always factor with SuperLU:
every matrix solved against is a finite element matrix with a handful of
entries per row.  Both apply a package-wide relative pivot threshold on
top of the library's own checks.  A pencil with a block-diagonal Gram
matrix is reduced by banded triangular solves with the factors of its
diagonal blocks; the eigensolve of the reduced matrix is dense by nature.
It frees the reduced matrix once it has its own copy, and keeps LAPACK's
real eigenvector matrix as it is: a conjugate pair's vectors stay two
real columns, normalized and back-transformed in place.  Every pass over
the complex eigenvectors expands one column block of them, so at its peak
a pencil eigensolve holds only what dgeev itself needs, its overwritten
input and its real eigenvector matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import EigenSolverError, NotPositiveDefiniteError, SingularMatrixError

# Relative pivot threshold below which a matrix is treated as not positive
# definite (resp. singular), scaled by the max-magnitude entry of the input:
# the package-wide detector for energy forms with a nontrivial kernel.
PIVOT_RTOL = 1e-14
# sqrt(tiny) / eps: LAPACK dgeev scales a matrix whose largest entry lies
# outside [EIG_SAFE_MIN, 1 / EIG_SAFE_MIN] (see eig_nonsymmetric).
EIG_SAFE_MIN = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
# Width of the column blocks that every pass over eigenvectors works in.
COLUMN_BLOCK = 64


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
    The band is read straight from mat as canonical CSR (sorted indices,
    no duplicates; other input is converted, duplicates summed by scipy).
    The factor is in LAPACK lower band storage: L[j + k, j] = factor[k, j].
    """
    csr = scipy.sparse.csr_matrix(mat)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    low = csr.indices <= rows
    cols, entries = csr.indices[low], csr.data[low]
    offsets = rows[low] - cols
    band = np.zeros((int(offsets.max(initial=0)) + 1, csr.shape[1]))
    band[offsets, cols] = entries
    return _pivot_rule(scipy.linalg.cholesky_banded, band, csr.shape, entries, lambda c: c[0])


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


def column_blocks(n: int) -> list[slice]:
    """Slices of about COLUMN_BLOCK columns that cover range(n) in order.

    numpy reduces each column of a block (a norm, an einsum) in the order it
    uses on the whole array, so block results equal full-width ones bit for
    bit; a block one column wide would be summed pairwise, so a remainder of
    one column joins the block before it.
    """
    starts = list(range(0, n, COLUMN_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


@dataclass(frozen=True)
class PackedEigenvectors:
    """Eigenvectors kept in LAPACK dgeev's real layout, expanded on demand.

    packed is a real (n, n) Fortran-ordered matrix.  A real eigenvalue's
    vector is one of its columns; a conjugate pair's two vectors re +- i*im
    share two adjacent columns, re then im.  For the i-th sorted eigenvalue,
    column[i] is its first packed column and sign[i] is 0 when the value is
    real, +1 or -1 for the member re + i*im or re - i*im of a pair.
    """

    packed: np.ndarray
    column: np.ndarray
    sign: np.ndarray

    def expand(self, cols=slice(None)) -> np.ndarray:
        """C-ordered complex vectors of the sorted eigenvalues cols, one column each.

        Only copies and exact sign flips: a block's columns equal those of
        the whole expansion bit for bit.
        """
        first, sign = self.column[cols], self.sign[cols]
        block = np.empty((self.packed.shape[0], first.size), complex)
        block.real = self.packed[:, first]
        pair = sign != 0
        block.imag[:, ~pair] = 0.0
        block.imag[:, pair] = self.packed[:, first[pair] + 1] * sign[pair]
        return block


def eig_nonsymmetric(mat: np.ndarray) -> tuple[np.ndarray, PackedEigenvectors]:
    """Full spectrum of a real square matrix: (values, vectors).

    values are sorted by (real, imag) and vectors.expand(cols) holds unit
    2-norm eigenvectors for values[cols].  LAPACK dgeev (Hessenberg
    reduction plus shifted QR, optimal workspace) overwrites one
    Fortran-ordered copy of mat and returns its real vector matrix, which
    is kept.  Each vector is normalized once, in place, as numpy's eig
    normalizes the complex vector re + i*im: divided, as a complex array, by
    its norm, in column blocks of the sorted order.  A non-finite entry or a
    LAPACK failure is an EigenSolverError.  It computes no residual: its
    consumers certify the pairs against their own problem (generalized_eig
    against the pencil).

    dgeev scales a matrix whose largest entry lies outside [EIG_SAFE_MIN,
    1 / EIG_SAFE_MIN], and the OpenBLAS bundled with some scipy releases
    does not scale the eigenvalues back ([[1e139, 1], [0, 2]] gives
    1.4886e138 and 0.2977).  So only such a copy is scaled here, by an exact
    power of two, and its eigenvalues scaled back; any other is passed as is.
    """
    a = np.array(mat, dtype=float, order="F")
    # A caller that passes a temporary (generalized_eig does) frees it here.
    del mat
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return np.zeros(0, complex), PackedEigenvectors(a, np.zeros(0, int), np.zeros(0))
    largest = float(np.maximum(a.max(), -a.min()))
    if not np.isfinite(largest):
        raise EigenSolverError("eigenvalue iteration failed: matrix contains non-finite entries")
    exponent = 0
    if largest > 0.0 and not EIG_SAFE_MIN <= largest <= 1.0 / EIG_SAFE_MIN:
        exponent = int(np.frexp(largest)[1])
        np.ldexp(a, -exponent, out=a)
    lwork, _ = scipy.linalg.lapack.dgeev_lwork(n, compute_vl=0)
    wr, wi, _, vr, info = scipy.linalg.lapack.dgeev(
        a, compute_vl=0, lwork=int(lwork), overwrite_a=1
    )
    del a
    if info != 0:
        raise EigenSolverError(f"eigenvalue iteration failed: LAPACK dgeev info {info}")
    values = np.ldexp(wr, exponent).astype(complex)
    values.imag = np.ldexp(wi, exponent)
    order = np.lexsort((values.imag, values.real))
    # A conjugate pair j, j + 1 (wi[j] > 0) is stored as re, im in columns j, j + 1.
    first = np.arange(n) - (wi < 0)
    vectors = PackedEigenvectors(vr, first[order], np.sign(wi[order]))
    # The member re + i*im normalizes its pair's two columns; its conjugate
    # would divide them by the same norm.
    owners = np.flatnonzero(vectors.sign >= 0)
    for cols in column_blocks(owners.size):
        own = owners[cols]
        block = vectors.expand(own)
        block /= np.linalg.norm(block, axis=0)
        col, pair = vectors.column[own], vectors.sign[own] > 0
        vr[:, col] = block.real
        vr[:, col[pair] + 1] = block.imag[:, pair]
    return values[order], vectors


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
) -> tuple[np.ndarray, PackedEigenvectors, np.ndarray]:
    """Eigenpairs of op z = lambda gram z for SPD gram: (values, vectors, residuals).

    values are sorted by (real, imag); vectors.expand(cols) solves the
    pencil problem for values[cols], each column with unit gram-norm
    (z* gram z = 1); residuals[i] is ||op z - lambda gram z|| /
    (||gram z|| * (1 + |lambda|)).  gram and op are applied as CSR.
    factors are the band factors of gram's diagonal blocks (see
    generalized_to_standard); the back-transform solves the packed real
    columns in place, one row block at a time, and the residuals are
    computed on one expanded column block at a time.  A residual norm that overflows is inf
    or nan, with no warning.
    """
    values, vectors = eig_nonsymmetric(generalized_to_standard(op, factors))
    if values.size == 0:
        return values, vectors, np.zeros(0)
    # z = L^{-T} w is real-linear, so it maps re and im of w to those of z,
    # and each column is solved on its own.  A row block of the packed
    # matrix is solved in a copy, half its size, after dgeev's input is freed.
    packed = vectors.packed
    for rows, low in _blocks(factors):
        packed[rows] = _band_solve(low, packed[rows], trans="T")
    # w had unit 2-norm, so z = L^{-T} w already has unit gram-norm.
    gram, op = scipy.sparse.csr_matrix(gram), scipy.sparse.csr_matrix(op)
    residuals = np.empty(values.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in column_blocks(values.size):
            z = vectors.expand(cols)
            gram_z, resid = gram @ z, op @ z
            denom = np.linalg.norm(gram_z, axis=0) * (1.0 + np.abs(values[cols]))
            gram_z *= values[cols]
            resid -= gram_z
            residuals[cols] = np.linalg.norm(resid, axis=0) / denom
    return values, vectors, residuals
