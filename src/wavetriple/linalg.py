"""Linear-algebra kernels: Cholesky, LU solves, nonsymmetric eigenproblems.

Cholesky and the eigensolvers work on dense numpy arrays; they serve the
full spectrum, which is dense by nature.  LU solves take dense or
scipy.sparse input and always factor with SuperLU, since every matrix
solved against is a finite element matrix with a handful of entries per
row.  Both factorizations apply a package-wide relative pivot threshold on
top of the library's own checks.  A block-diagonal Gram matrix is reduced
block by block from the factors of its diagonal blocks, so its full factor
is never formed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import EigenSolverError, NotPositiveDefiniteError, SingularMatrixError

# Relative pivot threshold below which a matrix is treated as not positive
# definite (resp. singular).  Scaled by the max-magnitude entry of the input.
PIVOT_RTOL = 1e-14


def cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor L with mat = L @ L.T.

    Raises NotPositiveDefiniteError if LAPACK breaks down or any pivot
    diag(L)_j**2 falls at or below PIVOT_RTOL times the largest entry
    magnitude.  That threshold is the package-wide detector for energy
    forms with a nontrivial kernel.  The input is never modified.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    scale = float(np.abs(a).max())
    if not np.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
    tol = PIVOT_RTOL * scale
    try:
        low = scipy.linalg.cholesky(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"nonpositive pivot: {exc}") from exc
    pivots = np.diag(low) ** 2
    j = int(np.argmin(pivots))
    if not pivots[j] > tol:
        raise NotPositiveDefiniteError(
            f"pivot {pivots[j]:.3e} at row {j} is below {tol:.3e}, which is "
            f"PIVOT_RTOL = {PIVOT_RTOL:.0e} times the largest entry {scale:.3e}"
        )
    return low


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
    norms = np.linalg.norm(vectors, axis=0)
    vectors = vectors / norms
    order = np.lexsort((values.imag, values.real))
    return values[order], vectors[:, order]


def _blocks(factors) -> list[tuple[slice, np.ndarray]]:
    """Index range of each diagonal block, paired with its factor."""
    out, start = [], 0
    for low in factors:
        out.append((slice(start, start + low.shape[0]), low))
        start += low.shape[0]
    return out


def generalized_to_standard(op: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """B = L^{-1} op L^{-T} for L = blockdiag(factors), one block at a time.

    factors are the lower Cholesky factors L_i of the diagonal blocks of a
    block-diagonal Gram matrix, in order; a full Gram matrix is one block.
    The pencil eigenproblem op z = lambda gram z becomes B w = lambda w with
    z = L^{-T} w.  Congruence, so the spectrum is preserved exactly.  L is
    never formed: B_ij = L_i^{-1} op_ij L_j^{-T}.  A B that is not finite,
    from a non-finite op or an overflow, is an EigenSolverError.
    """
    a = np.asarray(op, dtype=float)
    blocks = _blocks(factors)
    order = sum(low.shape[0] for low in factors)
    if a.shape != (order, order):
        raise ValueError(f"operator shape {a.shape} does not match Gram order {order}")
    b = np.empty((order, order))
    for rows, low in blocks:
        b[rows] = scipy.linalg.solve_triangular(low, a[rows], lower=True, check_finite=False)
    for cols, low in blocks:
        b[:, cols] = scipy.linalg.solve_triangular(
            low, b[:, cols].T, lower=True, check_finite=False
        ).T
    if not np.isfinite(b).all():
        raise EigenSolverError(
            "the eigenproblem reduced to standard form is not finite: "
            "an operator entry is too large for float64"
        )
    return b


def generalized_eig(
    gram: np.ndarray, op: np.ndarray, factors: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of op z = lambda gram z for SPD gram: (values, vectors, residuals).

    values are sorted by (real, imag); vectors[:, i] solves the pencil
    problem for values[i] and has unit gram-norm (z* gram z = 1);
    residuals[i] is ||op z - lambda gram z|| / (||gram z|| * (1 + |lambda|)).
    factors are the Cholesky factors of gram's diagonal blocks (see
    generalized_to_standard); the back-transform also runs block by block.
    """
    values, std_vectors = eig_nonsymmetric(generalized_to_standard(op, factors))
    if values.size == 0:
        return values, std_vectors, np.zeros(0)
    vectors = np.empty_like(std_vectors)
    for rows, lo in _blocks(factors):
        vectors[rows] = scipy.linalg.solve_triangular(
            lo, std_vectors[rows], lower=True, trans="T"
        )
    # w had unit 2-norm, so z = L^{-T} w already has unit gram-norm.
    gram_z = np.asarray(gram, dtype=float) @ vectors
    raw = np.linalg.norm(np.asarray(op, dtype=float) @ vectors - gram_z * values, axis=0)
    denom = np.linalg.norm(gram_z, axis=0) * (1.0 + np.abs(values))
    return values, vectors, raw / denom
