"""Linear-algebra kernels: Cholesky, LU solves, nonsymmetric and secular eigenproblems.

certify_positive_definite applies Cholesky's pivot rule to a sparse
symmetric matrix by factoring only its band, and returns the band factor.
LU solves take dense or scipy.sparse input and always factor with SuperLU:
every matrix solved against is a finite element matrix with a handful of
entries per row, and a symmetric positive definite one is factored in
SuperLU's symmetric mode.  Both apply a package-wide relative pivot
threshold on top of the library's own checks.  A pencil with a
block-diagonal Gram matrix is reduced by banded triangular solves with
the factors of its diagonal blocks; the eigensolve of the reduced matrix
is dense by nature, and at its peak holds only what dgeev itself needs,
its overwritten input and its packed real eigenvector matrix, kept as
dgeev returned it (PackedEigenvectors).
A pencil whose one dissipation is a rank-one damper has a second solver,
secular_eig: the roots of a secular equation in the undamped modes, found
by Aberth-Ehrlich iteration and certified by Smith's inclusion discs and
the generator's trace.  Its eigenvectors are in closed form, from the
m x m modes, so that route holds no 2m x 2m matrix (SecularEigenvectors).
Both routes sort their values and name their owners by sorted_owners,
build vectors one block of owners at a time by owner_block, and share one
expand.  Neither solver computes residuals: pencil_residuals works on the
products gram z and op z that compute_spectrum's pass forms per block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
# A secular root within this share of its modulus of the real axis is
# taken as real (secular_eig); a complex pair taken for two real roots
# fails the inclusion-disc certificate.
REAL_ROOT_RTOL = 1e-8
# Share of |trace| + sum |lambda| by which the secular roots' sum may miss
# the trace of the reduced generator, beyond the roots' inclusion radii.
TRACE_RTOL = 1e-12
# Largest eigenvalue modulus the secular route takes on, so that no square
# of a root overflows.  A pencil u^H (lambda^2 M + lambda D + S) u = 0 with
# u^H M u = 1 has |lambda| <= u^H D u + sqrt(u^H S u), and by Cauchy-Schwarz
# u^H D u <= k2 (M^{-1})_NN, minus the trace of the reduced generator.
SECULAR_MAX_MODULUS = 1e150
# Sweeps after which secular_roots freezes every root.
SECULAR_MAX_SWEEPS = 200
_EPS = np.finfo(float).eps
# pi (3 - sqrt(5)): no two multiples of it point the same way.
_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


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


def _positive_definite_factor(splu, a, tol: float):
    """SuperLU's symmetric-mode factor of the symmetric CSC a, or None.

    None unless the pivots stayed on the diagonal (perm_r == perm_c) and
    every pivot diag(U) exceeds tol, which only holds for a symmetric
    positive definite a; an exactly singular a is None too.
    """
    try:
        lu = splu(
            a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
    except RuntimeError:
        return None
    if np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() > tol:
        return lu
    return None


class LuFactorization:
    """Cached sparse LU factorization for repeated solves against one matrix.

    mat may be a dense array or a scipy.sparse matrix; it is factored by
    SuperLU in CSC form.  A bitwise-symmetric input is first factored in
    SuperLU's symmetric mode: minimum-degree ordering on A + A^T and
    diagonal pivots (diag_pivot_thresh = 0).  That factor is kept only if
    its row and column permutations agree and every pivot diag(U) is
    positive and above PIVOT_RTOL times the largest entry magnitude, which
    only a symmetric positive definite matrix passes; its fill is about
    half the default ordering's on a P1 stiffness.  Any other matrix
    (unsymmetric, indefinite, a zero or tiny diagonal pivot) is factored
    on SuperLU's default path (COLAMD, threshold pivoting) under the rules
    below, so the same matrices are accepted and rejected either way.
    Non-finite entries are a ValueError.  A matrix SuperLU finds exactly
    singular, or whose smallest |diag(U)| falls at or below PIVOT_RTOL
    times the largest entry magnitude, is a SingularMatrixError.
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
        if (a != a.T).nnz == 0:
            self._lu = _positive_definite_factor(splu, a, PIVOT_RTOL * scale)
            if self._lu is not None:
                return
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


def column_blocks(n: int, width: int = COLUMN_BLOCK) -> list[slice]:
    """Slices of about width columns that cover range(n) in order.

    numpy reduces each column of a block (a norm, an einsum) in the order it
    uses on the whole array, so block results equal full-width ones bit for
    bit; a block one column wide would be summed pairwise, so a remainder of
    one column joins the block before it.
    """
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def owner_blocks(sign: np.ndarray) -> list[np.ndarray]:
    """Sorted indices of the owners, in blocks of COLUMN_BLOCK // 2.

    sign is an eigenvector source's: the owners are the real eigenvalues
    (sign 0) and the members re + i*im of conjugate pairs (sign +1), in
    sorted order.  With its mirrored conjugates a block covers about
    COLUMN_BLOCK eigenpairs.
    """
    owners = np.flatnonzero(sign >= 0)
    return [owners[cols] for cols in column_blocks(owners.size, COLUMN_BLOCK // 2)]


class _OwnerVectors:
    """The one expand of both eigenvector sources, from their owner_block(own).

    sign[i] is 0 for a real sorted value and +1 or -1 for the member re +
    i*im or re - i*im of a conjugate pair, and owner[i] is the sorted index
    of the pair's member re + i*im (i itself when sign[i] >= 0).
    """

    def expand(self, cols=slice(None)) -> np.ndarray:
        """C-ordered complex vectors of the sorted eigenvalues cols, one column each.

        Every owner block that cols touch is built whole, as compute_spectrum
        builds it, so each column equals the certified one bit for bit; a
        member re - i*im is its owner's vector conjugated, an exact sign flip.
        """
        owner, lower = self.owner[cols], self.sign[cols] < 0
        blocks = owner_blocks(self.sign)
        # Block b holds the owners from blocks[b][0] up to the next block's first.
        which = np.searchsorted([own[0] for own in blocks], owner, side="right") - 1
        block = np.empty((self.sign.size, owner.size), complex)
        for b in np.unique(which):
            own, hit = blocks[b], which == b
            block[:, hit] = self.owner_block(own)[:, np.searchsorted(own, owner[hit])]
        block.imag[:, lower] *= -1.0
        return block


@dataclass(frozen=True)
class PackedEigenvectors(_OwnerVectors):
    """Eigenvectors kept in LAPACK dgeev's real layout, built on demand.

    packed is dgeev's real (n, n) Fortran-ordered vector matrix, as dgeev
    returned it.  A real eigenvalue's vector is one of its columns; a
    conjugate pair's two vectors re +- i*im share two adjacent columns, re
    then im.  For the i-th sorted eigenvalue, column[i] is its first packed
    column; sign and owner are as _OwnerVectors has them.  factors are the
    band factors of the Gram blocks to back-transform with (see
    generalized_eig), none for a standard eigenproblem.
    """

    packed: np.ndarray
    column: np.ndarray
    sign: np.ndarray
    owner: np.ndarray
    factors: tuple[np.ndarray, ...] = ()

    def owner_block(self, own: np.ndarray) -> np.ndarray:
        """Unit gram-norm vectors of the owners values[own], one column each.

        The owners' packed columns are copied into a complex block and
        divided, as a complex array, by their norms, as numpy's eig
        normalizes re + i*im.  Then z = L^{-T} w is solved for each Gram
        block's factor L: the map is real-linear, so it is solved on the
        real parts and on the pairs' imaginary parts, each column on its own.
        """
        first, pair = self.column[own], self.sign[own] > 0
        block = np.empty((self.packed.shape[0], own.size), complex)
        block.real = self.packed[:, first]
        block.imag[:, ~pair] = 0.0
        block.imag[:, pair] = self.packed[:, first[pair] + 1]
        block /= np.linalg.norm(block, axis=0)
        for rows, low in _blocks(self.factors):
            block.real[rows] = _band_solve(low, block.real[rows], trans="T")
            block.imag[rows, pair] = _band_solve(low, block.imag[rows, pair], trans="T")
        return block


def eig_nonsymmetric(mat: np.ndarray) -> tuple[np.ndarray, PackedEigenvectors]:
    """Full spectrum of a real square matrix: (values, vectors).

    values are sorted by (real, imag) and vectors.expand(cols) holds unit
    2-norm eigenvectors for values[cols].  LAPACK dgeev (Hessenberg
    reduction plus shifted QR, optimal workspace) overwrites one
    Fortran-ordered copy of mat and returns its real vector matrix, which
    is kept as it is: PackedEigenvectors normalizes each block of owners
    when it is built.  A non-finite entry or a LAPACK failure is an
    EigenSolverError.  It computes no residual: its consumers certify the
    pairs against their own problem (compute_spectrum against the pencil).

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
        none = np.zeros(0, int)
        return np.zeros(0, complex), PackedEigenvectors(a, none, np.zeros(0), none)
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
    # A conjugate pair j, j + 1 (wi[j] > 0) is stored as re, im in columns j,
    # j + 1, and owned by its member j.
    first = np.arange(n) - (wi < 0)
    order, owner = sorted_owners(values, first)
    return values[order], PackedEigenvectors(vr, first[order], np.sign(wi[order]), owner)


def sorted_owners(values: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, owner): values' (real, imag) sort and each sorted value's owner.

    member[i] is the index of value i's owner, the member re + i*im of its
    conjugate pair (i itself for a real value); owner holds sorted indices.
    """
    order = np.lexsort((values.imag, values.real))
    return order, np.argsort(order)[member[order]]


def _blocks(factors) -> list[tuple[slice, np.ndarray]]:
    """Index range of each diagonal block, paired with its band factor."""
    out, start = [], 0
    for low in factors:
        out.append((slice(start, start + low.shape[1]), low))
        start += low.shape[1]
    return out


def _band_solve(low: np.ndarray, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """L^{-1} rhs (trans "N") or L^{-T} rhs (trans "T") for a lower band factor.

    An F-ordered rhs is overwritten; any other is copied.  An empty rhs is
    returned as it is: dtbtrs corrupts the heap on n rows and no column.
    """
    if rhs.size == 0:
        return rhs
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


def generalized_eig(op, factors: tuple[np.ndarray, ...]) -> tuple[np.ndarray, PackedEigenvectors]:
    """Eigenpairs of op z = lambda gram z for SPD gram: (values, vectors).

    values are sorted by (real, imag); vectors.expand(cols) solves the
    pencil problem for values[cols], each column with unit gram-norm
    (z* gram z = 1).  gram enters only as factors, the band factors of its
    diagonal blocks (see generalized_to_standard); the vectors keep them
    and back-transform each block of owners when it is built.  It computes
    no residual: compute_spectrum certifies the pairs.
    """
    values, vectors = eig_nonsymmetric(generalized_to_standard(op, factors))
    # w has unit 2-norm, so z = L^{-T} w has unit gram-norm.
    return values, replace(vectors, factors=factors)


def pencil_residuals(gram_z: np.ndarray, op_z: np.ndarray, values: np.ndarray) -> np.ndarray:
    """||op z - lambda gram z|| / (||gram z|| * (1 + |lambda|)) for each column z.

    gram_z and op_z are gram @ z and op @ z for one block of eigenvectors
    z, values their eigenvalues; neither is modified.  Per column the
    arithmetic is that of the full-width expansion, so the residuals equal
    its bit for bit.  A residual norm that overflows is inf or nan, with no
    warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.linalg.norm(gram_z, axis=0) * (1.0 + np.abs(values))
        resid = gram_z * values
        np.subtract(op_z, resid, out=resid)
        return np.linalg.norm(resid, axis=0) / denom


def _pole_terms(lam: np.ndarray, omega: np.ndarray, weights: np.ndarray):
    """The secular function at a block of points, with each point's nearest pole folded.

    For lam = x + iy, d_j = lam^2 + w_j^2 is formed as x^2 - (y - w_j)(y +
    w_j) + 2ixy, which keeps its relative accuracy next to either pole.
    The nearest pole k minimizes |d_k|: w_k^2 is the one closest to y^2 -
    x^2.  Its term leaves the sum s = sum_{j != k} c_j / d_j, so F = 1 +
    lam s is finite there, and r = d_k F + c_k lam equals p(lam) /
    prod_{j != k} d_j.  Returns (inv, k, d_k, s, spread, r, bound): inv
    holds 1 / d_j, zeroed at k, spread is sum_{j != k} |c_j / d_j|, and
    bound bounds the rounding error of r.
    """
    x, y = lam.real[:, None], lam.imag[:, None]
    d = np.empty((lam.size, omega.size), complex)
    d.real = x * x - (y - omega) * (y + omega)
    d.imag = 2.0 * x * y
    omega2, target = omega * omega, lam.imag**2 - lam.real**2
    above = np.minimum(np.searchsorted(omega2, target), omega.size - 1)
    below = np.maximum(above - 1, 0)
    near = np.where(np.abs(omega2[below] - target) <= np.abs(omega2[above] - target), below, above)
    rows = np.arange(lam.size)
    d_near, c_near = d[rows, near], weights[near]
    inv = np.reciprocal(d, out=d)
    inv[rows, near] = 0.0
    s, spread = inv @ weights, np.abs(inv) @ weights
    r = d_near * (1.0 + lam * s) + c_near * lam
    size = np.abs(d_near) * (1.0 + np.abs(lam) * spread) + c_near * np.abs(lam)
    return inv, near, d_near, s, spread, r, (omega.size + 8) * _EPS * size


def secular_roots(omega2: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The 2m roots of p(lam) = prod_k (lam^2 + w_k^2) (1 + lam sum_k c_k / (lam^2 + w_k^2)).

    omega2 holds the increasing w_k^2 > 0, weights the c_k >= 0: p is the
    characteristic polynomial of a skew-adjoint system with modes w_k under
    a rank-one damper that sees mode k with weight c_k.  Aberth-Ehrlich
    iteration: Newton's step on p for every root at once, each root
    repelled by all the others.  Each root's nearest pole is folded into
    r (see _pole_terms), so no sum is inf - inf next to a pole.

    The starts come from a local model: near w_k the poles form a lattice
    of spacing g_k (the mean of the two gaps) and weight c_k, on which the
    secular equation sums to 1 - i kappa cot(pi lam / (i g_k)) = 0 with
    kappa = pi c_k / (2 g_k).  Its roots sit at the poles (kappa < 1) or
    halfway between them (kappa > 1), at real part g_k / (2 pi) ln(|kappa -
    1| / (kappa + 1)); the log is clamped at ln(1e-3) for kappa near 1.
    Each start is then moved by 1e-3 g_k in a direction that differs from
    start to start, so that no start is the conjugate of another: p may
    have real roots, which a conjugate-symmetric iteration never reaches.

    A root is frozen once r is within the rounding bound of its evaluation
    or its step is below 4 eps |lam|, and every root is after
    SECULAR_MAX_SWEEPS sweeps.  A sweep works on blocks of COLUMN_BLOCK
    active roots against all 2m.  The roots carry no certificate:
    secular_eig certifies what it is given.
    """
    omega2, weights = np.asarray(omega2, float), np.asarray(weights, float)
    m = omega2.size
    omega = np.sqrt(omega2)
    if m == 1:
        spacing = omega.copy()
    else:
        gaps = np.diff(omega)
        spacing = np.concatenate([gaps[:1], 0.5 * (gaps[:-1] + gaps[1:]), gaps[-1:]])
    kappa = np.pi * weights / (2.0 * spacing)
    drift = spacing / (2.0 * np.pi) * np.log(np.maximum(np.abs(kappa - 1.0) / (kappa + 1.0), 1e-3))
    upper = drift + 1j * (omega + np.where(kappa > 1.0, 0.5 * spacing, 0.0))
    turns = np.exp(1j * _GOLDEN_ANGLE * np.arange(2 * m))
    roots = np.concatenate([upper, upper.conj()]) + 1e-3 * np.tile(spacing, 2) * turns
    active = np.arange(2 * m)
    for _ in range(SECULAR_MAX_SWEEPS):
        if active.size == 0:
            break
        step, done = np.empty(active.size, complex), np.empty(active.size, bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for cols in column_blocks(active.size):
                step[cols], done[cols] = _aberth_step(roots, active[cols], omega, weights)
        moved = np.isfinite(step)
        roots[active[moved]] -= step[moved]
        active = active[moved & ~done]
    return roots


def _aberth_step(roots: np.ndarray, idx: np.ndarray, omega: np.ndarray, weights: np.ndarray):
    """Aberth's correction for roots[idx], and whether each has converged."""
    lam = roots[idx]
    inv, near, d_near, s, _, r, bound = _pole_terms(lam, omega, weights)
    # p'/p = sum_{j != k} 2 lam / d_j + r'/r, with r' = 2 lam F + d_k F' + c_k
    # and F' = sum_{j != k} c_j (w_j^2 - lam^2) / d_j^2 = 2 sum c_j w_j^2 / d_j^2 - s.
    inv_sum = inv.sum(axis=1)
    inv *= inv
    slope = 2.0 * (inv @ (weights * omega * omega)) - s
    dr = 2.0 * lam * (1.0 + lam * s) + d_near * slope + weights[near]
    newton = r / (2.0 * lam * inv_sum * r + dr)
    rows = np.arange(idx.size)
    repel = lam[:, None] - roots
    repel[rows, idx] = 1.0
    repel = np.reciprocal(repel, out=repel)
    repel[rows, idx] = 0.0
    step = newton / (1.0 - newton * repel.sum(axis=1))
    done = (np.abs(r) <= bound) | (np.abs(step) <= 4.0 * _EPS * np.abs(lam))
    return step, done


def _inclusion_discs(values: np.ndarray, omega: np.ndarray, weights: np.ndarray):
    """Smith's inclusion radii about values for p's roots, and each value's nearest other.

    p is monic of degree n = values.size, so its roots lie in the union of
    the discs about z_i of radius n |p(z_i)| / prod_{j != i} |z_i - z_j|,
    and a connected union of k discs holds exactly k roots (Smith, Math.
    Comp. 24 (1970)).  |p(z_i)| is taken as |r| plus its rounding bound
    (see _pole_terms) times the other poles' |d_j|, and the products are
    summed as logs.  A repeated value has an infinite radius.
    """
    n = values.size
    radii, nearest = np.empty(n), np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for cols in column_blocks(n):
            lam = values[cols]
            rows, own = np.arange(lam.size), np.arange(n)[cols]
            inv, near, _, _, _, r, bound = _pole_terms(lam, omega, weights)
            inv[rows, near] = 1.0
            poles = np.log(inv.real**2 + inv.imag**2).sum(axis=1)
            gaps = lam[:, None] - values
            gaps = gaps.real**2 + gaps.imag**2
            gaps[rows, own] = np.inf
            nearest[cols] = np.sqrt(gaps.min(axis=1))
            gaps[rows, own] = 1.0
            # log prod_{j != k} |d_j| - log prod_{j != i} |z_i - z_j|.
            log_size = -0.5 * (poles + np.log(gaps).sum(axis=1))
            radii[cols] = n * (np.abs(r) + bound) * np.exp(log_size)
    return radii, nearest


def secular_eig(stiffness, mass_factor: np.ndarray, slot: int, weight: float):
    """Eigenpairs of a rank-one damped pencil from its secular equation, or None.

    The pencil is op z = lambda gram z with gram = blockdiag(S, M) and op =
    [[0, S], [-S, -weight e e^T]], e the unit vector of slot; the caller
    vouches for that form; stiffness is S and mass_factor the band factor of M.
    Returns (values, vectors) as generalized_eig does, vectors a
    SecularEigenvectors built from the modes on demand, or None when a
    certificate fails.  It computes no residual: compute_spectrum
    certifies the pairs against the pencil.

    The undamped modes come from the congruent standard problem L^{-1} S
    L^{-T} w = w_k^2 w, L the band factor of M (dense eigh, MRRR), as Phi =
    L^{-T} W: Phi^T M Phi = I, Phi^T S Phi = W^2.  With c_k = weight
    Phi[slot, k]^2 the eigenvalues are the 2m roots of the secular
    polynomial (secular_roots), and lambda's vector is u = Phi (lambda^2 +
    W^2)^{-1} Phi[slot], v = lambda u (SecularEigenvectors).  The roots are
    made conjugate-closed: one within REAL_ROOT_RTOL |lambda| of the real
    axis counts as real, and the upper roots and their conjugates stand for
    the rest, whose count must match.  Two certificates read only that set.
    Smith's discs about it must be pairwise disjoint (each value's nearest
    other lies beyond its radius plus the largest), so each disc holds
    exactly one root of p, and a real value's disc, symmetric about the
    axis, a real one.  And the values must sum to -weight (M^{-1})[slot,
    slot], the trace of the reduced generator from one band solve with L,
    to within the sum of the radii plus TRACE_RTOL times |trace| + sum
    |lambda|.
    """
    m = mass_factor.shape[1]
    unit = np.zeros(m)
    unit[slot] = 1.0
    with np.errstate(over="ignore"):
        trace = -weight * float(np.sum(_band_solve(mass_factor, unit) ** 2))
    # The transpose is F-ordered, so eigh overwrites it without a copy.
    reduced = generalized_to_standard(stiffness, (mass_factor,)).T
    omega2, modes = scipy.linalg.eigh(reduced, overwrite_a=True, check_finite=False, driver="evr")
    del reduced
    modes = _band_solve(mass_factor, modes, trans="T")
    if not (omega2[0] > 0.0 and abs(trace) + np.sqrt(omega2[-1]) <= SECULAR_MAX_MODULUS):
        return None
    omega, row = np.sqrt(omega2), modes[slot]
    weights = weight * row**2
    roots = secular_roots(omega2, weights)
    real = np.abs(roots.imag) <= REAL_ROOT_RTOL * np.abs(roots)
    upper = roots[~real & (roots.imag > 0.0)]
    if 2 * upper.size + np.count_nonzero(real) != 2 * m:
        return None
    values = np.concatenate([upper, upper.conj(), roots[real].real.astype(complex)])
    radii, nearest = _inclusion_discs(values, omega, weights)
    if not np.all(nearest > radii + radii.max()):
        return None
    slack = radii.sum() + TRACE_RTOL * (abs(trace) + np.abs(values).sum())
    if not abs(values.sum() - trace) <= slack:
        return None
    n, pairs = values.size, upper.size
    sign = np.concatenate([np.ones(pairs), -np.ones(pairs), np.zeros(n - 2 * pairs)])
    # The member re - i*im at pairs + j is owned by the upper root j.
    order, owner = sorted_owners(values, np.arange(n) - pairs * (sign < 0))
    values = values[order]
    return values, SecularEigenvectors(values, sign[order], owner, modes, omega, row, weight)


@dataclass(frozen=True)
class SecularEigenvectors(_OwnerVectors):
    """Closed-form eigenvectors of secular_eig's sorted values, built on demand.

    sign and owner are as _OwnerVectors has them.  modes are the undamped
    modes Phi (m x m), omega their frequencies, row = Phi[slot] and weight
    the damper.  Nothing 2m x 2m is kept: each block of owner_blocks is
    built from the modes when it is asked for.
    """

    values: np.ndarray
    sign: np.ndarray
    owner: np.ndarray
    modes: np.ndarray
    omega: np.ndarray
    row: np.ndarray
    weight: float

    def owner_block(self, own: np.ndarray) -> np.ndarray:
        """Unit gram-norm vectors of the owners values[own], one column each.

        The vector of lambda is u = Phi (lambda^2 + W^2)^{-1} Phi[slot], v =
        lambda u.  Its modal coefficients are a_j = row_j / d_j (see
        _pole_terms), but for the nearest pole k's: next to a pole the
        damper barely sees, d_k is below the root's own rounding error.
        There a_k comes from the secular equation, 1 + lambda (c_k / d_k +
        s) = 0, as -(1 / lambda + s) / (weight row_k), whenever that form's
        rounding error is the smaller.  Each vector is scaled to unit
        gram-norm in modal coordinates.  A block whose coefficients are not
        finite is NaN, so its residuals fail any bound.
        """
        lam, row, weight, m = self.values[own], self.row, self.weight, self.modes.shape[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            coef, near, d_near, s, spread, _, _ = _pole_terms(lam, self.omega, weight * row**2)
            coef *= row
            # Relative errors in units of eps: row_k / d_k's from a root
            # error of eps |lambda|, and the secular form's from rounding.
            direct = 2.0 * np.abs(lam) ** 2 / np.abs(d_near)
            folded = (1.0 / np.abs(lam) + spread) / np.abs(1.0 / lam + s)
            coef[np.arange(lam.size), near] = np.where(
                folded < direct, -(1.0 / lam + s) / (weight * row[near]), row[near] / d_near
            )
            coef /= np.abs(coef).max(axis=1, keepdims=True)
            # u^H S u + |lambda|^2 u^H M u = sum_k |a_k|^2 (w_k^2 + |lambda|^2).
            mag = np.abs(coef) ** 2
            coef /= np.sqrt(mag @ self.omega**2 + mag.sum(axis=1) * np.abs(lam) ** 2)[:, None]
        if not np.isfinite(coef).all():
            coef.fill(np.nan)
        parts = np.concatenate([coef.real, coef.imag]) @ self.modes.T
        re, im = parts[: lam.size].T, parts[lam.size :].T
        x, y = lam.real, lam.imag
        block = np.empty((2 * m, lam.size), complex)
        block.real[:m], block.imag[:m] = re, im
        block.real[m:] = x * re - y * im
        block.imag[m:] = y * re + x * im
        block.imag[:, y == 0.0] = 0.0
        return block
