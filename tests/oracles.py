"""Hand-derived reference values for the test suite.

Everything here comes from closed forms or elementary algorithms coded
independently of the package: the characteristic equation of the
boundary-damped string, Sturm-Liouville frequencies, quadratic and cubic
characteristic polynomials for small matrix pencils, and an
elimination-based determinant.  Nothing in this module imports the
package under test, except the energy-balance check balance_defect, which
reads a pencil's assembled matrices and dissipation forms and shares no
code with the pass it checks.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from wavetriple.assembly import dissipation_forms


def damped_string_decay(k2: float) -> float:
    """Common real part of the damped-string modes.

    A unit string fixed at the left end with a pure damper of strength k2
    at the right end has outgoing waves reflected with coefficient
    r = (k2-1)/(k2+1); the mode condition exp(2*lam) = r puts every mode
    on the vertical line Re lam = ln|r| / 2.
    """
    ratio = (k2 - 1.0) / (k2 + 1.0)
    if ratio == 0.0:
        raise ValueError("k2 = 1 is perfectly absorbing; no point spectrum")
    return 0.5 * math.log(abs(ratio))


def damped_string_modes(k2: float, count: int) -> list[complex]:
    """First modes with positive imaginary part, ordered by frequency.

    exp(2*lam) = r > 0 gives Im lam = k*pi; r < 0 gives (k - 1/2)*pi.
    """
    ratio = (k2 - 1.0) / (k2 + 1.0)
    sigma = damped_string_decay(k2)
    if ratio > 0.0:
        return [complex(sigma, k * math.pi) for k in range(1, count + 1)]
    return [complex(sigma, (k - 0.5) * math.pi) for k in range(1, count + 1)]


def round_trip_ratio(k2: float, z: float) -> float:
    """E(t + 2 tau) / E(t) on a string of constant impedance z with a damper k2.

    Fixed at the left and damped at the right, every characteristic meets
    the damper once per round trip 2 tau and leaves with its amplitude
    times r = (z - k2)/(z + k2) (d'Alembert), so the energy ratio is r^2
    for every t and every finite-energy datum; k2 = z is transparent.
    """
    return ((z - k2) / (z + k2)) ** 2


def dirichlet_frequencies(count: int) -> list[float]:
    """k*pi: frequencies of the unit string fixed at both ends."""
    return [k * math.pi for k in range(1, count + 1)]


def mixed_frequencies(count: int) -> list[float]:
    """(k - 1/2)*pi: fixed left end, free right end."""
    return [(k - 0.5) * math.pi for k in range(1, count + 1)]


def discrete_dirichlet_frequency(n: int, k: int) -> float:
    """Exact frequency of the n-cell piecewise-linear Dirichlet string.

    Both the stiffness and the consistent mass matrix are Toeplitz on a
    uniform mesh and share the eigenvectors sin(k*pi*j/n), so the k-th
    squared frequency is (6/h^2)(1 - cos(k*pi*h)) / (2 + cos(k*pi*h)).
    """
    h = 1.0 / n
    c = math.cos(k * math.pi * h)
    return math.sqrt((6.0 / h**2) * (1.0 - c) / (2.0 + c))


def discrete_dirichlet_frequency_cell_average(n: int, k: int) -> float:
    """Exact frequency of the n-cell Dirichlet string with cell-average mass.

    The stiffness (1/h) tridiag(-1, 2, -1) and the kinetic mass
    (h/4) tridiag(1, 2, 1) share the eigenvectors sin(k*pi*j/n), with
    eigenvalues (4/h) sin^2(k*pi*h/2) and h cos^2(k*pi*h/2); their ratio
    gives the frequency (2/h) tan(k*pi*h/2).
    """
    h = 1.0 / n
    return (2.0 / h) * math.tan(k * math.pi * h / 2.0)


def discrete_poincare_constant(n: int, free_right: bool) -> float:
    """1/sqrt(lambda_1) for the n-cell P1 string fixed at its left end.

    Stiffness and consistent mass share the eigenvectors sin(j*theta), so
    lambda_1 = (6/h^2)(1 - cos theta) / (2 + cos theta), with theta = pi/n
    for a fixed right end.  A free right end halves the last row of both
    matrices, which the even reflection about node n reproduces when
    theta = pi/(2n).
    """
    h = 1.0 / n
    c = math.cos(math.pi / (2 * n if free_right else n))
    return 1.0 / math.sqrt((6.0 / h**2) * (1.0 - c) / (2.0 + c))


FULL_DIRICHLET_POINCARE = 1.0 / math.pi
MIXED_POINCARE = 2.0 / math.pi


def quadratic_roots(a: float, b: float, c: float) -> list[complex]:
    """Both roots of a*x^2 + b*x + c, cancellation-safe via Vieta."""
    if a == 0.0:
        raise ValueError("not a quadratic")
    disc = cmath.sqrt(complex(b * b - 4.0 * a * c))
    if abs(-b + disc) < abs(-b - disc):
        disc = -disc
    big = (-b + disc) / (2.0 * a)
    if big == 0.0:
        return [0.0 + 0.0j, 0.0 + 0.0j]
    return [big, c / (a * big)]


def cubic_roots(a: float, b: float, c: float, d: float) -> list[complex]:
    """All roots of a*x^3 + b*x^2 + c*x + d by Cardano's substitution."""
    if a == 0.0:
        raise ValueError("not a cubic")
    b, c, d = b / a, c / a, d / a
    shift = -b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    s = cmath.sqrt(complex((q / 2.0) ** 2 + (p / 3.0) ** 3))
    w3 = -q / 2.0 + s
    if abs(w3) < abs(-q / 2.0 - s):
        w3 = -q / 2.0 - s
    if w3 == 0.0:
        return [complex(shift)] * 3
    w = w3 ** (1.0 / 3.0)
    turn = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        wk = w * turn**k
        roots.append(wk - p / (3.0 * wk) + shift)
    return roots


def _poly_mul(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_axpy(p: list[float], q: list[float], sign: float) -> list[float]:
    n = max(len(p), len(q))
    p = p + [0.0] * (n - len(p))
    q = q + [0.0] * (n - len(q))
    return [pi + sign * qi for pi, qi in zip(p, q)]


def pencil_eigenvalues(gram, dyn) -> list[complex]:
    """Roots of det(dyn - lam*gram) for orders 1 to 3, by hand expansion.

    Entries of the determinant are linear in lam; products are expanded
    with explicit polynomial convolution and the resulting quadratic or
    cubic is solved in closed form.
    """
    n = len(gram)
    lin = [
        [[float(dyn[i][j]), -float(gram[i][j])] for j in range(n)]
        for i in range(n)
    ]
    if n == 1:
        return [complex(-lin[0][0][0] / lin[0][0][1])]
    if n == 2:
        poly = _poly_axpy(
            _poly_mul(lin[0][0], lin[1][1]),
            _poly_mul(lin[0][1], lin[1][0]),
            -1.0,
        )
        return quadratic_roots(poly[2], poly[1], poly[0])
    if n == 3:
        minor0 = _poly_axpy(
            _poly_mul(lin[1][1], lin[2][2]), _poly_mul(lin[1][2], lin[2][1]), -1.0
        )
        minor1 = _poly_axpy(
            _poly_mul(lin[1][0], lin[2][2]), _poly_mul(lin[1][2], lin[2][0]), -1.0
        )
        minor2 = _poly_axpy(
            _poly_mul(lin[1][0], lin[2][1]), _poly_mul(lin[1][1], lin[2][0]), -1.0
        )
        poly = _poly_axpy(_poly_mul(lin[0][0], minor0), _poly_mul(lin[0][1], minor1), -1.0)
        poly = _poly_axpy(poly, _poly_mul(lin[0][2], minor2), 1.0)
        return cubic_roots(poly[3], poly[2], poly[1], poly[0])
    raise ValueError("pencil oracle handles orders 1 to 3 only")


def elimination_determinant(matrix) -> float:
    """Determinant by Gaussian elimination with partial pivoting."""
    a = [[float(entry) for entry in row] for row in matrix]
    n = len(a)
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            return 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for row in range(col + 1, n):
            factor = a[row][col] / a[col][col]
            for k in range(col, n):
                a[row][k] -= factor * a[col][k]
    return det


def match_roots(got, want) -> float:
    """Largest pairing distance between two root multisets.

    Greedy nearest-neighbor matching; robust against the ordering flips
    that plague lexicographic sorts of conjugate pairs whose real parts
    agree only to rounding.
    """
    pool = [complex(z) for z in got]
    if len(pool) != len(want):
        raise ValueError("root sets differ in size")
    worst = 0.0
    for w in want:
        k = min(range(len(pool)), key=lambda i: abs(pool[i] - w))
        worst = max(worst, abs(pool[k] - w))
        pool.pop(k)
    return worst


def weighted_mean(samples, weights, volumes) -> float:
    """(sum vol*f/T) / (sum vol/T): the divergence-free constant in 1D."""
    num = sum(v * f / t for v, f, t in zip(volumes, samples, weights))
    den = sum(v / t for v, t in zip(volumes, weights))
    return num / den


def balance_defect(pencil, values, vectors, forms=None):
    """Eigenpair energy-balance defect, with the products M v, (D + Mb) v, Ma u.

    -Re(lambda) * ||z||^2 must equal v^H (D + Mb) v + Re(v^H Ma u).  Ma and
    D + Mb come from dissipation_forms, assembled from the coefficients,
    not read back from the dynamics (forms, when given, is its result); the
    Gram norms use the CSR forms.  vectors may be a block of columns.
    """
    m = pencil.num_active
    vec_u, vec_v = vectors[:m], vectors[m:]
    reaction, damper = dissipation_forms(pencil) if forms is None else forms
    mass_v, damp_v, react_u = pencil.mass_csr @ vec_v, damper @ vec_v, reaction @ vec_u
    gram_norms = np.einsum(
        "im,im->m", np.conj(vec_u), pencil.displacement_gram_csr @ vec_u
    ) + np.einsum("im,im->m", np.conj(vec_v), mass_v)
    dissipation = np.einsum("im,im->m", np.conj(vec_v), damp_v + react_u)
    return np.abs(-values.real * gram_norms.real - dissipation.real), (mass_v, damp_v, react_u)
