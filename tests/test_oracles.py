"""Sanity checks for the hand-coded oracles themselves."""

import cmath
import math

import oracles


def test_quadratic_roots_known_factorization():
    roots = sorted(oracles.quadratic_roots(1.0, -5.0, 6.0), key=lambda z: z.real)
    assert abs(roots[0] - 2.0) < 1e-14
    assert abs(roots[1] - 3.0) < 1e-14


def test_quadratic_roots_complex_pair():
    roots = oracles.quadratic_roots(1.0, 0.0, 1.0)
    assert sorted(round(z.imag, 12) for z in roots) == [-1.0, 1.0]


def test_cubic_roots_distinct_real():
    roots = sorted(
        oracles.cubic_roots(1.0, -6.0, 11.0, -6.0), key=lambda z: z.real
    )
    for got, want in zip(roots, (1.0, 2.0, 3.0)):
        assert abs(got - want) < 1e-12


def test_cubic_roots_triple():
    roots = oracles.cubic_roots(1.0, -3.0, 3.0, -1.0)
    for z in roots:
        assert abs(z - 1.0) < 1e-5


def test_cubic_roots_complex_pair():
    # (x - 1)(x^2 + 1)
    roots = oracles.cubic_roots(1.0, -1.0, 1.0, -1.0)
    values = sorted(roots, key=lambda z: (round(z.real, 9), z.imag))
    assert abs(values[0] - (-1j)) < 1e-12 or abs(values[0] - 1j) < 1e-12
    assert any(abs(z - 1.0) < 1e-12 for z in roots)


def test_residual_of_every_cubic_root():
    coeffs = (2.0, -1.5, 0.25, 3.0)
    for z in oracles.cubic_roots(*coeffs):
        val = ((coeffs[0] * z + coeffs[1]) * z + coeffs[2]) * z + coeffs[3]
        assert abs(val) < 1e-10


def test_pencil_oracle_identity_gram():
    values = oracles.pencil_eigenvalues([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]])
    assert sorted(round(z.imag, 12) for z in values) == [-1.0, 1.0]


def test_pencil_oracle_order_three():
    gram = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    dyn = [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]]
    values = sorted(z.real for z in oracles.pencil_eigenvalues(gram, dyn))
    for got, want in zip(values, (1.0, 3.0, 5.0)):
        assert abs(got - want) < 1e-12


def test_elimination_determinant_hand_cases():
    assert abs(oracles.elimination_determinant([[3.0]]) - 3.0) < 1e-15
    assert abs(oracles.elimination_determinant([[1.0, 2.0], [3.0, 4.0]]) + 2.0) < 1e-14
    singular = [[1.0, 2.0], [2.0, 4.0]]
    assert oracles.elimination_determinant(singular) == 0.0
    boxed = [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]
    assert abs(oracles.elimination_determinant(boxed) - 3.0) < 1e-13


def test_damped_string_decay_both_branches():
    assert abs(oracles.damped_string_decay(3.0) + math.log(2.0) / 2.0) < 1e-15
    assert abs(oracles.damped_string_decay(1.0 / 3.0) + math.log(2.0) / 2.0) < 1e-15


def test_round_trip_ratio_limits():
    assert oracles.round_trip_ratio(3.0, 1.0) == 0.25
    assert oracles.round_trip_ratio(2.0, 2.0) == 0.0
    assert oracles.round_trip_ratio(0.0, 1.0) == 1.0
    # The damped-string modes decay at ln|r| / 2 per unit time: r^2 per 2.
    for k2 in (3.0, 0.2):
        decay = oracles.damped_string_decay(k2)
        assert abs(math.exp(4.0 * decay) - oracles.round_trip_ratio(k2, 1.0)) < 1e-15


def test_damped_string_modes_satisfy_characteristic_equation():
    for k2 in (3.0, 1.0 / 3.0, 5.0, 0.2):
        ratio = (k2 - 1.0) / (k2 + 1.0)
        for lam in oracles.damped_string_modes(k2, 4):
            assert abs(cmath.exp(2.0 * lam) - ratio) < 1e-12


def test_discrete_frequency_approaches_continuum():
    coarse = oracles.discrete_dirichlet_frequency(16, 1)
    fine = oracles.discrete_dirichlet_frequency(256, 1)
    assert abs(fine - math.pi) < abs(coarse - math.pi)
    assert abs(fine - math.pi) / math.pi < 1e-4


def test_cell_average_frequency_approaches_continuum():
    coarse = oracles.discrete_dirichlet_frequency_cell_average(16, 1)
    fine = oracles.discrete_dirichlet_frequency_cell_average(256, 1)
    assert fine > math.pi
    assert abs(fine - math.pi) < abs(coarse - math.pi)
    assert abs(fine - math.pi) / math.pi < 1e-4


def test_weighted_mean_constant_weight():
    mids = [(j + 0.5) / 8.0 for j in range(8)]
    vols = [1.0 / 8.0] * 8
    assert abs(oracles.weighted_mean(mids, [2.0] * 8, vols) - 0.5) < 1e-15
