"""Acceptance gate: the numbered claims the package is built to satisfy.

One test per claim, at the stated tolerance, printing a single line with
the measured numbers.  A failing claim fails its test; nothing here is
loosened to keep the gate green.
"""

import time

import numpy as np

import models
import oracles
import wavetriple as wt
from wavetriple import linalg, spectral


def verdict(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def random_interval_pencil(n, seed):
    """Interval with a spring-and-damper end, both strengths random."""
    mesh = wt.interval_mesh(n, right=wt.BoundaryLabel.ELASTIC_DAMPED)
    rng = np.random.default_rng(seed)
    coeffs = wt.sample_coefficients(
        mesh,
        boundary_stiffness=rng.uniform(0.0, 2.0, mesh.num_facets),
        boundary_damping=rng.uniform(0.0, 2.0, mesh.num_facets),
    )
    return wt.assemble_pencil(mesh, coeffs)


def random_square_pencil(nx, ny, seed):
    mesh = wt.rectangle_mesh(nx, ny, models.square_partition())
    rng = np.random.default_rng(seed)
    coeffs = wt.sample_coefficients(
        mesh,
        boundary_stiffness=rng.uniform(0.0, 2.0, mesh.num_facets),
        boundary_damping=rng.uniform(0.0, 2.0, mesh.num_facets),
    )
    return wt.assemble_pencil(mesh, coeffs)


def element_norm(pencil, elem):
    return np.sqrt(max(wt.element_inner(pencil, elem, elem), 0.0))


def positive_branch(values):
    upper = values[values.imag > 0]
    return upper[np.argsort(upper.imag)]


def test_criterion_01_green_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for pencil in (random_interval_pencil(64, 7), random_square_pencil(16, 16, 8)):
        elems = [models.random_element(pencil, rng) for _ in range(100)]
        norms = [element_norm(pencil, e) for e in elems]
        images = [wt.state_norm(pencil, wt.apply_A(pencil, e)) for e in elems]
        for i in range(100):
            j = (i + 1) % 100
            res = wt.green_identity_residual(pencil, elems[i], elems[j])
            scale = norms[i] * images[j] + norms[j] * images[i] + 1.0
            worst = max(worst, res / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    verdict(
        "criterion 01",
        ok,
        f"worst Green identity defect {worst:.3e} of 1e-12, {elapsed:.2f}s of 10s",
    )


def test_criterion_02_dissipativity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for pencil in (random_interval_pencil(64, 7), random_square_pencil(16, 16, 8)):
        solver = linalg.LuFactorization(pencil.gram)
        for _ in range(100):
            x = models.random_state(pencil, rng)
            ax = solver.solve(pencil.dynamics @ x)
            _, v = pencil.split(x)
            damper = float(v @ pencil.boundary_damper @ v)
            defect = abs(wt.state_inner(pencil, ax, x) + damper)
            scale = wt.state_norm(pencil, x) * wt.state_norm(pencil, ax) + damper + 1.0
            worst = max(worst, defect / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    verdict(
        "criterion 02",
        ok,
        f"worst dissipation defect {worst:.3e} of 1e-12, {elapsed:.2f}s of 5s",
    )


def test_criterion_03_surjectivity():
    rng = np.random.default_rng(303)
    matched = 0
    total = 0
    for pencil in (random_interval_pencil(64, 7), random_square_pencil(16, 16, 8)):
        for _ in range(100):
            flux = rng.standard_normal(pencil.num_trace)
            vel = rng.standard_normal(pencil.num_trace)
            elem = wt.surjectivity_witness(pencil, flux, vel)
            hit = np.array_equal(wt.trace_B1(pencil, elem), flux) and np.array_equal(
                wt.trace_B2(pencil, elem), vel
            )
            matched += hit
            total += 1
    ok = matched == total
    verdict("criterion 03", ok, f"{matched}/{total} boundary targets matched bitwise")


def test_criterion_04_undamped_spectrum():
    start = time.perf_counter()
    report = wt.compute_spectrum(models.dirichlet_pencil(256))
    low = positive_branch(report.values)[:5]
    rel = np.array(
        [abs(abs(lam) - want) / want for lam, want in zip(low, oracles.dirichlet_frequencies(5))]
    )
    max_re = float(np.abs(report.values.real).max())
    elapsed = time.perf_counter() - start
    ok = rel.max() <= 0.005 and max_re <= 1e-8 and elapsed < 120.0
    verdict(
        "criterion 04",
        ok,
        f"worst low-mode deviation {rel.max():.3e} of 5e-3, "
        f"max |Re| {max_re:.3e} of 1e-8, {elapsed:.2f}s of 120s",
    )


def test_criterion_05_damped_spectrum():
    report = wt.compute_spectrum(models.damped_pencil(256, 3.0))
    target = oracles.damped_string_decay(3.0)
    dev = np.abs(report.values.real - target)
    in_band = dev <= 0.02 * abs(target)
    low = positive_branch(report.values)[:5]
    imag_rel = np.array(
        [abs(lam.imag - want.imag) / want.imag for lam, want in zip(low, oracles.damped_string_modes(3.0, 5))]
    )
    ok = bool(in_band.all()) and imag_rel.max() <= 0.01
    verdict(
        "criterion 05",
        ok,
        f"real parts within 2% of {target:.4f}: {int(in_band.sum())}/{in_band.size} "
        f"(worst deviation {dev.max():.3e}), "
        f"low-mode imaginary deviation {imag_rel.max():.3e} of 1e-2",
    )


def test_criterion_06_eigenpair_balance():
    worst = 0.0
    for pencil in models.ci_pencils():
        report = wt.compute_spectrum(pencil)
        if report.state_dim == 0:
            continue
        defect = oracles.balance_defect(pencil, report.values, report.vectors.expand())[0]
        bound = spectral.balance_tolerance(report.values)
        worst = max(worst, float((defect / bound).max()))
    ok = worst <= 1.0
    verdict(
        "criterion 06",
        ok,
        f"worst balance defect at {worst:.3e} of its 1e-8-relative bound",
    )


def test_criterion_07_contraction():
    rng = np.random.default_rng(707)
    damped = [
        models.damped_pencil(32, float(rng.uniform(0.5, 4.0))),
        models.damped_pencil(24, float(rng.uniform(0.1, 1.0))),
        models.variable_pencil(24),
        models.square_pencil(4, 3, seed=5),
    ]
    worst_growth = -np.inf
    for pencil in damped:
        x0 = models.random_state(pencil, rng)
        traj = wt.simulate(pencil, x0, 0.01, 1000)
        ratios = traj.xnorm[1:] / traj.xnorm[:-1]
        worst_growth = max(worst_growth, float(ratios.max() - 1.0))
    undamped = models.dirichlet_pencil(32)
    traj = wt.simulate(undamped, models.random_state(undamped, rng), 0.01, 1000)
    drift = float(np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0])
    ok = worst_growth <= 1e-10 and drift <= 1e-10
    verdict(
        "criterion 07",
        ok,
        f"worst per-step growth {worst_growth:.3e} of 1e-10 over {len(damped)} damped "
        f"models, undamped energy drift {drift:.3e} of 1e-10, 1000 steps each",
    )


def test_criterion_08_poincare():
    full = models.dirichlet_pencil(512)
    mixed = models.free_end_pencil(512)
    c_full = wt.poincare_constant(full.mesh, full.coeffs)
    c_mixed = wt.poincare_constant(mixed.mesh, mixed.coeffs)
    dev_full = abs(c_full - oracles.FULL_DIRICHLET_POINCARE) / oracles.FULL_DIRICHLET_POINCARE
    dev_mixed = abs(c_mixed - oracles.MIXED_POINCARE) / oracles.MIXED_POINCARE
    ok = dev_full <= 0.005 and dev_mixed <= 0.01
    verdict(
        "criterion 08",
        ok,
        f"full constant {c_full:.6f} off 1/pi by {dev_full:.3e} of 5e-3, "
        f"mixed constant {c_mixed:.6f} off 2/pi by {dev_mixed:.3e} of 1e-2",
    )


def test_criterion_09_helmholtz():
    worst_const = 0.0
    worst_recon = 0.0
    worst_orth = 0.0
    for modulus in (1.0, 2.0):
        mesh = wt.interval_mesh(256)
        coeffs = wt.sample_coefficients(mesh, modulus=modulus)
        from wavetriple.mesh import cell_midpoints

        field = cell_midpoints(mesh)[:, 0]
        geometry = wt.CellGeometry(mesh, coeffs)
        grad, div = wt.decompose(geometry, field)
        norm = np.sqrt(wt.weighted_inner(geometry, field, field))
        worst_const = max(worst_const, float(np.abs(div - 0.5).max()))
        worst_recon = max(
            worst_recon, float(np.abs(grad[:, 0] + div[:, 0] - field).max())
        )
        worst_orth = max(
            worst_orth, wt.orthogonality_residual(mesh, div) / (1.0 + norm)
        )
    rng = np.random.default_rng(909)
    worst_pyth = 0.0
    tensor = np.array([[2.0, 0.5], [0.5, 1.0]])
    for seed, modulus in ((1, 1.0), (2, 1.0), (3, tensor)):
        mesh = wt.rectangle_mesh(12, 12, models.square_partition())
        coeffs = wt.sample_coefficients(mesh, modulus=modulus)
        f = rng.standard_normal((mesh.num_cells, 2))
        geometry = wt.CellGeometry(mesh, coeffs)
        grad, div = wt.decompose(geometry, f)
        total = wt.weighted_inner(geometry, f, f)
        parts = wt.weighted_inner(geometry, grad, grad) + wt.weighted_inner(geometry, div, div)
        worst_pyth = max(worst_pyth, abs(total - parts) / total)
    ok = worst_const <= 1e-10 and worst_recon <= 1e-10 and worst_orth <= 1e-10 and worst_pyth <= 1e-10
    verdict(
        "criterion 09",
        ok,
        f"divfree constant deviation {worst_const:.3e}, reconstruction {worst_recon:.3e}, "
        f"orthogonality {worst_orth:.3e}, 2-D Pythagoras {worst_pyth:.3e}, all of 1e-10",
    )


def test_criterion_10_gap_stability():
    # The consistent P1 mass loses the gap like h^2 (README, "Known
    # limitations"); the claim is carried by the cell-average kinetic mass.
    start = time.perf_counter()
    rows = wt.refinement_study(
        lambda n: models.damped_pencil(n, kinetic="cell_average"), [64, 128, 256]
    )
    gaps = np.array([row[3] for row in rows])
    spread = float(gaps.max() / gaps.min() - 1.0)
    elapsed = time.perf_counter() - start
    ok = spread <= 0.05 and elapsed < 300.0
    verdict(
        "criterion 10",
        ok,
        "gaps " + ", ".join(f"{g:.6g}" for g in gaps)
        + f" at n=64,128,256; spread {spread:.3g} of 0.05, {elapsed:.2f}s of 300s",
    )


def test_criterion_11_integrator_order():
    # A single resolved mode keeps the run in the asymptotic regime at
    # the coarse step; broadband data would not be a smooth run.
    pencil = models.dirichlet_pencil(32)
    x0 = wt.initial_state(
        pencil, lambda p: np.sin(np.pi * p[:, 0]), lambda p: np.zeros(p.shape[0])
    )
    horizon = 1.0

    def terminal(nsteps):
        traj = wt.simulate(pencil, x0, horizon / nsteps, nsteps)
        return traj.states[-1]

    ref = terminal(512)
    err_coarse = wt.state_norm(pencil, terminal(16) - ref)
    err_fine = wt.state_norm(pencil, terminal(32) - ref)
    ratio = err_coarse / err_fine
    ok = 3.5 <= ratio <= 4.5
    verdict(
        "criterion 11",
        ok,
        f"halving dt shrinks the terminal error by {ratio:.3f}, needed [3.5, 4.5]",
    )
