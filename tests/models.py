"""Model builders shared across the test files."""

from __future__ import annotations

import numpy as np

import wavetriple as wt


def dirichlet_pencil(n: int, kinetic: str = "consistent") -> wt.OperatorPencil:
    """Unit-coefficient interval fixed at both ends."""
    mesh = wt.interval_mesh(n)
    return wt.assemble_pencil(mesh, wt.sample_coefficients(mesh), kinetic=kinetic)


def damped_pencil(n: int, k2: float = 3.0, kinetic: str = "consistent") -> wt.OperatorPencil:
    """Interval fixed at the left, damper of strength k2 at the right."""
    mesh = wt.interval_mesh(n, right=wt.BoundaryLabel.DAMPED)
    coeffs = wt.sample_coefficients(mesh, boundary_damping=k2)
    return wt.assemble_pencil(mesh, coeffs, kinetic=kinetic)


def free_end_pencil(n: int) -> wt.OperatorPencil:
    """Interval fixed at the left, stress-free at the right."""
    mesh = wt.interval_mesh(n, right=wt.BoundaryLabel.FREE)
    return wt.assemble_pencil(mesh, wt.sample_coefficients(mesh))


def elastic_pencil(n: int, k1: float = 2.0) -> wt.OperatorPencil:
    """Interval fixed at the left, boundary spring at the right."""
    mesh = wt.interval_mesh(n, right=wt.BoundaryLabel.ELASTIC)
    return wt.assemble_pencil(mesh, wt.sample_coefficients(mesh, boundary_stiffness=k1))


def uniform_sides(label: wt.BoundaryLabel) -> dict[str, tuple[wt.Segment, ...]]:
    """Every side of the unit square carries one label."""
    return {side: (wt.Segment(label),) for side in wt.mesh.SIDES}


def square_partition() -> dict[str, tuple[wt.Segment, ...]]:
    """Fixed left side; springs and dampers in every flavor elsewhere."""
    return {
        "left": (wt.Segment(wt.BoundaryLabel.FIXED),),
        "right": (wt.Segment(wt.BoundaryLabel.ELASTIC_DAMPED),),
        "bottom": (wt.Segment(wt.BoundaryLabel.ELASTIC),),
        "top": (wt.Segment(wt.BoundaryLabel.DAMPED),),
    }


def square_pencil(nx: int, ny: int, seed: int = 0) -> wt.OperatorPencil:
    """Unit square with random nonnegative spring and damper fields."""
    mesh = wt.rectangle_mesh(nx, ny, square_partition())
    rng = np.random.default_rng(seed)
    coeffs = wt.sample_coefficients(
        mesh,
        boundary_stiffness=rng.uniform(0.0, 2.0, mesh.num_facets),
        boundary_damping=rng.uniform(0.0, 2.0, mesh.num_facets),
    )
    return wt.assemble_pencil(mesh, coeffs)


def variable_pencil(n: int, kinetic: str = "consistent") -> wt.OperatorPencil:
    """Interval with smoothly varying modulus and density, damped right end."""
    mesh = wt.interval_mesh(n, right=wt.BoundaryLabel.DAMPED)
    coeffs = wt.sample_coefficients(
        mesh,
        modulus=lambda p: 1.0 + 0.5 * p[:, 0],
        density=lambda p: 1.0 + 0.25 * p[:, 0] * p[:, 0],
        boundary_damping=1.5,
    )
    return wt.assemble_pencil(mesh, coeffs, kinetic=kinetic)


def ci_pencils() -> list[wt.OperatorPencil]:
    """The fixed model roster exercised by cross-cutting property tests."""
    return [
        dirichlet_pencil(24),
        damped_pencil(24, 3.0),
        damped_pencil(24, 1.0 / 3.0),
        free_end_pencil(24),
        elastic_pencil(24),
        variable_pencil(24),
        square_pencil(5, 4, seed=3),
    ]


def cell_average_pencils() -> list[wt.OperatorPencil]:
    """The damped 1-D models of ci_pencils, with the cell-average kinetic mass."""
    return [
        damped_pencil(24, 3.0, kinetic="cell_average"),
        damped_pencil(24, 1.0 / 3.0, kinetic="cell_average"),
        variable_pencil(24, kinetic="cell_average"),
    ]


def random_element(pencil: wt.OperatorPencil, rng: np.random.Generator) -> wt.DomainElement:
    return wt.DomainElement(
        rng.standard_normal(pencil.num_active),
        rng.standard_normal(pencil.num_active),
        rng.standard_normal(pencil.num_trace),
    )


def random_state(pencil: wt.OperatorPencil, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(pencil.state_dim)
