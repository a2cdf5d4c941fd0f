"""Model builders shared across the test files."""

from __future__ import annotations

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from scipy.sparse import coo_matrix

import wavetriple as wt
from wavetriple.assembly import _boundary_local, _mass_local, _stiffness_local, modulus_tensors
from wavetriple.coefficients import energy_anchored
from wavetriple.mesh import cell_volumes


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


def interior_pencil(mesh: wt.Mesh, **fields) -> wt.OperatorPencil:
    """Pencil with random boundary data and the given interior fields."""
    rng = np.random.default_rng(41)
    coeffs = wt.sample_coefficients(
        mesh,
        boundary_stiffness=rng.uniform(0.0, 2.0, mesh.num_facets),
        boundary_damping=rng.uniform(0.0, 2.0, mesh.num_facets),
        **fields,
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


def draw_random_pencil(data):
    """A random anchored 1-D or 2-D pencil, with the rng that drew its fields.

    Partitions, cut sides and every coefficient field are random; reaction
    and negative interior damping are included.
    """
    labels = st.sampled_from(list(wt.BoundaryLabel))
    if data.draw(st.booleans(), label="one-dimensional"):
        n = data.draw(st.integers(1, 24), label="n")
        mesh = wt.interval_mesh(n, left=data.draw(labels), right=data.draw(labels))
    else:
        nx, ny = data.draw(st.integers(1, 8), label="nx"), data.draw(st.integers(1, 8))
        sides = {}
        for side in wt.mesh.SIDES:
            # Left and right run along y, bottom and top along x; a cut
            # sits on a grid line, and 0 means the side is one segment.
            cells = ny if side in ("left", "right") else nx
            cut = data.draw(st.integers(0, cells - 1), label=f"{side} cut") / cells
            if cut:
                sides[side] = (
                    wt.Segment(data.draw(labels), 0.0, cut),
                    wt.Segment(data.draw(labels), cut, 1.0),
                )
            else:
                sides[side] = (wt.Segment(data.draw(labels)),)
        mesh = wt.rectangle_mesh(nx, ny, sides)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cells, facets = mesh.num_cells, mesh.num_facets
    coeffs = wt.sample_coefficients(
        mesh,
        modulus=rng.lognormal(0.0, 1.5, cells),
        density=rng.lognormal(0.0, 1.5, cells),
        reaction=rng.normal(0.0, 3.0, cells),
        damping=rng.uniform(-3.0, 3.0, cells),
        boundary_stiffness=rng.lognormal(0.0, 2.0, facets),
        boundary_damping=rng.lognormal(0.0, 3.0, facets),
    )
    assume(energy_anchored(mesh, coeffs))
    return wt.assemble_pencil(mesh, coeffs), rng


# Reference assembly: COO triplets of the package's element matrices.  The
# package assembles the same triplets with one sorted pattern (_Pattern);
# these builders are the independent route the tests compare it against.


def _scatter(rows: np.ndarray, cols: np.ndarray, local: np.ndarray, shape) -> coo_matrix:
    """COO triplets placing local[c] at rows[c] x cols[c], for every c.

    Duplicates stay separate triplets until conversion: toarray() sums them
    in input order, exactly as np.add.at would, and tocsr()/tocsc() give
    the sparse operators.
    """
    r, c, vals = np.broadcast_arrays(rows[:, :, None], cols[:, None, :], local)
    return coo_matrix((vals.ravel(), (r.ravel(), c.ravel())), shape=shape)


def mass_triplets(mesh: wt.Mesh, weight: np.ndarray, kinetic: str = "consistent") -> coo_matrix:
    """Mass matrix with a cellwise-constant weight, as COO triplets.

    kinetic "consistent" gives the P1 mass; "cell_average" gives the mass
    of cell averages (1-D only).  Any other scheme is a ValueError.
    """
    n = mesh.num_nodes
    local = _mass_local(mesh, cell_volumes(mesh), weight, kinetic)
    return _scatter(mesh.cells, mesh.cells, local, (n, n))


def stiffness_triplets(mesh: wt.Mesh, modulus: np.ndarray) -> coo_matrix:
    """Stiffness for a cellwise-constant scalar or tensor modulus, as COO.

    Convert with .toarray() for the dense matrix, .tocsr() or .tocsc() for
    sparse use.
    """
    n = mesh.num_nodes
    local = _stiffness_local(mesh, cell_volumes(mesh), modulus_tensors(mesh, modulus))
    return _scatter(mesh.cells, mesh.cells, local, (n, n))


def boundary_triplets(mesh: wt.Mesh, values: np.ndarray) -> coo_matrix:
    """Boundary mass for per-facet coefficients, as COO triplets.

    Point masses at endpoint facets in 1-D, consistent edge masses in 2-D.
    """
    n = mesh.num_nodes
    facets = mesh.boundary_facets
    return _scatter(facets, facets, _boundary_local(mesh, values), (n, n))
