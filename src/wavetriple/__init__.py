"""Boundary-damped wave models: assembly, semigroup stepping, spectra.

The package discretizes the first-order wave system with piecewise-linear
elements, keeps its boundary structure (two trace maps and an exact Green
identity) at the matrix level, evolves it with the norm-exact midpoint
scheme, and reports spectra with recomputed residuals.
"""

from .assembly import (
    DomainElement,
    OperatorPencil,
    apply_A,
    assemble_pencil,
    duality_pairing,
    element_inner,
    green_identity_residual,
    physical_energy,
    state_inner,
    state_norm,
    surjectivity_witness,
    trace_B1,
    trace_B2,
)
from .coefficients import CoefficientSet, sample_coefficients, validate_model
from .config import ModelConfig, compile_expression, parse_config
from .errors import (
    CoefficientError,
    ConfigError,
    ContractionBreachError,
    DegenerateEnergyNormError,
    EigenSolverError,
    FieldError,
    InitialDataError,
    KineticMassError,
    MeshValidationError,
    NotPositiveDefiniteError,
    ProblemSizeError,
    SingularMatrixError,
    WavetripleError,
)
from .helmholtz import (
    CellGeometry,
    decompose,
    orthogonality_residual,
    project_gradient,
    weighted_inner,
)
from .mesh import (
    BoundaryLabel,
    Mesh,
    Segment,
    interval_mesh,
    rectangle_mesh,
    validate_mesh,
)
from .semigroup import (
    CayleyStepper,
    Trajectory,
    decay_profile,
    energy_csv,
    initial_state,
    simulate,
)
from .spectral import (
    SpectralReport,
    compute_spectrum,
    eigenvalues_csv,
    imaginary_axis_gap,
    poincare_constant,
    refinement_study,
    study_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryLabel",
    "CayleyStepper",
    "CellGeometry",
    "CoefficientError",
    "CoefficientSet",
    "ConfigError",
    "ContractionBreachError",
    "DegenerateEnergyNormError",
    "DomainElement",
    "EigenSolverError",
    "FieldError",
    "InitialDataError",
    "KineticMassError",
    "Mesh",
    "MeshValidationError",
    "ModelConfig",
    "NotPositiveDefiniteError",
    "OperatorPencil",
    "ProblemSizeError",
    "Segment",
    "SingularMatrixError",
    "SpectralReport",
    "Trajectory",
    "WavetripleError",
    "apply_A",
    "assemble_pencil",
    "compile_expression",
    "compute_spectrum",
    "decay_profile",
    "decompose",
    "duality_pairing",
    "element_inner",
    "eigenvalues_csv",
    "energy_csv",
    "green_identity_residual",
    "imaginary_axis_gap",
    "initial_state",
    "interval_mesh",
    "orthogonality_residual",
    "parse_config",
    "physical_energy",
    "poincare_constant",
    "project_gradient",
    "rectangle_mesh",
    "refinement_study",
    "sample_coefficients",
    "simulate",
    "state_inner",
    "state_norm",
    "study_csv",
    "surjectivity_witness",
    "trace_B1",
    "trace_B2",
    "validate_mesh",
    "validate_model",
    "weighted_inner",
]
