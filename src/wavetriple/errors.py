"""Exception types shared across the package."""


class WavetripleError(Exception):
    """Base class for all errors raised by this package."""


class MeshValidationError(WavetripleError):
    """Mesh is structurally inconsistent (indices, orientation, labels)."""


class CoefficientError(WavetripleError):
    """Coefficient field violates a bound or sign constraint."""


class DegenerateEnergyNormError(WavetripleError):
    """No clamped boundary and no boundary spring: the energy form has a kernel."""


class KineticMassError(WavetripleError):
    """Kinetic mass scheme does not apply to the mesh or its boundary."""


class NotPositiveDefiniteError(WavetripleError):
    """Matrix handed to a Cholesky factorization is not positive definite."""


class SingularMatrixError(WavetripleError):
    """Matrix handed to an LU solve is singular to working precision."""


class EigenSolverError(WavetripleError):
    """Eigenvalue iteration failed to converge."""


class InitialDataError(WavetripleError, ValueError):
    """Initial displacement or velocity is non-finite or violates a constraint."""


class FieldError(WavetripleError, ValueError):
    """Cellwise vector field has the wrong shape or non-finite values."""


class ProblemSizeError(WavetripleError):
    """Problem is above one of the package's size caps.

    The caps are the sparse pencil's state dimension (MAX_PENCIL_STATE),
    the dense spectrum's (MAX_DENSE_STATE) and the number of values a
    trajectory records (MAX_TRAJECTORY_VALUES).
    """


class ContractionBreachError(WavetripleError):
    """A time step gained or lost more state norm than its dissipation allows."""


class ConfigError(WavetripleError):
    """Model configuration text is malformed; carries line-numbered diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))
