"""Exception hierarchy shared by all epkit modules."""


class EpkitError(Exception):
    """Base class for all errors raised by epkit."""


class ShapeError(EpkitError, ValueError):
    """Matrix or vector dimensions do not match the operation."""


class ParseError(EpkitError, ValueError):
    """Malformed JSON input (wrong schema, length mismatch, non-finite numbers)."""


class ParameterError(EpkitError, ValueError):
    """Invalid argument value (non-finite entries, out-of-range parameters)."""


class DegeneracyError(EpkitError):
    """Numerical null space is not one-dimensional at the given tolerance."""


class NumericalError(EpkitError):
    """A numerical consistency check failed (cross-route disagreement)."""


class ConvergenceError(NumericalError):
    """Iterative eigenvalue/singular value computation did not converge."""


class PreconditionError(EpkitError):
    """Operation requires a certified full-order exceptional point."""


class PoleError(EpkitError):
    """Green's function evaluated at its pole."""


class StructureError(EpkitError):
    """Jordan chain construction is inconsistent (not a single Jordan block)."""


class IncompatibleSubsystemsError(EpkitError):
    """Subsystem eigenvalues differ; composition requires a shared eigenvalue."""


class DegenerateCouplingError(EpkitError):
    """Coupling is nongeneric: the composite order drops below the sum of orders."""

    def __init__(self, message: str, achieved_order: int | None = None):
        super().__init__(message)
        self.achieved_order = achieved_order


class FitError(EpkitError):
    """Not enough data points inside the fit window."""
