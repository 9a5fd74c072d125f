"""Exception types shared across the package."""


class VertexCalcError(Exception):
    """Base class for all package errors."""


class SummabilityError(VertexCalcError):
    """A coefficient would be an infinite sum; the operation is refused."""


class WindowUnderflowError(VertexCalcError):
    """A coefficient was requested outside the region where it is known exactly."""


class UnsupportedRewriteError(VertexCalcError):
    """A symbolic rewrite was asked to do something it cannot justify."""


class SubstitutionRefusedError(VertexCalcError):
    """The delta-substitution precondition could not be certified syntactically."""


class ProverFailureError(VertexCalcError):
    """An identity prover ended with a nonzero residual (implementation bug)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConstructionError(VertexCalcError):
    """Input data for a structure/module constructor failed a verified law."""


class ConsistencyViolationError(VertexCalcError):
    """Premises of an encoded theorem passed but its conclusion failed."""


class ConfigError(VertexCalcError):
    """A config file failed to parse or referenced missing data."""
