"""Exception types raised by the qmcmc package."""


class QmcmcError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(QmcmcError):
    """A matrix required to be Hermitian failed the Hermiticity check."""


class DimensionMismatch(QmcmcError):
    """Array shapes are inconsistent with the requested operation."""


class ConvergenceFailure(QmcmcError):
    """An eigensolver returned an eigenpair that fails its residual check."""


class InvalidSize(QmcmcError):
    """A size parameter is out of range for the model being built."""


class InvalidGraph(QmcmcError):
    """A graph instance violates its structural invariants."""


class NonDiagonalHamiltonian(QmcmcError):
    """A computational-basis distribution was requested for a Hamiltonian
    containing X or Y letters."""


class IndexOutOfRange(QmcmcError):
    """A period or qubit index is outside its valid range."""


class InvalidTolerance(QmcmcError):
    """A tolerance parameter must be positive."""


class CompletenessViolation(QmcmcError):
    """Kraus operators do not sum to the identity."""

    def __init__(self, message, deviation=None):
        super().__init__(message)
        self.deviation = deviation


class NoUnitEigenvalue(QmcmcError):
    """The dominant eigenvalue of a cycle map is not 1 within tolerance."""


class NegativeEigenvalue(QmcmcError):
    """Clipping negative eigenvalues of a steady state removed too much mass."""


class NotAState(QmcmcError):
    """Input is not a valid density matrix; the message names the failed check."""


class NotADistribution(QmcmcError):
    """Input vector does not sum to one within tolerance."""


class NormalizationLoss(QmcmcError):
    """A trajectory state vector drifted away from unit norm."""


class EmptyResult(QmcmcError):
    """Result emission was requested for an empty row list."""


class UnknownKey(QmcmcError):
    """A configuration file contains a key that maps to no known flag."""


class UsageError(QmcmcError):
    """Invalid command-line or config-file usage (exit code 2)."""
