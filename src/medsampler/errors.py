"""Exception hierarchy shared across the package."""


class MedError(Exception):
    """Base class for all package errors."""


class ConfigError(MedError):
    """Invalid run configuration or invalid arguments to an operation."""


class SurrogateFitError(MedError):
    """Correlation-matrix factorization failed even after jitter escalation."""


class CandidatePoolError(MedError):
    """A local candidate pool came up empty, also on its retry in an inflated region."""


class DensityProtocolError(MedError):
    """An external density evaluator misbehaved (timeout, death, bad reply)."""


class FileFormatError(MedError):
    """A design/ledger/report file could not be parsed."""
