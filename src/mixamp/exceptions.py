"""Exception types shared across the package."""


class MixAmpError(Exception):
    """Base class for all package errors."""


class DimensionError(MixAmpError, ValueError):
    """Shapes or sizes of the inputs are inconsistent or out of range."""


class DomainError(MixAmpError, ValueError):
    """A scalar parameter lies outside its admissible domain."""


class OracleScaleError(MixAmpError, ValueError):
    """The dense Kronecker oracle was asked for a problem too large to build."""


class UnsupportedSizeError(MixAmpError, ValueError):
    """The fast-transform path only supports power-of-two grid sides."""


class ImageFormatError(MixAmpError, ValueError):
    """A PGM file is malformed or not a square 8-bit image."""


class DegenerateProblemError(MixAmpError, ValueError):
    """The measurement setup carries no usable information (e.g. empty mask)."""


class SolverDivergenceError(MixAmpError, RuntimeError):
    """Non-finite values appeared mid-iteration, or theta blew up at the
    damping floor of a mixamp run.

    Carries the iteration index where divergence was detected and, when the
    failing run recorded one, the partial iteration trace.
    """

    def __init__(self, message, iteration, trace=None):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace


class SolverError(MixAmpError, RuntimeError):
    """The solver could not make progress (persistent objective increase)."""
