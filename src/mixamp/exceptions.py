"""Exception types shared across the package, and the argument rules.

Every module imports this one, so each argument rule is written once,
here, next to the error it raises, and a library call is checked by the
same code as a CLI flag or manifest value: check_count (an integer >= a
minimum; DimensionError for a size, DomainError otherwise), check_real (a
finite real, > 0 or >= 0), check_fraction (a real in (0, 1] or [0, 1]),
check_choice, check_grid (a square 2D array) and check_block_side (a
block side that tiles the grid).

A size that a routine does not take is an UnsupportedSizeError, whatever the routine.
"""

import numbers

import numpy as np

_INF = float("inf")


class MixAmpError(Exception):
    """Base class for all package errors."""


class DimensionError(MixAmpError, ValueError):
    """Shapes or sizes of the inputs are inconsistent or out of range."""


class DomainError(MixAmpError, ValueError):
    """A scalar parameter lies outside its admissible domain."""


class UnsupportedSizeError(MixAmpError, ValueError):
    """A routine was asked for a size it does not take: the dense Kronecker
    oracle above side 16, the fast DCT at a side that is not a power of
    two, or a CLI run whose working set does not fit in available memory."""


class ImageFormatError(MixAmpError, ValueError):
    """A PGM file is malformed or not a square 8-bit image."""


class DegenerateProblemError(MixAmpError, ValueError):
    """The measurement setup carries no usable information, rejected when
    it is built: a mask with no samples, an all-zero sensing matrix, or a
    matrix and mask whose composed map is zero (see
    linops.MeasurementOperator, where both solvers meet that check)."""


class SolverDivergenceError(MixAmpError, RuntimeError):
    """A solver gave up. Raised at two places: solver.mixamp_run, when
    theta blows up at the damping floor (a step's theta was non-finite
    or above the bound on it), and baseline.baseline_solve, when the
    objective kept rising: the 11th candidate in a row was rejected, the
    10th plain step after a momentum restart.

    Carries the iteration where the solver gave up, the step that blew
    up or was rejected once too often, and the partial iteration trace of
    the run. The trace ends at the iteration before it, so
    len(trace) == iteration - 1 for both solvers.
    """

    def __init__(self, message, iteration, trace):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace


def check_count(name, value, minimum, error=DomainError):
    """Raise error unless value is an integer >= minimum; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")


def check_real(name, value, strict):
    """Raise DomainError unless value is a finite real number, > 0 if strict
    and >= 0 otherwise; a bool is not one.

    A float (numpy's float64 included) skips the type test, so the check
    costs two comparisons on the solvers' per-iteration path.
    """
    real = isinstance(value, float) or (isinstance(value, numbers.Real)
                                        and not isinstance(value, bool))
    if not (real and (0.0 < value < _INF if strict else 0.0 <= value < _INF)):
        raise DomainError(f"{name} must be a finite real number {'>' if strict else '>='} 0, "
                          f"got {value!r}")


def check_fraction(name, value, strict):
    """check_real, and at most 1: a real number in (0, 1] if strict, else in [0, 1]."""
    check_real(name, value, strict)
    if value > 1.0:
        raise DomainError(f"{name} must lie in {'(' if strict else '['}0, 1], got {value!r}")


def check_choice(name, value, choices):
    """Raise DomainError unless value is one of choices."""
    if value not in choices:
        raise DomainError(f"{name} must be one of {', '.join(choices)}, got {value!r}")


def check_grid(z, side=None, name="grid", dtype=float):
    """z as an array of dtype; DimensionError unless it is square and 2D
    with side >= 2, and of the given side if one is named."""
    z = np.asarray(z, dtype=dtype)
    if z.ndim != 2 or z.shape[0] != z.shape[1] or z.shape[0] < 2:
        raise DimensionError(f"{name} must be a square 2D array with side >= 2, got shape {z.shape}")
    if side is not None and z.shape[0] != side:
        raise DimensionError(f"{name} side {z.shape[0]} does not match expected side {side}")
    return z


def check_block_side(side, block_side):
    """Raise DimensionError unless block_side is an integer >= 1 that
    tiles a grid of the given side."""
    check_count("block_side", block_side, 1, DimensionError)
    if side % block_side != 0:
        raise DimensionError(f"grid side {side} is not divisible by block side {block_side}")
