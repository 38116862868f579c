"""2D measurement model: sensing matrices, undersampling masks, and the
masked two-sided product Y = P_Omega{A X A^T} with its adjoint.

Grids are plain float64 numpy arrays of shape (side, side). All public
indices in documentation are 1-based; arrays are 0-based internally.
"""

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

from .exceptions import (DegenerateProblemError, DimensionError, DomainError,
                         UnsupportedSizeError, check_count, check_grid)

KRON_ORACLE_MAX_SIDE = 16


def _check_draw(side, m, seed):
    """Check the side, sample count m and seed of a random draw on a side x side grid."""
    check_count("side", side, 2, DimensionError)
    check_count("m", m, 0, DimensionError)
    if not 1 <= m <= side * side:
        raise DimensionError(f"m must satisfy 1 <= m <= side^2, got m={m}, side={side}")
    check_count("seed", seed, 0)


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """Sampled index set Omega out of the side x side grid.

    ``grid`` is the boolean indicator of Omega and the only stored fact:
    the side is its shape, m = |Omega| its count of True entries, and the
    (row, col) pairs of Omega are ``np.argwhere(grid)``. It is checked
    once, here: a square 2D array of side >= 2 (DimensionError), stored
    as bool, with at least one sample (DegenerateProblemError). It is
    treated as immutable: ``m`` and ``unsampled`` are derived from it once
    and cached.
    """

    grid: np.ndarray

    def __post_init__(self):
        grid = check_grid(self.grid, name="mask grid", dtype=bool)
        if not grid.any():
            raise DegenerateProblemError("mask holds no samples")
        object.__setattr__(self, "grid", grid)

    @property
    def side(self):
        return self.grid.shape[0]

    @cached_property
    def m(self):
        return int(np.count_nonzero(self.grid))

    @cached_property
    def unsampled(self):
        """Row-major flat indices of the grid entries outside Omega (read-only)."""
        flat = np.flatnonzero(~self.grid)
        flat.flags.writeable = False
        return flat

    def vec_indices(self):
        """Column-major vectorized indices of Omega: (k, l) -> l * side + k, sorted."""
        return np.flatnonzero(self.grid.T)


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """Square measurement matrix A, given by its entries alone.

    ``entries`` is the only stored fact: the side is its shape, and
    MeasurementOperator reads its fast DCT form off the values. The
    entries are checked once, here: a square 2D float array of side >= 2
    (DimensionError) with finite values (DomainError), not all zero
    (DegenerateProblemError).
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = check_grid(self.entries, name="sensing matrix")
        if not np.isfinite(entries).all():
            raise DomainError("sensing matrix entries must be finite")
        if not entries.any():
            raise DegenerateProblemError("sensing matrix is identically zero")
        object.__setattr__(self, "entries", entries)

    @property
    def side(self):
        return self.entries.shape[0]


def gen_gaussian_sensing(side, m, seed):
    """Draw A with i.i.d. N(0, 1/m) entries, reproducible from the seed.

    Parameters
    ----------
    side : int
        Matrix side (>= 2).
    m : int
        Number of effective measurements |Omega|; sets the entry variance.
    seed : int
        RNG seed; identical seeds give bit-identical matrices.
    """
    _check_draw(side, m, seed)
    rng = np.random.default_rng(seed)
    entries = rng.normal(0.0, 1.0 / np.sqrt(m), size=(side, side))
    return SensingMatrix(entries=entries)


@lru_cache(maxsize=8)
def dct_sensing(side):
    """Orthonormal DCT-II matrix: A X A^T equals the 2D DCT of X.

    Built once per side; the entries are read-only, so every caller, and
    MeasurementOperator's test for the fast form, shares one array.
    """
    check_count("side", side, 2, DimensionError)
    entries = scipy.fft.dct(np.eye(side), axis=0, norm="ortho")
    entries.setflags(write=False)
    return SensingMatrix(entries=entries)


def identity_sensing(side):
    """Identity matrix; measurements reduce to masked samples of X."""
    check_count("side", side, 2, DimensionError)
    return SensingMatrix(entries=np.eye(side))


def gen_mask(side, m, seed):
    """Draw m distinct index pairs uniformly without replacement."""
    _check_draw(side, m, seed)
    n = side * side
    rng = np.random.default_rng(seed)
    grid = np.zeros(n, dtype=bool)
    grid[rng.choice(n, size=m, replace=False)] = True  # row-major flat indices
    return SamplingMask(grid=grid.reshape(side, side))


def full_mask(side):
    """Mask with Omega equal to the whole grid."""
    check_count("side", side, 2, DimensionError)
    return SamplingMask(grid=np.ones((side, side), dtype=bool))


def mask_apply(mask, z):
    """Null every entry of z outside Omega; idempotent."""
    return _zero_unsampled(check_grid(z, side=mask.side, name="z").copy(), mask)


def masked_measurements(mask, y):
    """Y restricted to Omega for a solver; a NaN or inf sampled entry is a DomainError."""
    y = mask_apply(mask, y)
    if not np.isfinite(y).all():
        k, l = np.argwhere(~np.isfinite(y))[0]
        raise DomainError(f"sampled measurement Y[{k}, {l}] is {y[k, l]}; it must be finite")
    return y


def _zero_unsampled(y, mask):
    """Zero the entries of y outside Omega; every product and mask_apply use it.

    Scatters into the cached complement index instead of selecting with
    np.where(mask.grid, y, 0.0): the same values, inf and NaN included, in
    about a fifth of the time. Writes in place, so y must be a temporary
    (a fresh product, or mask_apply's copy of its input); a y that is not
    C-ordered is copied first, because a scatter into the copy that
    ravel() would make could not reach y.
    """
    y = np.ascontiguousarray(y)
    y.reshape(-1)[mask.unsampled] = 0.0
    return y


def forward(a, x, mask):
    """Masked two-sided product P_Omega{A X A^T}.

    Always the explicit product: two side x side matrix products,
    O(N^{3/2}) multiply-adds. Solvers reach it through MeasurementOperator,
    which takes the fast cosine transform instead for DCT sensing.
    """
    x = check_grid(x, side=a.side, name="x")
    if mask.side != a.side:
        raise DimensionError(f"mask side {mask.side} does not match matrix side {a.side}")
    return _zero_unsampled(a.entries @ x @ a.entries.T, mask)


def adjoint(a, r):
    """Adjoint of the measurement map for masked r: A^T R A."""
    r = check_grid(r, side=a.side, name="r")
    return a.entries.T @ r @ a.entries


def kron_forward_oracle(a, xvec, maskvec):
    """Dense 1D reference model: P_Omega'{(A kron A) vec(X)}.

    Builds the full N x N Kronecker matrix, so it is restricted to
    side <= 16 and intended as a test oracle only. ``xvec`` is the
    column-major vectorization of X and ``maskvec`` holds the 0-based
    column-major indices of Omega.
    """
    if a.side > KRON_ORACLE_MAX_SIDE:
        raise UnsupportedSizeError(
            f"kron oracle limited to side <= {KRON_ORACLE_MAX_SIDE}, got {a.side}"
        )
    xvec = np.asarray(xvec, dtype=float).ravel()
    n = a.side * a.side
    if xvec.size != n:
        raise DimensionError(f"xvec must have length side^2 = {n}, got {xvec.size}")
    maskvec = np.asarray(maskvec, dtype=np.int64).ravel()
    if maskvec.size and (maskvec.min() < 0 or maskvec.max() >= n):
        raise DimensionError("maskvec indices out of range")
    big = np.kron(a.entries, a.entries)
    yvec = big @ xvec
    keep = np.zeros(n, dtype=bool)
    keep[maskvec] = True
    return np.where(keep, yvec, 0.0)


def _is_power_of_two(side):
    return side & (side - 1) == 0


def dct_fast_forward(x, mask):
    """P_Omega{FCT_2D[X]} via the fast cosine transform.

    Equals forward() with the dct_sensing matrix to ~1e-12, at
    O(N log sqrt(N)) cost instead of two dense products. The advantage
    is asymptotic: with a fast BLAS the dense product can still win at
    side 64 and below; the fast path pulls ahead at larger sides.
    Power-of-two sides only. MeasurementOperator uses it, with
    dct_fast_adjoint, for every solver product under DCT sensing.
    """
    x = check_grid(x, name="x")
    side = x.shape[0]
    if not _is_power_of_two(side):
        raise UnsupportedSizeError(f"dct_fast_forward requires a power-of-two side, got {side}")
    if mask.side != side:
        raise DimensionError(f"mask side {mask.side} does not match grid side {side}")
    return _zero_unsampled(scipy.fft.dctn(x, type=2, norm="ortho"), mask)


def dct_fast_adjoint(r):
    """Adjoint of dct_fast_forward for masked r: the inverse 2D DCT, D^T R D.

    Equals adjoint() with the dct_sensing matrix to ~1e-12. Power-of-two sides
    only, like dct_fast_forward.
    """
    r = check_grid(r, name="r")
    side = r.shape[0]
    if not _is_power_of_two(side):
        raise UnsupportedSizeError(f"dct_fast_adjoint requires a power-of-two side, got {side}")
    return scipy.fft.idctn(r, type=2, norm="ortho")


class MeasurementOperator:
    """The masked two-sided map of one solve, X -> P_Omega{(cA) X (cA)^T}.

    ``a`` is the sensing matrix before scaling and ``scale`` the factor c
    (normalize_problem's, or 1). The form is read off the entries: a
    matrix equal, entry for entry, to dct_sensing at a power-of-two side
    takes the fast form, dct_fast_forward and dct_fast_adjoint with c^2
    applied as one multiply. Every other matrix takes the dense form:
    forward() and adjoint() with the matrix cA, built once here as
    c * a.entries. Both forms call the public functions of this module,
    so a profiler or tracer sees every product.
    """

    def __init__(self, a, mask, scale=1.0):
        if mask.side != a.side:
            raise DimensionError(f"mask side {mask.side} does not match matrix side {a.side}")
        self.mask = mask
        self.side = a.side
        self.fast = (_is_power_of_two(a.side)
                     and np.array_equal(a.entries, dct_sensing(a.side).entries))
        self.gain = scale * scale  # c^2
        self._a = a if self.fast or scale == 1.0 else replace(a, entries=scale * a.entries)

    def forward(self, x):
        """P_Omega{(cA) X (cA)^T}."""
        if not self.fast:
            return forward(self._a, x, self.mask)
        return self._scaled(dct_fast_forward(x, self.mask))

    def adjoint(self, r):
        """(cA)^T R (cA) for masked r."""
        if not self.fast:
            return adjoint(self._a, r)
        return self._scaled(dct_fast_adjoint(check_grid(r, side=self.side, name="r")))

    def _scaled(self, product):
        if self.gain != 1.0:
            product *= self.gain
        return product
