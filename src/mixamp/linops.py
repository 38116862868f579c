"""2D measurement model: sensing matrices, undersampling masks, and the
masked two-sided product Y = P_Omega{A X A^T} with its adjoint.

Grids are plain float64 numpy arrays of shape (side, side). All public
indices in documentation are 1-based; arrays are 0-based internally.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.fft

from .exceptions import (
    DimensionError,
    DomainError,
    OracleScaleError,
    UnsupportedSizeError,
)

KRON_ORACLE_MAX_SIDE = 16


def _check_side(side):
    if not isinstance(side, (int, np.integer)) or side < 2:
        raise DimensionError(f"grid side must be an integer >= 2, got {side!r}")


def _check_grid(z, side=None, name="grid"):
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] != z.shape[1] or z.shape[0] < 2:
        raise DimensionError(f"{name} must be a square 2D array with side >= 2, got shape {z.shape}")
    if side is not None and z.shape[0] != side:
        raise DimensionError(f"{name} side {z.shape[0]} does not match expected side {side}")
    return z


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """Sampled index set Omega with |Omega| = m out of the side x side grid.

    ``indices`` is an (m, 2) int array of (row, col) pairs sorted
    lexicographically; ``grid`` is the equivalent boolean indicator, which
    gives O(1) membership tests and vectorized masking. Both are treated as
    immutable: ``unsampled`` is derived from ``grid`` once and cached.
    """

    side: int
    indices: np.ndarray
    grid: np.ndarray

    @property
    def m(self):
        return int(self.indices.shape[0])

    @cached_property
    def unsampled(self):
        """Row-major flat indices of the grid entries outside Omega (read-only)."""
        flat = np.flatnonzero(~self.grid)
        flat.flags.writeable = False
        return flat

    def vec_indices(self):
        """Column-major vectorized indices of Omega: (k, l) -> l * side + k."""
        k = self.indices[:, 0]
        l = self.indices[:, 1]
        return np.sort(l * self.side + k)


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """Square measurement matrix A; kind is one of {"gaussian", "dct", "identity"}."""

    side: int
    entries: np.ndarray
    kind: str


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
    _check_side(side)
    if not 1 <= m <= side * side:
        raise DimensionError(f"m must satisfy 1 <= m <= side^2, got m={m}, side={side}")
    rng = np.random.default_rng(seed)
    entries = rng.normal(0.0, 1.0 / np.sqrt(m), size=(side, side))
    return SensingMatrix(side=side, entries=entries, kind="gaussian")


def dct_sensing(side):
    """Orthonormal DCT-II matrix: A X A^T equals the 2D DCT of X."""
    _check_side(side)
    entries = scipy.fft.dct(np.eye(side), axis=0, norm="ortho")
    return SensingMatrix(side=side, entries=entries, kind="dct")


def identity_sensing(side):
    """Identity matrix; measurements reduce to masked samples of X."""
    _check_side(side)
    return SensingMatrix(side=side, entries=np.eye(side), kind="identity")


def gen_mask(side, m, seed):
    """Draw m distinct index pairs uniformly without replacement."""
    _check_side(side)
    n = side * side
    if not 1 <= m <= n:
        raise DimensionError(f"m must satisfy 1 <= m <= side^2, got m={m}, side={side}")
    rng = np.random.default_rng(seed)
    flat = rng.choice(n, size=m, replace=False)
    flat.sort()
    # row-major decode keeps indices lexicographically sorted
    pairs = np.column_stack(np.divmod(flat, side)).astype(np.int64)
    grid = np.zeros((side, side), dtype=bool)
    grid[pairs[:, 0], pairs[:, 1]] = True
    return SamplingMask(side=side, indices=pairs, grid=grid)


def full_mask(side):
    """Mask with Omega equal to the whole grid."""
    _check_side(side)
    pairs = np.column_stack(np.divmod(np.arange(side * side), side)).astype(np.int64)
    return SamplingMask(side=side, indices=pairs, grid=np.ones((side, side), dtype=bool))


def mask_apply(mask, z):
    """Null every entry of z outside Omega; idempotent."""
    z = _check_grid(z, side=mask.side, name="z")
    return np.where(mask.grid, z, 0.0)


def masked_measurements(mask, y):
    """Y restricted to Omega for a solver; a NaN or inf sampled entry is a DomainError."""
    y = mask_apply(mask, y)
    if not np.isfinite(y).all():
        k, l = np.argwhere(~np.isfinite(y))[0]
        raise DomainError(f"sampled measurement Y[{k}, {l}] is {y[k, l]}; it must be finite")
    return y


def _zero_unsampled(y, mask):
    """Zero the entries of a freshly computed product outside Omega.

    Scatters into the cached complement index instead of selecting with
    np.where(mask.grid, y, 0.0): the same values, inf and NaN included, in
    about a fifth of the time. Writes in place, so y must be a temporary; a
    y that is not C-ordered is copied first, because a scatter into the
    copy that ravel() would make could not reach y.
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
    x = _check_grid(x, side=a.side, name="x")
    if mask.side != a.side:
        raise DimensionError(f"mask side {mask.side} does not match matrix side {a.side}")
    return _zero_unsampled(a.entries @ x @ a.entries.T, mask)


def adjoint(a, r):
    """Adjoint of the measurement map for masked r: A^T R A."""
    r = _check_grid(r, side=a.side, name="r")
    return a.entries.T @ r @ a.entries


def kron_forward_oracle(a, xvec, maskvec):
    """Dense 1D reference model: P_Omega'{(A kron A) vec(X)}.

    Builds the full N x N Kronecker matrix, so it is restricted to
    side <= 16 and intended as a test oracle only. ``xvec`` is the
    column-major vectorization of X and ``maskvec`` holds the 0-based
    column-major indices of Omega.
    """
    if a.side > KRON_ORACLE_MAX_SIDE:
        raise OracleScaleError(
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

    Equals forward() with a dct-kind matrix to ~1e-12, at
    O(N log sqrt(N)) cost instead of two dense products. The advantage
    is asymptotic: with a fast BLAS the dense product can still win at
    side 64 and below; the fast path pulls ahead at larger sides.
    Power-of-two sides only. MeasurementOperator uses it, with
    dct_fast_adjoint, for every solver product under DCT sensing.
    """
    x = _check_grid(x, name="x")
    side = x.shape[0]
    if not _is_power_of_two(side):
        raise UnsupportedSizeError(f"dct_fast_forward requires a power-of-two side, got {side}")
    if mask.side != side:
        raise DimensionError(f"mask side {mask.side} does not match grid side {side}")
    return _zero_unsampled(scipy.fft.dctn(x, type=2, norm="ortho"), mask)


def dct_fast_adjoint(r):
    """Adjoint of dct_fast_forward for masked r: the inverse 2D DCT, D^T R D.

    Equals adjoint() with a dct-kind matrix to ~1e-12. Power-of-two sides
    only, like dct_fast_forward.
    """
    r = _check_grid(r, name="r")
    side = r.shape[0]
    if not _is_power_of_two(side):
        raise UnsupportedSizeError(f"dct_fast_adjoint requires a power-of-two side, got {side}")
    return scipy.fft.idctn(r, type=2, norm="ortho")


class MeasurementOperator:
    """The masked two-sided map of one solve, X -> P_Omega{(cA) X (cA)^T}.

    ``a`` is the sensing matrix before scaling and ``scale`` the factor c
    (normalize_problem's, or 1). An orthonormal DCT matrix at a
    power-of-two side takes the fast form: dct_fast_forward and
    dct_fast_adjoint, with c^2 applied as one multiply. Every other matrix
    takes the dense form: forward() and adjoint() with the matrix cA,
    built once here as c * a.entries. Both forms call the public
    functions of this module, so a profiler or tracer sees every product.
    """

    def __init__(self, a, mask, scale=1.0):
        if mask.side != a.side:
            raise DimensionError(f"mask side {mask.side} does not match matrix side {a.side}")
        self.mask = mask
        self.side = a.side
        self.kind = a.kind
        self.fast = a.kind == "dct" and _is_power_of_two(a.side)
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
        return self._scaled(dct_fast_adjoint(_check_grid(r, side=self.side, name="r")))

    def _scaled(self, product):
        if self.gain != 1.0:
            product *= self.gain
        return product
