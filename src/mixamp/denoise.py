"""Sparsity denoisers and their divergences.

Three denoisers are provided: entrywise soft thresholding (direct
sparsity), block soft thresholding on non-overlapping square tiles
(group sparsity), and anisotropic total-variation denoising via the
split-Bregman iteration (finite-difference sparsity). Each reports the
average diagonal of its Jacobian, the scalar that feeds the residual
correction term of the message-passing solver.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, DomainError

DENOISER_KINDS = ("soft", "block_soft", "tv_bregman")

# Below this threshold the TV shrinkage weight 1/thr overflows any useful
# range; the denoiser degenerates to the identity map.
_TV_IDENTITY_THR = 1e-12
# Fixed split-Bregman settings: the penalty mu = _TV_MU_PER_LAM * lam, the
# red-black Gauss-Seidel sweeps per inner iteration, and the step of the
# Monte-Carlo divergence probe.
_TV_MU_PER_LAM = 2.0
_TV_SWEEPS = 2
_TV_PROBE_EPS = 1e-3


def _check_count(name, value, minimum=1):
    """Raise DomainError unless value is an integer >= minimum; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class DenoiserSpec:
    """Configuration of one denoiser.

    tau scales the threshold derived from the solver's noise estimate
    theta: the denoiser receives tau * sqrt(theta). tv_inner_iters caps
    the split-Bregman inner iterations of one TV solve.
    """

    kind: str
    block_side: int = 0
    tv_inner_iters: int = 20
    tau: float = 1.0

    def __post_init__(self):
        if self.kind not in DENOISER_KINDS:
            raise DomainError(f"unknown denoiser kind {self.kind!r}")
        _check_count("block_side", self.block_side, minimum=0)
        if self.kind == "block_soft" and self.block_side < 1:
            raise DimensionError("block_soft requires block_side >= 1")
        _check_count("tv_inner_iters", self.tv_inner_iters)
        if not self.tau > 0:
            raise DomainError("tau must be positive")


@dataclass(frozen=True)
class TvState:
    """Split-Bregman state that one TV solve hands on to the next.

    p is the flat zero-padded iterate buffer of _tv_layout, d and b the
    stacked split and Bregman variables, and mu the penalty they were formed
    with. No solve writes into the arrays of a state.
    """

    p: np.ndarray
    d: np.ndarray
    b: np.ndarray
    mu: float


@dataclass(frozen=True)
class DenoiseOutput:
    """Denoised grid plus the average-derivative scalar <eta'>.

    A TV denoiser also returns the state its solve ended in, from which the
    next solve can start.
    """

    estimate: np.ndarray
    divergence_avg: float
    tv_converged: bool = True
    tv_state: TvState | None = None


def threshold_from_theta(theta, tau):
    """Amplitude-scale threshold tau * sqrt(theta) from the variance theta."""
    if theta < 0:
        raise DomainError(f"theta must be nonnegative, got {theta}")
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    return tau * np.sqrt(theta)


def soft_threshold(x, thr):
    """Entrywise sgn(x) * max(|x| - thr, 0); accepts scalars or arrays."""
    if thr < 0:
        raise DomainError(f"threshold must be nonnegative, got {thr}")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)
    return float(out) if out.ndim == 0 else out


def soft_threshold_div(x, thr):
    """Average derivative (1/N) * #{|x_ij| > thr} of soft thresholding."""
    if thr < 0:
        raise DomainError(f"threshold must be nonnegative, got {thr}")
    return float(np.mean((np.abs(np.asarray(x, dtype=float)) > thr).astype(float)))


def _check_block_side(side, block_side):
    """Raise DimensionError unless block_side tiles a grid of the given side."""
    if side % block_side != 0:
        raise DimensionError(f"grid side {side} is not divisible by block side {block_side}")


def _blocks_view(x, block_side):
    side = x.shape[0]
    _check_block_side(side, block_side)
    nb = side // block_side
    # (block-row, block-col, i, j) view of the raster tiling
    return x.reshape(nb, block_side, nb, block_side).transpose(0, 2, 1, 3), nb


def block_soft_threshold(x, block_side, thr):
    """Block soft thresholding on contiguous non-overlapping square tiles.

    Every tile x_B is scaled by max(1 - thr / ||x_B||_F, 0); a tile with
    ||x_B||_F <= thr becomes exactly zero. The reported divergence is the
    exact average of the Jacobian diagonal: a surviving tile of B entries
    with radius r = ||x_B||_F contributes B * (1 - thr / r) + thr / r.
    """
    if thr < 0:
        raise DomainError(f"threshold must be nonnegative, got {thr}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"expected a square grid, got shape {x.shape}")
    blocks, nb = _blocks_view(x, block_side)
    radii = np.sqrt((blocks ** 2).sum(axis=(2, 3)))
    safe = np.where(radii > 0, radii, 1.0)
    scale = np.maximum(1.0 - thr / safe, 0.0)
    est = (blocks * scale[:, :, None, None]).transpose(0, 2, 1, 3).reshape(x.shape)
    b = block_side * block_side
    per_block = np.where(radii > thr, b * (1.0 - thr / safe) + thr / safe, 0.0)
    div = float(per_block.sum() / x.size)
    return DenoiseOutput(estimate=est, divergence_avg=div)


def _dh(u):
    return u[:, 1:] - u[:, :-1]


def _dv(u):
    return u[1:, :] - u[:-1, :]


def tv_norm(x):
    """Anisotropic TV: sum of |horizontal| plus |vertical| first differences.

    Replicate (Neumann) boundaries: no wraparound terms.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 2:
        raise DimensionError(f"expected a square grid with side >= 2, got shape {x.shape}")
    return float(np.abs(_dh(x)).sum() + np.abs(_dv(x)).sum())


def tv_objective(u, x, lam):
    """The denoising objective ||u||_TV + (lam/2) ||u - x||_F^2."""
    return tv_norm(u) + 0.5 * lam * float(((u - x) ** 2).sum())


@functools.lru_cache(maxsize=8)
def _tv_layout(side):
    """Flat zero-padded layout of a side x side grid (see tv_denoise_bregman).

    Returns (w, deg, edge): the odd row width; the neighbour count of each
    grid entry, inf on the pads; and the stacked 0/1 maps of the horizontal
    and vertical differences that exist, each stored at the flat position
    of its left or upper end.
    """
    w = side + 1 if side % 2 == 0 else side + 2
    deg = np.full((side + 2, w), np.inf)
    grid = deg[1:side + 1, 1:side + 1]
    grid[...] = 0.0
    grid[:, :-1] += 1.0
    grid[:, 1:] += 1.0
    grid[:-1, :] += 1.0
    grid[1:, :] += 1.0
    edge = np.zeros((2, side + 2, w))
    edge[0, 1:side + 1, 1:side] = 1.0
    edge[1, 1:side, 1:side + 1] = 1.0
    deg, edge = deg.ravel(), edge.reshape(2, -1)
    deg.setflags(write=False)
    edge.setflags(write=False)
    return w, deg, edge


def _tv_bregman_estimate(x, lam, iters, state=None):
    """Split-Bregman minimization of tv_objective; returns (u, converged, state).

    Works on the flat layout of _tv_layout; see tv_denoise_bregman. It runs
    at most ``iters`` inner iterations from ``state``, with b rescaled by
    mu_old / mu; no state means the cold start u = x, d = Du, b = 0. The
    function is pure: it writes into none of its inputs, and the returned
    TvState (p, d, b, mu) holds arrays of its own.
    """
    side = x.shape[0]
    mu = _TV_MU_PER_LAM * lam
    shrink = 1.0 / mu
    w, deg, edge = _tv_layout(side)
    lo, hi = w + 1, side * w + side + 1  # first and one past the last grid entry

    def view(flat, rows=side, cols=side):
        # (rows, cols) grid view of a flat buffer; a (side, side - 1) view
        # holds the horizontal differences, a (side - 1, side) the vertical
        return flat.reshape(side + 2, w)[1:rows + 1, 1:cols + 1]

    p = np.zeros(deg.size)
    view(p)[...] = x
    lam_x = lam * p[lo:hi]

    def gradient(out):
        np.subtract(p[lo + 1:hi + 1], p[lo:hi], out=out[0, lo:hi])
        np.subtract(p[lo + w:hi + w], p[lo:hi], out=out[1, lo:hi])
        out *= edge

    g = np.zeros((2, deg.size))
    if state is None:
        gradient(g)
        state = TvState(p=p, d=g, b=np.zeros_like(g), mu=mu)
    p = state.p.copy()
    d = state.d.copy()  # split variables d ~ Du, stacked (horizontal, vertical)
    b = state.b * (state.mu / mu)  # b is the scaled dual (dual / mu), so it moves with mu
    u = view(p)
    denom = lam + mu * deg  # inf on the pads, which therefore stay zero
    colors = [(s, denom[s:hi:2].copy()) for s in (lo, lo + 1)]
    t = np.empty_like(d)
    # (side, side - 1) and (side - 1, side) views: the split residual is
    # formed as a contiguous grid array, so its sum keeps the reduction order
    gh, dh = view(g[0], cols=side - 1), view(d[0], cols=side - 1)
    gv, dv = view(g[1], rows=side - 1), view(d[1], rows=side - 1)
    rhs = np.empty(hi - lo)
    u_prev = u.copy()
    progress = np.inf
    for _ in range(iters):
        # rhs = lam x + mu D^T (d - b)
        np.subtract(d, b, out=t)
        np.subtract(t[0, lo - 1:hi - 1], t[0, lo:hi], out=rhs)
        rhs += t[1, lo - w:hi - w] - t[1, lo:hi]
        rhs *= mu
        rhs += lam_x
        for _ in range(_TV_SWEEPS):
            # red-black Gauss-Seidel on (lam I + mu L) u = rhs; the four
            # neighbours of an entry have the other flat parity
            for s, den in colors:
                nb = p[s - 1:hi - 1:2] + p[s + 1:hi + 1:2]
                nb += p[s - w:hi - w:2]
                nb += p[s + w:hi + w:2]
                nb *= mu
                nb += rhs[s - lo::2]
                np.divide(nb, den, out=p[s:hi:2])
        gradient(g)
        np.add(g, b, out=t)
        # soft shrinkage: t - clip(t, -shrink, shrink) = sign(t) max(|t| - shrink, 0)
        np.subtract(t, np.clip(t, -shrink, shrink), out=d)
        np.subtract(t, d, out=b)
        # progress = iterate motion plus the primal residual of the split
        # constraint d = Du, both relative to the iterate scale
        u_now = u.copy()
        scale = max(float(np.linalg.norm(u_now)), 1e-30)
        split = np.sqrt(((gh - dh) ** 2).sum() + ((gv - dv) ** 2).sum())
        progress = (float(np.linalg.norm(u_now - u_prev)) + float(split)) / scale
        u_prev = u_now
        if progress <= 1e-12:
            break
    return u_prev, progress <= 1e-4, TvState(p=p, d=d, b=b, mu=mu)


def tv_denoise_bregman(x, lam, spec, state=None, probe_seed=0):
    """Approximate argmin of ||u||_TV + (lam/2)||u - x||_F^2.

    Split Bregman (Goldstein & Osher 2009): anisotropic shrinkage on split
    difference variables d ~ Du, with the quadratic subproblem
    (lam I + mu L) u = rhs relaxed by two red-black Gauss-Seidel sweeps per
    inner iteration. The penalty is fixed at mu = 2 lam.

    The iteration runs on one flat, zero-padded buffer. Grid row i is
    stored at padded row i + 1 behind one zero pad column, and the row
    width w is odd: side + 1 for even sides, side + 2 for odd ones. Each
    neighbour of an entry is then a 1D shift by +-1 or +-w, and the
    red/black colour of entry (i, j), the parity of i + j, is the parity of
    its flat index, so one colour update is one stride-2 slice. The pads
    carry an infinite diagonal and so stay zero; the differences that
    leave the grid are multiplied by a 0/1 edge map, so their split
    variables stay zero. Every elementwise step, and every norm, is formed
    in the same order as on the plain 2D grid, so for finite input the
    estimate and convergence flag equal those of the straightforward 2D
    implementation bit for bit. (A NaN spreads faster: 0 * NaN on a
    missing edge carries it through the pads.)

    ``state`` is the TvState of an earlier solve on a grid of the same
    side, typically the previous outer iteration of a solver. The inner
    iteration then starts from its (p, d, b) instead of u = x, d = Du,
    b = 0, with b rescaled by mu_old / mu because mu = 2 lam follows lam.
    A few warm inner iterations then do the work of many cold ones.
    Without a state the solve is cold. Nothing is written into ``x`` or
    ``state``; the output carries the state this solve ended in as
    tv_state.

    A run that is still moving after spec.tv_inner_iters returns its last
    iterate with tv_converged=False rather than raising. The divergence is
    estimated by one Rademacher probe (mc_divergence) of step 1e-3 drawn
    from ``probe_seed``; the probe solve starts from the same state as the
    estimate, so the probe is a finite difference of one map.
    """
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if spec.kind != "tv_bregman":
        raise DomainError(f"spec.kind must be 'tv_bregman', got {spec.kind!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 2:
        raise DimensionError(f"expected a square grid with side >= 2, got shape {x.shape}")

    iters = spec.tv_inner_iters
    u, converged, end = _tv_bregman_estimate(x, lam, iters, state)
    div = mc_divergence(lambda v: _tv_bregman_estimate(v, lam, iters, state)[0], x,
                        probe_seed=probe_seed, eps=_TV_PROBE_EPS, _precomputed=u)
    # prox of a convex function: each diagonal slope lies in [0, 1]
    div = float(min(max(div, 0.0), 1.0))
    return DenoiseOutput(estimate=u, divergence_avg=div, tv_converged=converged, tv_state=end)


def mc_divergence(eta, x, probe_seed, eps, n_probes=1, _precomputed=None):
    """Monte-Carlo divergence (1/N) b^T [eta(x + eps b) - eta(x)] / eps.

    b is a +-1 Rademacher grid drawn deterministically from probe_seed;
    with n_probes > 1 the estimate is averaged over independent probes.
    eta is any callable mapping grids to grids. ``_precomputed`` lets a
    caller that already evaluated eta(x) skip recomputing it.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=float)
    base = eta(x) if _precomputed is None else _precomputed
    rng = np.random.default_rng(probe_seed)
    total = 0.0
    for _ in range(n_probes):
        b = rng.choice((-1.0, 1.0), size=x.shape)
        total += float((b * (eta(x + eps * b) - base)).sum() / (eps * x.size))
    return total / n_probes
