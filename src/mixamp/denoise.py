"""Sparsity denoisers and their divergences.

Three denoisers are provided: entrywise soft thresholding (direct
sparsity), block soft thresholding on non-overlapping square tiles
(group sparsity), and anisotropic total-variation denoising via the
split-Bregman iteration (finite-difference sparsity). Each reports the
average diagonal of its Jacobian, the scalar that feeds the residual
correction term of the message-passing solver.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (DimensionError, check_block_side, check_choice, check_count,
                         check_grid, check_real)

DENOISER_KINDS = ("soft", "block_soft", "tv_bregman")

# Below this threshold the TV shrinkage weight 1/thr overflows any useful
# range; the denoiser degenerates to the identity map.
_TV_IDENTITY_THR = 1e-12
# Fixed split-Bregman settings: the penalty mu = _TV_MU_PER_LAM * lam, the
# inner iterations per solve (few, as both solvers warm-start every solve),
# the red-black Gauss-Seidel sweeps per inner iteration, and the step of the
# Monte-Carlo divergence probe.
_TV_MU_PER_LAM = 2.0
_TV_INNER_ITERS = 5
_TV_SWEEPS = 2
_TV_PROBE_EPS = 1e-3


@dataclass(frozen=True)
class DenoiserSpec:
    """Configuration of one denoiser.

    tau scales the threshold derived from the solver's noise estimate
    theta: the denoiser receives tau * sqrt(theta).
    """

    kind: str
    block_side: int = 0
    tau: float = 1.0

    def __post_init__(self):
        check_choice("kind", self.kind, DENOISER_KINDS)
        check_count("block_side", self.block_side, 0)
        if self.kind == "block_soft":
            check_count("block_side", self.block_side, 1, DimensionError)
        check_real("tau", self.tau, strict=True)


@dataclass(frozen=True)
class TvState:
    """Split-Bregman state that one TV solve hands on to the next.

    p is the flat zero-padded iterate buffer of _tv_layout, d and b the
    stacked split and Bregman variables, and mu the penalty they were formed
    with. No solve writes into the arrays of a state. divergence is the
    probe value of the tv_denoise_bregman call that made the state, which
    the next call reuses; None when that call reused one itself, and in
    every state _tv_bregman_estimate makes.
    """

    p: np.ndarray
    d: np.ndarray
    b: np.ndarray
    mu: float
    divergence: float | None = None


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
    check_real("theta", theta, strict=False)
    check_real("tau", tau, strict=True)
    return tau * np.sqrt(theta)


def soft_threshold(x, thr):
    """Entrywise sgn(x) * max(|x| - thr, 0); accepts scalars or arrays.

    Computed as x - clip(x, -thr, thr): the same values, NaN and inf
    included, with +0.0 where the product form gave -0.0.
    """
    check_real("threshold", thr, strict=False)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(x - np.clip(x, -thr, thr))
    out = np.clip(x, -thr, thr)
    return np.subtract(x, out, out=out)


def soft_threshold_div(x, thr):
    """Average derivative (1/N) * #{|x_ij| > thr} of soft thresholding."""
    check_real("threshold", thr, strict=False)
    x = np.asarray(x, dtype=float)
    # |x| > thr without a float temporary for |x|: thr is finite and >= 0
    return float(np.count_nonzero((x > thr) | (x < -thr)) / x.size)


def _block_norms(x, block_side):
    """Frobenius norm of every block_side x block_side tile of x, as an (nb, nb) grid.

    The column slices of each tile row are squared in turn into one buffer
    and added up by strided adds, then the row sums down each tile: the
    order numpy's reduction over a tile takes below 8 entries a side, so
    for block sides up to 7 the norms are bit-identical to it (a few ulps
    apart above). No transposed or squared copy of the grid is made.
    """
    side = x.shape[0]
    check_block_side(side, block_side)
    nb = side // block_side
    cols = x.reshape(side, nb, block_side)
    rows = np.square(cols[:, :, 0])
    sq = np.empty_like(rows)
    for j in range(1, block_side):
        rows += np.square(cols[:, :, j], out=sq)
    rows = rows.reshape(nb, block_side, nb)
    tiles = rows[:, 0].copy()
    for i in range(1, block_side):
        tiles += rows[:, i]
    return np.sqrt(tiles, out=tiles)


def block_soft_threshold(x, block_side, thr):
    """Block soft thresholding on contiguous non-overlapping square tiles.

    Every tile x_B is scaled by max(1 - thr / ||x_B||_F, 0); a tile with
    ||x_B||_F <= thr becomes exactly zero. The reported divergence is the
    exact average of the Jacobian diagonal: a surviving tile of B entries
    with radius r = ||x_B||_F contributes B * (1 - thr / r) + thr / r.
    """
    check_real("threshold", thr, strict=False)
    x = check_grid(x, name="x")
    radii = _block_norms(x, block_side)
    safe = np.where(radii > 0, radii, 1.0)
    scale = np.maximum(1.0 - thr / safe, 0.0)
    # columns first, so the row repeat copies whole rows
    est = np.repeat(np.repeat(scale, block_side, 1), block_side, 0)
    est *= x
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
    x = check_grid(x, name="x")
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
    exactly ``iters`` >= 1 inner iterations from ``state``, with b rescaled
    by mu_old / mu; no state means the cold start u = x, d = Du, b = 0.
    converged is tested once, on the last inner iteration's progress. The
    function is pure: it writes into none of its inputs, and u and the
    returned TvState (p, d, b, mu) hold arrays of their own.
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
    rhs = np.empty(hi - lo)
    for k in range(iters):
        if k == iters - 1:
            u_prev = u.copy()
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
    # progress of the last inner iteration: iterate motion plus the primal
    # residual of the split constraint d = Du, both relative to the iterate
    # scale; the residual is formed on contiguous (side, side - 1) and
    # (side - 1, side) grid arrays, so its sum keeps the reduction order
    gh, dh = view(g[0], cols=side - 1), view(d[0], cols=side - 1)
    gv, dv = view(g[1], rows=side - 1), view(d[1], rows=side - 1)
    u_now = u.copy()
    scale = max(float(np.linalg.norm(u_now)), 1e-30)
    split = np.sqrt(((gh - dh) ** 2).sum() + ((gv - dv) ** 2).sum())
    progress = (float(np.linalg.norm(u_now - u_prev)) + float(split)) / scale
    return u_now, progress <= 1e-4, TvState(p=p, d=d, b=b, mu=mu)


def tv_denoise_bregman(x, lam, state=None, probe_seed=0):
    """Approximate argmin of ||u||_TV + (lam/2)||u - x||_F^2.

    Split Bregman (Goldstein & Osher 2009): anisotropic shrinkage on split
    difference variables d ~ Du, with the quadratic subproblem
    (lam I + mu L) u = rhs relaxed by two red-black Gauss-Seidel sweeps per
    inner iteration, for exactly _TV_INNER_ITERS = 5 inner iterations. The
    penalty is fixed at mu = 2 lam.

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

    Progress is tested once per solve, on the last inner iteration: a solve
    still moving by more than 1e-4 returns tv_converged=False, not an error. The
    divergence is estimated by one Rademacher probe (mc_divergence) of
    step 1e-3 drawn from ``probe_seed``; the probe solve starts from the
    same state as the estimate, so the probe is a finite difference of one
    map. The probe is a second full solve, so it runs only when ``state``
    holds no probe value: a call that probes hands its value on in
    tv_state.divergence, and the next call returns that value without a
    probe and hands on a state that holds none. A chain of warm calls thus
    probes every second call, and ``probe_seed`` goes unused on the others.
    """
    check_real("lam", lam, strict=True)
    x = check_grid(x, name="x")

    u, converged, end = _tv_bregman_estimate(x, lam, _TV_INNER_ITERS, state)
    if state is not None and state.divergence is not None:
        div = state.divergence
    else:
        div = mc_divergence(lambda v: _tv_bregman_estimate(v, lam, _TV_INNER_ITERS, state)[0], x,
                            probe_seed=probe_seed, eps=_TV_PROBE_EPS, _precomputed=u)
        # prox of a convex function: each diagonal slope lies in [0, 1]
        div = float(min(max(div, 0.0), 1.0))
        end = replace(end, divergence=div)
    return DenoiseOutput(estimate=u, divergence_avg=div, tv_converged=converged, tv_state=end)


def mc_divergence(eta, x, probe_seed, eps, _precomputed=None):
    """Monte-Carlo divergence (1/N) b^T [eta(x + eps b) - eta(x)] / eps.

    b is one +-1 Rademacher grid drawn deterministically from probe_seed.
    eta is any callable mapping grids to grids. ``_precomputed`` lets a
    caller that already evaluated eta(x) skip recomputing it.
    """
    check_real("eps", eps, strict=True)
    x = np.asarray(x, dtype=float)
    base = eta(x) if _precomputed is None else _precomputed
    b = np.random.default_rng(probe_seed).choice((-1.0, 1.0), size=x.shape)
    return float((b * (eta(x + eps * b) - base)).sum() / (eps * x.size))
