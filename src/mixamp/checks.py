"""Oracle checks of the exact properties the separator rests on.

Each check takes the instances to try and returns the worst violation it
measured; the caller draws the instances and holds the bound. `mixamp
selfcheck` runs SELFCHECKS (a few instances each); the acceptance
criteria and the unit tests call the same functions at their own scale.
Checks reach the library through its module attributes, so a test can
patch a library function and see its check fail. The worst violation is
taken with np.maximum, which keeps a NaN, so a check that measured NaN
fails its bound. The brute-force references (grid_prox_abs,
fd_divergence) share no code path with the functions they check.
"""

from dataclasses import replace

import numpy as np

from . import denoise, linops, solver
from .exceptions import DomainError


def grid_prox_abs(x, thr, step=1e-4):
    """argmin over a grid of |u| + (u - x)^2 / (2 thr)."""
    lo, hi = -abs(x) - 1.0, abs(x) + 1.0
    grid = np.arange(lo, hi + step, step)
    vals = np.abs(grid) + (grid - x) ** 2 / (2.0 * thr)
    return float(grid[np.argmin(vals)])


def fd_divergence(eta, x, eps=1e-6):
    """(1/N) sum_i [eta(x + eps e_i)_i - eta(x - eps e_i)_i] / (2 eps)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    total = 0.0
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        up = eta((flat + bump).reshape(x.shape)).ravel()[i]
        dn = eta((flat - bump).reshape(x.shape)).ravel()[i]
        total += (up - dn) / (2.0 * eps)
    return total / flat.size


def nudge_away_from_soft_kink(x, thr, margin=1e-4):
    """Shift entries lying within `margin` of the |x| = thr kink."""
    x = np.array(x, dtype=float)
    close = np.abs(np.abs(x) - thr) < margin
    x[close] += 2.0 * margin * np.where(x[close] >= 0, 1.0, -1.0)
    return x


def nudge_block_radii(x, block_side, thr, margin=1e-4):
    """Rescale blocks whose Frobenius radius is within `margin` of thr."""
    x = np.array(x, dtype=float)
    n = x.shape[0]
    for bi in range(0, n, block_side):
        for bj in range(0, n, block_side):
            blk = x[bi:bi + block_side, bj:bj + block_side]
            r = np.sqrt((blk ** 2).sum())
            if abs(r - thr) < margin and r > 0:
                x[bi:bi + block_side, bj:bj + block_side] = blk * (thr + 2 * margin) / r
    return x


def kron_equivalence(instances):
    """Worst relative error of vec(P{A X A^T}) against the Kronecker model; yields (a, mask, x)."""
    worst = 0.0
    for a, mask, x in instances:
        y2d = linops.forward(a, x, mask).flatten(order="F")
        yvec = linops.kron_forward_oracle(a, x.flatten(order="F"), mask.vec_indices())
        worst = np.maximum(worst, np.abs(y2d - yvec).max() / max(np.abs(yvec).max(), 1e-30))
    return float(worst)


def adjoint_identity(instances):
    """Worst relative gap of <op.forward(X), R> = <X, op.adjoint(R)> over (op, x, r), r masked here."""
    worst = 0.0
    for op, x, r in instances:
        r = linops.mask_apply(op.mask, r)
        lhs = float((op.forward(x) * r).sum())
        rhs = float((x * op.adjoint(r)).sum())
        worst = np.maximum(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return float(worst)


def soft_prox_grid(instances):
    """Worst gap of soft_threshold to a grid search for the prox of |.|; yields scalars (x, thr)."""
    worst = 0.0
    for x, thr in instances:
        worst = np.maximum(worst, abs(denoise.soft_threshold(x, thr) - grid_prox_abs(x, thr)))
    return float(worst)


def soft_divergence_fd(instances):
    """Worst gap of soft_threshold_div to finite differences over (x, thr), x nudged off the kink."""
    worst = 0.0
    for x, thr in instances:
        x = nudge_away_from_soft_kink(x, thr)
        fd = fd_divergence(lambda v: denoise.soft_threshold(v, thr), x)
        worst = np.maximum(worst, abs(denoise.soft_threshold_div(x, thr) - fd))
    return float(worst)


def block_divergence_fd(instances):
    """Worst gap of block_soft_threshold's divergence to finite differences over
    (x, block_side, thr), blocks of radius near thr rescaled off it."""
    worst = 0.0
    for x, block_side, thr in instances:
        x = nudge_block_radii(x, block_side, thr)
        out = denoise.block_soft_threshold(x, block_side, thr)
        fd = fd_divergence(lambda v: denoise.block_soft_threshold(v, block_side, thr).estimate, x)
        worst = np.maximum(worst, abs(out.divergence_avg - fd))
    return float(worst)


def tv_objective_decrease(instances):
    """Largest rise of the TV objective by a default TV solve of each (x, lam), or 0."""
    spec = denoise.DenoiserSpec(kind="tv_bregman")
    worst = 0.0
    for x, lam in instances:
        out = denoise.tv_denoise_bregman(x, lam, spec)
        rise = denoise.tv_objective(out.estimate, x, lam) - denoise.tv_objective(x, x, lam)
        worst = np.maximum(worst, rise)
    return float(worst)


def dct_equivalence(instances, scale=1.0):
    """Worst gap of the fast DCT operator to the dense products; yields (mask, x).

    The operator is linops.MeasurementOperator(dct_sensing, mask, scale)
    and the dense products use the matrix scale * dct_sensing. The
    forward map is tried on x and the adjoint on the masked x. A side
    the fast form does not take checks nothing and returns inf.
    """
    worst = 0.0
    for mask, x in instances:
        a = linops.dct_sensing(x.shape[0])
        op = linops.MeasurementOperator(a, mask, scale)
        if not op.fast:
            return float("inf")
        dense = replace(a, entries=scale * a.entries)
        r = linops.mask_apply(mask, x)
        err_fwd = np.abs(op.forward(x) - linops.forward(dense, x, mask)).max()
        err_adj = np.abs(op.adjoint(r) - linops.adjoint(dense, r)).max()
        worst = np.maximum(worst, np.maximum(err_fwd, err_adj))
    return float(worst)


def residual_support(a, mask, y, cfg, iters):
    """Worst relative gap of theta to ||R||_F^2 / M over iters normalized steps.

    Returns inf once R is nonzero outside Omega, where it must vanish exactly.
    """
    y, scale = solver.normalize_problem(a, y, mask)
    op = linops.MeasurementOperator(a, mask, scale)
    state = solver.mixamp_init(y, mask)
    worst = 0.0
    for _ in range(iters):
        state = solver.mixamp_step(state, op, y, cfg)
        if state.r[~mask.grid].any():
            return float("inf")
        theta = (state.r ** 2).sum() / mask.m
        worst = np.maximum(worst, abs(state.theta - theta) / max(state.theta, 1e-30))
    return float(worst)


def _divergence(spec, x, theta):
    """<eta'> at x of a soft or block_soft denoiser, apart from solver.apply_denoiser."""
    thr = denoise.threshold_from_theta(theta, spec.tau)
    if spec.kind == "soft":
        return denoise.soft_threshold_div(x, thr)
    if spec.kind != "block_soft":
        raise DomainError(f"onsager_ablation takes soft and block_soft denoisers, got {spec.kind}")
    # a block's noise norm is sqrt(B theta), so its threshold carries sqrt(B) = block_side
    return denoise.block_soft_threshold(x, spec.block_side, thr * spec.block_side).divergence_avg


def onsager_ablation(a, mask, y, denoiser_a, denoiser_b):
    """Worst gap of the first residual's correction to (N/M)(<eta_a'> + <eta_b'>) R.

    One undamped mixamp_step from mixamp_init on the normalized problem,
    where mixamp_run starts; the correction is its residual less the bare
    residual Y - P{A (Xa + Xb) A^T}. The divergences are recomputed from
    theta, so a fault in its map to thresholds shows. An instance where
    both vanish checks nothing and returns inf.
    """
    y, scale = solver.normalize_problem(a, y, mask)
    op = linops.MeasurementOperator(a, mask, scale)
    state = solver.mixamp_init(y, mask)
    new = solver.mixamp_step(state, op, y, solver.MixAmpConfig(denoiser_a, denoiser_b))
    z = op.adjoint(state.r)
    div = (_divergence(denoiser_a, z + state.xa, state.theta)
           + _divergence(denoiser_b, z + state.xb, state.theta))
    if div == 0.0:
        return float("inf")
    bare = y - op.forward(new.xa + new.xb)
    expected = (a.side * a.side / mask.m) * div * state.r
    return float(np.abs((new.r - bare) - expected).max())


def _gaussian(side, m, seed):
    return linops.gen_gaussian_sensing(side, m, seed=seed), linops.gen_mask(side, m, seed=seed + 1)


def _normal(seed, side):
    return np.random.default_rng(seed).standard_normal((side, side))


def _problem(side, m, seed):
    """(a, mask, y) of a small Gaussian problem with a random signal."""
    a, mask = _gaussian(side, m, seed)
    return a, mask, linops.forward(a, _normal(seed + 2, side), mask)


_SPECS = (denoise.DenoiserSpec(kind="soft", tau=1.5),
          denoise.DenoiserSpec(kind="block_soft", block_side=4, tau=1.2))

# (name, few-instance call, bound on the worst violation it returns)
SELFCHECKS = (
    ("kron_equivalence", lambda: kron_equivalence([(*_gaussian(8, 44, 1), _normal(0, 8))]), 1e-12),
    ("adjoint_identity",
     lambda: adjoint_identity([(linops.MeasurementOperator(*_gaussian(16, 128, 4)),
                                _normal(3, 16), _normal(5, 16))]), 1e-10),
    ("soft_prox_grid", lambda: soft_prox_grid((x, 0.5) for x in (-1.3, -0.2, 0.45, 2.0)), 1e-3),
    ("soft_divergence_fd", lambda: soft_divergence_fd([(_normal(6, 8), 0.5)]), 1e-6),
    ("block_divergence_fd", lambda: block_divergence_fd([(_normal(7, 8), 2, 0.8)]), 1e-5),
    ("tv_objective_decrease", lambda: tv_objective_decrease([(_normal(8, 16), 1.0)]), 1e-12),
    ("dct_equivalence",
     lambda: dct_equivalence([(linops.gen_mask(32, 700, seed=10), _normal(9, 32))]), 1e-10),
    ("residual_support",
     lambda: residual_support(*_problem(16, 200, 11), solver.MixAmpConfig(*_SPECS, damping=0.3),
                              iters=10), 1e-15),
    ("onsager_ablation", lambda: onsager_ablation(*_problem(16, 200, 11), *_SPECS), 1e-12),
)
