"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force (numerical minimization,
subgradient descent, explicit loops) and shares no code path with the
library functions it checks; reference_fista and reference_mixamp_step
name the pieces of the library they borrow. The references that `mixamp
selfcheck` runs as well (grid_prox_abs, fd_divergence, the kink and radius
nudges and the Kronecker model) live in mixamp.checks; this module holds
the rest: numeric_prox_frobenius, block_soft_threshold_loops,
tv_norm_loops, subgrad_descent_tv, tv_bregman_reference, the
straight_line_* recomputations, mc_divergence_mean, reference_mixamp_step
and reference_fista. It also holds the two helpers only the tests need:
identity_sensing and read_metrics_csv.
"""

import csv

import numpy as np
from scipy.optimize import minimize

from mixamp import baseline, denoise, linops, solver


def identity_sensing(side):
    """Identity matrix; measurements reduce to masked samples of X."""
    return linops.SensingMatrix(entries=np.eye(side))


def full_mask(side):
    """Mask with Omega equal to the whole grid."""
    return linops.SamplingMask(grid=np.ones((side, side), dtype=bool))


def read_metrics_csv(path):
    """The rows of a metrics CSV as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def numeric_prox_frobenius(block, thr):
    """Numerical argmin of ||U||_F + ||U - block||_F^2 / (2 thr)."""
    x = np.asarray(block, dtype=float).ravel()

    def objective(u):
        return np.sqrt((u ** 2).sum()) + ((u - x) ** 2).sum() / (2.0 * thr)

    best = None
    for start in (np.zeros_like(x), x.copy(), 0.5 * x):
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 20000})
        if best is None or res.fun < best.fun:
            best = res
    return best.x.reshape(np.asarray(block).shape), float(best.fun)


def block_soft_threshold_loops(x, block_side, thr):
    """Block soft thresholding tile by tile; returns (estimate, divergence, sum of tile norms)."""
    x = np.asarray(x, dtype=float)
    side = x.shape[0]
    est = np.zeros_like(x)
    div = norms = 0.0
    b = block_side * block_side
    for bi in range(0, side, block_side):
        for bj in range(0, side, block_side):
            tile = x[bi:bi + block_side, bj:bj + block_side]
            r = float(np.sqrt(sum(v * v for v in tile.ravel())))
            norms += r
            if r > thr:
                est[bi:bi + block_side, bj:bj + block_side] = tile * (1.0 - thr / r)
                div += b * (1.0 - thr / r) + thr / r
    return est, div / x.size, norms


def mc_divergence_mean(eta, x, probe_seed, eps, n_probes):
    """The Monte-Carlo divergence of denoise.mc_divergence averaged over
    n_probes Rademacher probes drawn in turn from one generator."""
    x = np.asarray(x, dtype=float)
    base = eta(x)
    rng = np.random.default_rng(probe_seed)
    total = 0.0
    for _ in range(n_probes):
        b = rng.choice((-1.0, 1.0), size=x.shape)
        total += float((b * (eta(x + eps * b) - base)).sum() / (eps * x.size))
    return total / n_probes


def tv_norm_loops(x):
    """Anisotropic TV by explicit double loops."""
    x = np.asarray(x, dtype=float)
    n, m = x.shape
    total = 0.0
    for i in range(n):
        for j in range(m - 1):
            total += abs(x[i, j + 1] - x[i, j])
    for i in range(n - 1):
        for j in range(m):
            total += abs(x[i + 1, j] - x[i, j])
    return total


def tv_objective_loops(u, x, lam):
    return tv_norm_loops(u) + 0.5 * lam * float(((np.asarray(u) - np.asarray(x)) ** 2).sum())


def subgrad_descent_tv(x, lam, iters=3000, restarts=20, seed=0):
    """Multi-restart subgradient descent on the TV denoising objective.

    Returns the best objective value found; a diminishing-step subgradient
    method applied independently of the split-Bregman implementation.
    """
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    best_val = np.inf
    for restart in range(restarts):
        u = x.copy() if restart == 0 else x + 0.3 * rng.standard_normal(x.shape)
        for k in range(1, iters + 1):
            gh = np.sign(u[:, 1:] - u[:, :-1])
            gv = np.sign(u[1:, :] - u[:-1, :])
            grad = lam * (u - x)
            grad[:, :-1] -= gh
            grad[:, 1:] += gh
            grad[:-1, :] -= gv
            grad[1:, :] += gv
            u = u - (0.5 / (lam * np.sqrt(k))) * grad
            val = tv_objective_loops(u, x, lam)
            if val < best_val:
                best_val = val
    return best_val


def _ref_dh(u):
    return u[:, 1:] - u[:, :-1]


def _ref_dv(u):
    return u[1:, :] - u[:-1, :]


def _ref_dh_t(v):
    out = np.zeros((v.shape[0], v.shape[1] + 1))
    out[:, :-1] -= v
    out[:, 1:] += v
    return out


def _ref_dv_t(v):
    out = np.zeros((v.shape[0] + 1, v.shape[1]))
    out[:-1, :] -= v
    out[1:, :] += v
    return out


def tv_bregman_reference(x, lam, iters):
    """Split-Bregman TV denoising on the plain 2D grid; returns (u, converged).

    The straightforward implementation with boolean colour masks, mu = 2 lam
    and two sweeps, which the flat padded kernel denoise._tv_bregman_estimate
    must reproduce bit for bit: same estimate and same convergence flag.
    Progress is formed after every iteration here; the flag reads the last.
    """
    side = x.shape[0]
    mu = 2.0 * lam
    deg = np.zeros((side, side))
    deg[:, :-1] += 1.0
    deg[:, 1:] += 1.0
    deg[:-1, :] += 1.0
    deg[1:, :] += 1.0
    denom = lam + mu * deg
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    colors = ((ii + jj) % 2 == 0, (ii + jj) % 2 == 1)

    u = x.copy()
    dxh, dxv = _ref_dh(x), _ref_dv(x)
    bh = np.zeros_like(dxh)
    bv = np.zeros_like(dxv)
    progress = np.inf
    for _ in range(iters):
        u_prev = u.copy()
        rhs = lam * x + mu * (_ref_dh_t(dxh - bh) + _ref_dv_t(dxv - bv))
        for _ in range(2):
            # red-black Gauss-Seidel on (lam I + mu L) u = rhs
            for color in colors:
                nb = np.zeros_like(u)
                nb[:, 1:] += u[:, :-1]
                nb[:, :-1] += u[:, 1:]
                nb[1:, :] += u[:-1, :]
                nb[:-1, :] += u[1:, :]
                u[color] = ((rhs + mu * nb) / denom)[color]
        gh, gv = _ref_dh(u), _ref_dv(u)
        shrink = 1.0 / mu
        dxh = np.sign(gh + bh) * np.maximum(np.abs(gh + bh) - shrink, 0.0)
        dxv = np.sign(gv + bv) * np.maximum(np.abs(gv + bv) - shrink, 0.0)
        bh = bh + gh - dxh
        bv = bv + gv - dxv
        # progress = iterate motion plus the primal residual of the split
        # constraint d = Du, both relative to the iterate scale
        scale = max(float(np.linalg.norm(u)), 1e-30)
        split = np.sqrt(((gh - dxh) ** 2).sum() + ((gv - dxv) ** 2).sum())
        progress = (float(np.linalg.norm(u - u_prev)) + float(split)) / scale
    return u, progress <= 1e-4


def straight_line_objective(xa, xb, a_entries, y, mask_grid, rho, lam1, lam2,
                            variant, block_side=None):
    """Second, independent computation of the penalized baseline objective."""
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    pred = a_entries @ (xa + xb) @ a_entries.T
    pred = pred * mask_grid
    data = 0.0
    n = xa.shape[0]
    for i in range(n):
        for j in range(n):
            data += (y[i, j] - pred[i, j]) ** 2
    total = 0.5 * rho * data + lam1 * float(np.abs(xa).sum())
    if variant == "group":
        reg = 0.0
        for bi in range(0, n, block_side):
            for bj in range(0, n, block_side):
                reg += np.sqrt((xb[bi:bi + block_side, bj:bj + block_side] ** 2).sum())
        total += lam2 * reg
    else:
        total += lam2 * tv_norm_loops(xb)
    return total


def straight_line_psnr(reference, estimate):
    """PSNR recomputed with explicit loops."""
    ref = np.asarray(reference, dtype=float)
    est = np.asarray(estimate, dtype=float)
    err = 0.0
    peak = 0.0
    for i in range(ref.shape[0]):
        for j in range(ref.shape[1]):
            err += (ref[i, j] - est[i, j]) ** 2
            peak = max(peak, abs(ref[i, j]))
    mse = err / ref.size
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def reference_mixamp_step(state, op, y, cfg, step=1.0):
    """One mixamp iteration at the given step written as its plain formulas,
    every array fresh.

    Takes the denoisers from mixamp.solver.apply_denoiser, so it differs from
    solver.mixamp_step only in how the step's own arithmetic is laid out in
    memory; the two must agree bit for bit.
    """
    n, m = op.side * op.side, op.mask.m
    probe_seed = 2 * state.t
    with np.errstate(over="ignore", invalid="ignore"):
        z = op.adjoint(state.r)
        out_a = solver.apply_denoiser(cfg.denoiser_a, z + state.xa, state.theta, probe_seed,
                                      state.tv_a)
        out_b = solver.apply_denoiser(cfg.denoiser_b, z + state.xb, state.theta, probe_seed + 1,
                                      state.tv_b)
        beta = step
        xa_new = out_a.estimate if beta == 1.0 else (1.0 - beta) * state.xa + beta * out_a.estimate
        xb_new = out_b.estimate if beta == 1.0 else (1.0 - beta) * state.xb + beta * out_b.estimate
        onsager = (n / m) * (out_a.divergence_avg + out_b.divergence_avg)
        r_new = y - op.forward(xa_new + xb_new) + onsager * state.r
        if beta != 1.0:
            r_new = (1.0 - beta) * state.r + beta * r_new
        theta_new = float((r_new ** 2).sum() / m)
    return solver.MixAmpState(xa=xa_new, xb=xb_new, r=r_new, theta=theta_new, t=state.t + 1,
                              tv_a=out_a.tv_state, tv_b=out_b.tv_state)


def reference_fista(a, y, mask, cfg, variant):
    """Straight-line monotone FISTA that recomputes the residual of the
    extrapolated point by a forward product at every iteration, restarts its
    momentum at every rejected candidate and never gives up.

    Takes the objective, the step and the two proxes from mixamp.baseline,
    so it differs from baseline_solve only in how that residual is formed.
    Returns (xa, xb, objectives, accepted), one entry per iteration.
    """
    y = linops.mask_apply(mask, y)
    op = linops.MeasurementOperator(a, mask)
    lip = baseline.estimate_lipschitz(op, cfg)
    xa = xb = xa_prev = xb_prev = za = zb = np.zeros((a.side, a.side))
    fx, _ = baseline.objective_eval(xa, xb, op, y, cfg, variant)
    t_k, tv_state = 1.0, None
    objectives, accepted = [], []
    for _ in range(cfg.max_iters):
        grad = -cfg.rho * op.adjoint(y - op.forward(za + zb))
        cand_a = denoise.soft_threshold(za - grad / lip, cfg.lambda1 / lip)
        cand_b, tv_state = baseline._prox_b(zb - grad / lip, cfg.lambda2 / lip, cfg, variant,
                                            tv_state)
        f_cand, _ = baseline.objective_eval(cand_a, cand_b, op, y, cfg, variant)
        keep = f_cand <= fx + baseline._ACCEPT_SLACK
        xa_new, xb_new, f_new = (cand_a, cand_b, f_cand) if keep else (xa, xb, fx)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        if not keep:  # restart the momentum: the next step is plain
            za, zb, t_next = xa_new, xb_new, 1.0
        else:
            za = xa_new + (t_k / t_next) * (cand_a - xa_new) + ((t_k - 1.0) / t_next) * (xa_new - xa_prev)
            zb = xb_new + (t_k / t_next) * (cand_b - xb_new) + ((t_k - 1.0) / t_next) * (xb_new - xb_prev)
        tol_value = solver.stopping_tol((xa, xb), (xa_new, xb_new))
        xa_prev, xb_prev = xa, xb
        xa, xb, fx, t_k = xa_new, xb_new, f_new, t_next
        objectives.append(fx)
        accepted.append(keep)
        if keep and tol_value <= cfg.tol:
            break
    return xa, xb, objectives, accepted
