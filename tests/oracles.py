"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force (numerical minimization,
subgradient descent, explicit loops) and shares no code path with the
library functions it checks. The references that `mixamp selfcheck` runs
as well (grid_prox_abs, fd_divergence and the kink and radius nudges)
live in mixamp.checks; this module holds the rest: numeric_prox_frobenius,
tv_norm_loops, subgrad_descent_tv, tv_bregman_reference and the straight_line_*
recomputations.
"""

import numpy as np
from scipy.optimize import minimize


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
    must reproduce bit for bit: same estimate, same convergence flag, same
    early exit.
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
        if progress <= 1e-12:
            break
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

