"""First-order comparator: accelerated proximal gradient on the penalized
combined objectives.

variant="group" solves
    min (rho/2) ||Y - P{A (Xa+Xb) A^T}||_F^2 + lambda1 ||Xa||_1
        + lambda2 sum_blocks ||Xb_B||_F
and variant="tv" replaces the block sum with lambda2 ||Xb||_TV. With a
large penalty rho this is the standard surrogate for the epsilon-
constrained form the objectives are usually stated in.

The iteration is a monotone FISTA: the accelerated candidate is kept
only when it does not increase the objective, so the recorded objective
sequence never rises. A long streak of rejected candidates resets the
momentum; if plain descent steps keep failing afterwards the step size
is wrong and a SolverError is raised.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import denoise, linops, solver
from .exceptions import SolverError, check_block_side, check_choice, check_count, check_real

BASELINE_VARIANTS = ("group", "tv")

_ACCEPT_SLACK = 1e-10
_POWER_ITERS = 100
_POWER_SEED = 0
_RESTART_PATIENCE = 10


@dataclass
class BaselineConfig:
    lambda1: float
    lambda2: float
    rho: float = 1e4
    max_iters: int = 1000
    tol: float = 5e-4
    block_side: int = 4
    tv_inner_iters: int = 20

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "rho", "tol"):
            check_real(name, getattr(self, name), strict=True)
        for name in ("max_iters", "block_side", "tv_inner_iters"):
            check_count(name, getattr(self, name), 1)


def _regularizer(xb, cfg, variant):
    if variant == "group":
        blocks, _ = denoise._blocks_view(np.asarray(xb, dtype=float), cfg.block_side)
        return float(np.sqrt((blocks ** 2).sum(axis=(2, 3))).sum())
    return denoise.tv_norm(xb)


def objective_eval(xa, xb, op, y, cfg, variant):
    """Penalized objective F(Xa, Xb) for the selected variant.

    ``op`` is a linops.MeasurementOperator. Returns (F, R) with the data
    residual R = Y - P_Omega{A (Xa + Xb) A^T} that F was computed from.
    """
    check_choice("variant", variant, BASELINE_VARIANTS)
    resid = y - op.forward(np.asarray(xa, dtype=float) + np.asarray(xb, dtype=float))
    data = 0.5 * cfg.rho * float((resid ** 2).sum())
    value = data + cfg.lambda1 * float(np.abs(xa).sum()) + cfg.lambda2 * _regularizer(xb, cfg, variant)
    return value, resid


def estimate_lipschitz(op, cfg):
    """rho times the dominant eigenvalue of (Xa, Xb) -> M*M(Xa + Xb).

    ``op`` is a linops.MeasurementOperator. The value is padded by 2% so the
    1/L step never overshoots. An operator in the fast DCT form has an
    orthonormal matrix, so M*M = c^4 A^T P_Omega A is c^4 times an
    orthogonal projection (a mask is never empty) and the eigenvalue is
    2 c^4 in closed form. Every dense matrix is estimated by power iteration.
    """
    if op.fast:
        return cfg.rho * 2.0 * op.gain * op.gain * 1.02
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal((op.side, op.side))
    va = v / np.linalg.norm(v)
    vb = va.copy()
    lam_max = 0.0
    for _ in range(_POWER_ITERS):
        w = op.adjoint(op.forward(va + vb))
        lam_max = float(np.sqrt(2.0 * (w ** 2).sum()))
        if lam_max == 0.0:
            break
        va = w / lam_max
        vb = va
    return cfg.rho * lam_max * 1.02


def _prox_b(v, step_weight, cfg, variant, tv_state=None):
    """Prox of step_weight times the second regularizer at v; returns (u, state).

    For the tv variant tv_state is the split-Bregman state to start from
    (None: cold), and state is the one the solve ended in; the group
    variant returns state None.
    """
    if variant == "group":
        return denoise.block_soft_threshold(v, cfg.block_side, step_weight).estimate, None
    u, _, state = denoise._tv_bregman_estimate(np.asarray(v, dtype=float), 1.0 / step_weight,
                                               cfg.tv_inner_iters, tv_state)
    return u, state


def baseline_solve(a, y, mask, cfg, variant):
    """Monotone accelerated proximal gradient; returns (xa, xb, trace)."""
    check_choice("variant", variant, BASELINE_VARIANTS)
    if variant == "group":
        check_block_side(a.side, cfg.block_side)
    y = linops.masked_measurements(mask, y)
    op = linops.MeasurementOperator(a, mask)
    lip = estimate_lipschitz(op, cfg)
    if lip == 0.0:
        raise SolverError("composed operator is identically zero")

    side = a.side
    xa = np.zeros((side, side))
    xb = np.zeros((side, side))
    xa_prev, xb_prev = xa, xb
    za, zb = xa, xb
    t_k = 1.0
    # each TV prox starts where the previous one ended, the first one cold
    # (inexact proximal gradient with shrinking prox errors; lam, and so mu,
    # stays fixed)
    tv_state = None
    # rx is the residual of the accepted state (xa, xb); its norm goes
    # into each trace record without another forward product
    fx, rx = objective_eval(xa, xb, op, y, cfg, variant)
    trace = solver.IterationTrace()
    reject_streak = 0
    plain_failures = 0

    for it in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        grad = -cfg.rho * op.adjoint(y - op.forward(za + zb))
        cand_a = denoise.soft_threshold(za - grad / lip, cfg.lambda1 / lip)
        cand_b, tv_state = _prox_b(zb - grad / lip, cfg.lambda2 / lip, cfg, variant, tv_state)
        f_cand, r_cand = objective_eval(cand_a, cand_b, op, y, cfg, variant)

        restarted = t_k == 1.0 and it > 1
        accepted = f_cand <= fx + _ACCEPT_SLACK
        if accepted:
            xa_new, xb_new, f_new, r_new = cand_a, cand_b, f_cand, r_cand
            reject_streak = 0
            plain_failures = 0
        else:
            xa_new, xb_new, f_new, r_new = xa, xb, fx, rx
            reject_streak += 1
            if restarted:
                # a rejected step from a fresh restart is a plain proximal
                # gradient step; it cannot increase F unless L is too small
                plain_failures += 1
                if plain_failures >= _RESTART_PATIENCE:
                    raise SolverError(
                        f"objective kept increasing after restarts at iteration {it}"
                    )

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        if reject_streak >= _RESTART_PATIENCE:
            za, zb = xa_new, xb_new
            t_next = 1.0
            reject_streak = 0
        else:
            za = xa_new + (t_k / t_next) * (cand_a - xa_new) + ((t_k - 1.0) / t_next) * (xa_new - xa_prev)
            zb = xb_new + (t_k / t_next) * (cand_b - xb_new) + ((t_k - 1.0) / t_next) * (xb_new - xb_prev)

        tol_value = solver.stopping_tol((xa, xb), (xa_new, xb_new))
        resid_norm = float(np.linalg.norm(r_new))
        xa_prev, xb_prev = xa, xb
        xa, xb, fx, rx, t_k = xa_new, xb_new, f_new, r_new, t_next
        trace.append(
            solver.TraceRecord(
                t=it,
                theta=resid_norm * resid_norm / mask.m,
                tol_value=tol_value,
                residual_norm=resid_norm,
                wall_ms=(time.perf_counter() - tic) * 1e3,
                objective=fx,
            )
        )
        if accepted and tol_value <= cfg.tol:
            trace.converged = True
            break
    return xa, xb, trace
