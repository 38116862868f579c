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
sequence never rises. One count, of candidates rejected in a row (reset
by an accept), drives both remedies. Every _RESTART_PATIENCE-th rejection
in a row resets the momentum, so the step after it is a plain proximal
gradient step, which cannot increase the objective unless the step size
1/L is wrong. The count passes _RESTART_PATIENCE ** 2 when the
_RESTART_PATIENCE-th such plain step in a row fails, and that raises
SolverDivergenceError with the partial trace, the give-up error of mixamp
too. A measurement map that is identically zero never reaches the solve:
linops.MeasurementOperator rejects it.

Each iteration applies the measurement map once each way: the adjoint
for the gradient and the forward product for the candidate's objective.
The residual is linear in the iterate, so the residual of the
extrapolated point is the same combination of the residuals of the
candidate, the state and the previous state, each from its own direct
product, as the point is of them (the product bookkeeping of TFOCS,
Becker, Candes & Grant 2011). A rejected candidate leaves the state and
its residual as they were, so its trace record reuses them.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import denoise, linops, solver
from .exceptions import SolverDivergenceError, check_block_side, check_choice, check_count, check_real

BASELINE_VARIANTS = ("group", "tv")

_ACCEPT_SLACK = 1e-10
_LANCZOS_MAX_STEPS = 100
_LANCZOS_RTOL = 1e-9
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

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "rho", "tol"):
            check_real(name, getattr(self, name), strict=True)
        for name in ("max_iters", "block_side"):
            check_count(name, getattr(self, name), 1)


def _regularizer(xb, cfg, variant):
    if variant == "group":
        return float(denoise._block_norms(np.asarray(xb, dtype=float), cfg.block_side).sum())
    return denoise.tv_norm(xb)


def objective_eval(xa, xb, op, y, cfg, variant):
    """Penalized objective F(Xa, Xb) for the selected variant.

    ``op`` is a linops.MeasurementOperator. Returns (F, R) with the data
    residual R = Y - P_Omega{A (Xa + Xb) A^T} that F was computed from.
    """
    check_choice("variant", variant, BASELINE_VARIANTS)
    resid = op.forward(np.asarray(xa, dtype=float) + np.asarray(xb, dtype=float))
    np.subtract(y, resid, out=resid)
    data = 0.5 * cfg.rho * float((resid ** 2).sum())
    value = data + cfg.lambda1 * float(np.abs(xa).sum()) + cfg.lambda2 * _regularizer(xb, cfg, variant)
    return value, resid


def estimate_lipschitz(op, cfg):
    """rho times the dominant eigenvalue of M*M, M: (Xa, Xb) -> P_Omega{(cA)(Xa + Xb)(cA)^T}.

    ``op`` is a linops.MeasurementOperator. The value is padded by 2% so the
    1/L step never overshoots. An operator in the fast DCT form has an
    orthonormal matrix, so M*M = c^4 A^T P_Omega A is c^4 times an
    orthogonal projection (a mask is never empty) and the eigenvalue is
    2 c^4 in closed form. For a dense matrix, M M* = 2 P_Omega{G . G} with
    G = (cA)(cA)^T has the same dominant eigenvalue, and a Lanczos
    recurrence on op.gram_map() finds it at one dense product per step.
    The recurrence runs at most _LANCZOS_MAX_STEPS steps, without
    reorthogonalisation, and stops when the top Ritz value moves by at most
    _LANCZOS_RTOL relative or when beta vanishes next to it (an invariant
    subspace: an orthonormal matrix stops after one step). The operator is
    never the zero map, which MeasurementOperator rejects.
    """
    if op.fast:
        return cfg.rho * 2.0 * op.gain * op.gain * 1.02
    gram = op.gram_map()
    rng = np.random.default_rng(_POWER_SEED)
    v = linops.mask_apply(op.mask, rng.standard_normal((op.side, op.side)))
    v /= np.linalg.norm(v)
    v_prev, beta, alphas, betas, top = 0.0, 0.0, [], [], 0.0
    for _ in range(_LANCZOS_MAX_STEPS):
        w = gram(v)
        alphas.append(float((w * v).sum()))
        w -= alphas[-1] * v
        w -= beta * v_prev
        beta = float(np.linalg.norm(w))
        if not np.isfinite(beta):  # a product overflowed or met a NaN; eigvalsh takes neither
            return float("nan")
        tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        last, top = top, float(np.linalg.eigvalsh(tridiagonal)[-1])
        if abs(top - last) <= _LANCZOS_RTOL * top or beta <= 1e-12 * top:
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    return cfg.rho * 2.0 * top * 1.02


def _prox_b(v, step_weight, cfg, variant, tv_state=None):
    """Prox of step_weight times the second regularizer at v; returns (u, state).

    For the tv variant tv_state is the split-Bregman state to start from
    (None: cold), and state is the one the solve ended in; the group
    variant returns state None.
    """
    if variant == "group":
        return denoise.block_soft_threshold(v, cfg.block_side, step_weight).estimate, None
    u, _, state = denoise._tv_bregman_estimate(np.asarray(v, dtype=float), 1.0 / step_weight,
                                               denoise._TV_INNER_ITERS, tv_state)
    return u, state


def _extrapolate(new, cand, prev, alpha, beta):
    """FISTA's extrapolated point new + alpha (cand - new) + beta (new - prev),
    built in two fresh arrays in that order of operations."""
    out = cand - new
    out *= alpha
    out += new
    push = new - prev
    push *= beta
    out += push
    return out


def baseline_solve(a, y, mask, cfg, variant):
    """Monotone accelerated proximal gradient; returns (xa, xb, trace).

    Runs at most cfg.max_iters iterations, like mixamp_run, and sets
    trace.converged when an accepted step meets cfg.tol. Gives up with
    SolverDivergenceError, naming the iteration and carrying the partial
    trace (see the module docstring).
    """
    check_choice("variant", variant, BASELINE_VARIANTS)
    if variant == "group":
        check_block_side(a.side, cfg.block_side)
    y = linops.masked_measurements(mask, y)
    op = linops.MeasurementOperator(a, mask)
    lip = estimate_lipschitz(op, cfg)

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
    # rx, r_prev and rz are the residuals of the accepted state (xa, xb), of
    # (xa_prev, xb_prev) and of the extrapolated point (za, zb). rx and r_prev
    # come from direct products; rz combines them as (za, zb) combines the
    # states, so the gradient costs one adjoint and no forward product
    fx, rx = objective_eval(xa, xb, op, y, cfg, variant)
    r_prev = rz = rx
    resid_norm = float(np.linalg.norm(rx))
    trace = solver.IterationTrace(lipschitz=lip)
    rejections = 0  # candidates rejected in a row

    for it in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        step = op.adjoint(rz)  # the 1/L gradient step is -rho A*(rz) / L
        step *= -cfg.rho
        step /= lip
        cand_a = denoise.soft_threshold(za - step, cfg.lambda1 / lip)
        cand_b, tv_state = _prox_b(np.subtract(zb, step, out=step), cfg.lambda2 / lip, cfg,
                                   variant, tv_state)
        f_cand, r_cand = objective_eval(cand_a, cand_b, op, y, cfg, variant)
        trace.steps += 1

        accepted = f_cand <= fx + _ACCEPT_SLACK
        if accepted:
            xa_new, xb_new, f_new, r_new = cand_a, cand_b, f_cand, r_cand
            tol_value = solver.stopping_tol((xa, xb), (xa_new, xb_new))
            resid_norm = float(np.linalg.norm(r_new))
            rejections = 0
        else:
            # the state, and so its residual norm, stays as it was
            xa_new, xb_new, f_new, r_new = xa, xb, fx, rx
            tol_value = 0.0
            rejections += 1
            if rejections > _RESTART_PATIENCE ** 2:
                msg = f"objective kept increasing after restarts at iteration {it}"
                raise SolverDivergenceError(msg, iteration=it, trace=trace)

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        if rejections and rejections % _RESTART_PATIENCE == 0:
            za, zb, rz = xa_new, xb_new, r_new
            t_next = 1.0
        else:
            alpha, beta = t_k / t_next, (t_k - 1.0) / t_next
            za = _extrapolate(xa_new, cand_a, xa_prev, alpha, beta)
            zb = _extrapolate(xb_new, cand_b, xb_prev, alpha, beta)
            rz = _extrapolate(r_new, r_cand, r_prev, alpha, beta)

        xa_prev, xb_prev, r_prev = xa, xb, rx
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
