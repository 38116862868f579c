"""Dual-denoiser approximate message passing for 2D sparse separation.

One iteration denoises the shared pseudo-data A^T R A added to each
component estimate, then rebuilds the residual from the measurement
misfit plus two correction terms (N/M) <eta'> R that keep the effective
noise in the pseudo-data decorrelated across iterations:

    Xa <- eta_a(A^T R A + Xa; thr(theta))
    Xb <- eta_b(A^T R A + Xb; thr(theta))
    R  <- Y - P_Omega{A (Xa + Xb) A^T} + (N/M) (<eta_a'> + <eta_b'>) R
    theta <- ||R||_F^2 / M

Iteration stops when the relative change of the estimate pair drops
below the configured tolerance.

A TV denoiser's <eta'> is a Monte-Carlo probe that costs a second full
TV solve, so it is refreshed every second step: the TV solve state
carried from step to step holds the last probe value, and the step
after a probe reuses it (see denoise.tv_denoise_bregman). A back-off
returns to a state of the accepted path, so a reused value never comes
from a discarded step.

Each run starts undamped (step 1.0) and backs off when theta blows up.
mixamp_step returns whatever it computed and mixamp_run alone judges it,
by one test that a NaN theta fails too: a step whose theta is non-finite
or exceeds BLOWUP_FACTOR * theta_0 is discarded, the run returns to its
lowest-theta state so far and multiplies its step by BACKOFF, never
below the configured damping, which is the most damped step a run may
fall back to. A blow-up at that floor raises SolverDivergenceError, the
one give-up error of both solvers (baseline.baseline_solve raises it
too, with its partial trace). theta_0 = ||Y||_F^2 / M is the
residual of the zero estimate, so a bound on it means "no worse than
estimating nothing". A bound on the running minimum of theta would not
do: near exact recovery theta falls by orders of magnitude and can then
jump hundreds of times above its minimum in a run that converges.
"""

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import denoise, linops
from .exceptions import (DimensionError, DomainError, SolverDivergenceError,
                         check_block_side, check_count, check_grid, check_real)

TRACE_COLUMNS = ("t", "theta", "tol", "residual_norm", "wall_ms")
# A step is a blow-up when its theta exceeds this multiple of theta_0.
BLOWUP_FACTOR = 2.0
# Factor on the step after each blow-up.
BACKOFF = 0.7


@dataclass
class MixAmpConfig:
    """Solver configuration: one DenoiserSpec per mixture component.

    damping is the floor of the step: mixamp_run starts each run at 1.0
    and backs off towards it whenever theta exceeds BLOWUP_FACTOR times
    theta_0, the theta of the zero estimate (not of the running minimum,
    which converging runs leave far behind near exact recovery); a
    blow-up at the floor is a divergence. 1.0 therefore runs undamped
    and fails on the first blow-up. mixamp_step applies damping as given.
    """

    denoiser_a: denoise.DenoiserSpec
    denoiser_b: denoise.DenoiserSpec
    max_iters: int = 500
    tol: float = 5e-4
    damping: float = 1.0

    def __post_init__(self):
        check_count("max_iters", self.max_iters, 1)
        check_real("tol", self.tol, strict=True)
        check_real("damping", self.damping, strict=True)
        if self.damping > 1.0:
            raise DomainError("damping must lie in (0, 1]")


@dataclass
class MixAmpState:
    """Full per-iteration state: estimates, masked residual, theta, counter.

    tv_a and tv_b hold the TV solve state of a tv_bregman component, from
    which its next denoising starts; None starts it cold.
    """

    xa: np.ndarray
    xb: np.ndarray
    r: np.ndarray
    theta: float
    t: int = 0
    tv_a: denoise.TvState | None = None
    tv_b: denoise.TvState | None = None


@dataclass
class TraceRecord:
    t: int
    theta: float
    tol_value: float
    residual_norm: float
    wall_ms: float
    objective: float | None = None  # baseline only; not part of the CSV schema


@dataclass
class IterationTrace:
    """One record per completed iteration, serializable to CSV.

    converged is set when the solver's stopping rule ended the run, and
    stays False for a run that reached max_iters. steps counts every step
    the solver ran, a discarded mixamp step or a rejected baseline
    candidate included, so it is comparable across solvers where the
    record count is not. A mixamp run also records the step it ended with
    (damping_final) and how many times it backed off; a baseline run
    records the padded step constant L it used (lipschitz). None of them
    is part of the CSV schema.
    """

    records: list = field(default_factory=list)
    converged: bool = False
    steps: int = 0
    damping_final: float | None = None
    backoffs: int = 0
    lipschitz: float | None = None

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    @property
    def last(self):
        return self.records[-1] if self.records else None

    def to_csv(self, path, record_timing=True):
        """Write rows t, theta, tol, residual_norm, wall_ms; wall_ms is 0 without record_timing."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TRACE_COLUMNS)
            for rec in self.records:
                wall = rec.wall_ms if record_timing else 0.0
                writer.writerow(
                    [rec.t, repr(rec.theta), repr(rec.tol_value), repr(rec.residual_norm), f"{wall:.3f}"]
                )


def mixamp_init(y, mask):
    """Initial state: Xa = Xb = 0, R = Y, theta = ||Y||_F^2 / M."""
    y = linops.mask_apply(mask, y)
    theta = float((y ** 2).sum() / mask.m)
    zero = np.zeros_like(y)
    return MixAmpState(xa=zero.copy(), xb=zero.copy(), r=y.copy(), theta=theta, t=0)


def apply_denoiser(spec, x, theta, probe_seed=0, tv_state=None):
    """Evaluate a configured denoiser at threshold scale derived from theta.

    The block denoiser compares thresholds against per-block Frobenius
    norms, whose noise floor is sqrt(B * theta) rather than sqrt(theta),
    so its threshold carries an extra sqrt(B) = block_side factor.
    probe_seed seeds the divergence probe and tv_state is the TV solve
    state to start from (tv_bregman only).
    """
    thr = denoise.threshold_from_theta(theta, spec.tau)
    if spec.kind == "soft":
        return denoise.DenoiseOutput(
            estimate=denoise.soft_threshold(x, thr),
            divergence_avg=denoise.soft_threshold_div(x, thr),
        )
    if spec.kind == "block_soft":
        return denoise.block_soft_threshold(x, spec.block_side, thr * spec.block_side)
    # tv_bregman: the prox weight is the reciprocal threshold; a vanishing
    # threshold means no denoising at all, and leaves no state to carry on
    if thr < denoise._TV_IDENTITY_THR:
        return denoise.DenoiseOutput(estimate=np.asarray(x, dtype=float).copy(), divergence_avg=1.0)
    return denoise.tv_denoise_bregman(x, 1.0 / thr, tv_state, probe_seed)


def mixamp_step(state, op, y, cfg):
    """One Algorithm-1 iteration; returns a new state, inputs untouched.

    ``op`` is the linops.MeasurementOperator of the run; ``y`` holds the
    measurements at its scale. A TV denoiser starts from the solve state
    it left in ``state`` and hands its new one on in the returned state.
    The state is returned as computed, even with a non-finite theta:
    mixamp_run, not the step, judges it.
    """
    side = op.side
    check_grid(state.r, side, "state residual")
    check_grid(y, side, "measurements")
    n = side * side
    m = op.mask.m
    probe_seed = 2 * state.t  # component a probes with 2t, component b with 2t + 1

    # Arithmetic in place runs only on arrays this call made: the adjoint and
    # forward outputs, the denoised estimates, and the pseudo-data of
    # component a, which is scratch once denoised. Each value is formed in
    # the order of operations of the plain formulas, so it is the same to
    # the bit. Overflow here is how divergence manifests; it shows in theta.
    with np.errstate(over="ignore", invalid="ignore"):
        z = op.adjoint(state.r)
        va = z + state.xa
        z += state.xb
        out_a = apply_denoiser(cfg.denoiser_a, va, state.theta, probe_seed, state.tv_a)
        out_b = apply_denoiser(cfg.denoiser_b, z, state.theta, probe_seed + 1, state.tv_b)
        scratch = va

        beta = cfg.damping
        xa_new = _blend(out_a.estimate, state.xa, beta, scratch)
        xb_new = _blend(out_b.estimate, state.xb, beta, scratch)

        onsager = (n / m) * (out_a.divergence_avg + out_b.divergence_avg)
        r_new = op.forward(np.add(xa_new, xb_new, out=scratch))
        np.subtract(y, r_new, out=r_new)
        r_new += np.multiply(onsager, state.r, out=scratch)
        r_new = _blend(r_new, state.r, beta, scratch)

        theta_new = float(np.square(r_new, out=scratch).sum() / m)  # (r ** 2).sum() / m
    return MixAmpState(xa=xa_new, xb=xb_new, r=r_new, theta=theta_new, t=state.t + 1,
                       tv_a=out_a.tv_state, tv_b=out_b.tv_state)


def _blend(new, old, beta, scratch):
    """The damped update (1 - beta) * old + beta * new, formed in ``new``."""
    if beta != 1.0:
        new *= beta
        new += np.multiply(1.0 - beta, old, out=scratch)
    return new


def stopping_tol(prev, cur):
    """Relative change of the estimate pair between consecutive iterations.

    sqrt(||dXa||_F^2 + ||dXb||_F^2) / sqrt(||Xa||_F^2 + ||Xb||_F^2),
    with 0/0 -> 0 and positive/0 -> inf.
    """
    pa, pb = prev
    ca, cb = cur
    if not pa.shape == ca.shape == pb.shape == cb.shape:
        raise DimensionError("estimates must all have the same shape")
    # one buffer holds each difference and square in turn (np.square(u) is
    # u ** 2 to the bit); at side 256 a buffer per component, two 512 KB
    # temporaries alive at once, made the call twice as slow in page faults
    buf = np.subtract(pa, ca, dtype=float)

    def sum_sq(u):
        return np.square(u, out=buf).sum()

    num = np.sqrt(sum_sq(buf) + sum_sq(np.subtract(pb, cb, out=buf)))
    den = np.sqrt(sum_sq(ca) + sum_sq(cb))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(num / den)


def normalize_problem(a, y, mask):
    """Rescale (A, Y) so the composed masked operator has unit column gain.

    With A scaled by c, Y scales by c^2 and the estimated signals are
    unchanged, so this is an exact reparameterization. It restores the
    threshold/correction calibration that the iteration assumes, which the
    raw N(0, 1/M) normalization does not provide for the two-sided product.
    Returns (c^2 Y, c); a solver passes the unscaled matrix and c to
    linops.MeasurementOperator, which applies the scale.
    """
    q = float(np.mean((a.entries ** 2).sum(axis=0)))
    n = a.side * a.side
    c = (n / mask.m) ** 0.25 / np.sqrt(q)
    return (c * c) * y, c


def mixamp_run(a, y, mask, cfg):
    """Iterate mixamp_step until the stopping rule or max_iters.

    Returns (xa, xb, trace). Before any work, a block side that does not
    divide the grid side raises DimensionError, a non-finite sampled
    measurement DomainError, and a measurement map that is identically
    zero DegenerateProblemError (from linops.MeasurementOperator). The
    step starts at 1.0 and backs off on each blow-up (see the module
    docstring); discarded steps count toward max_iters, and the trace
    holds the accepted path only. A blow-up at the damping floor raises
    SolverDivergenceError naming the step that blew up, one past the last
    traced iteration, with the partial trace.
    """
    for spec in (cfg.denoiser_a, cfg.denoiser_b):
        if spec.kind == "block_soft":
            check_block_side(a.side, spec.block_side)
    y, scale = normalize_problem(a, linops.masked_measurements(mask, y), mask)
    op = linops.MeasurementOperator(a, mask, scale)

    state = best = mixamp_init(y, mask)
    limit = BLOWUP_FACTOR * state.theta
    step_cfg = replace(cfg, damping=1.0)
    trace = IterationTrace(damping_final=step_cfg.damping)
    for _ in range(cfg.max_iters):
        tic = time.perf_counter()
        new_state = mixamp_step(state, op, y, step_cfg)
        wall_ms = (time.perf_counter() - tic) * 1e3
        trace.steps += 1
        if not new_state.theta <= limit:  # a NaN theta fails the test too
            if step_cfg.damping <= cfg.damping:
                raise SolverDivergenceError(
                    f"theta blew up at damping {step_cfg.damping:g} after iteration {state.t}",
                    iteration=state.t + 1, trace=trace,
                )
            step_cfg = replace(step_cfg, damping=max(BACKOFF * step_cfg.damping, cfg.damping))
            trace.damping_final = step_cfg.damping
            trace.backoffs += 1
            state = best
            del trace.records[state.t:]
            continue
        tol_value = stopping_tol((state.xa, state.xb), (new_state.xa, new_state.xb))
        state = new_state
        if state.theta < best.theta:
            best = state
        trace.append(
            TraceRecord(
                t=state.t,
                theta=state.theta,
                tol_value=tol_value,
                residual_norm=float(np.sqrt(mask.m * state.theta)),  # theta = ||r||^2 / m
                wall_ms=wall_ms,
            )
        )
        if tol_value <= cfg.tol:
            trace.converged = True
            break
    return state.xa, state.xb, trace
