"""The benchmark's workloads: how problems are made, solved and checked.

Each workload is a fixed list of separation problems generated from the run
seed. Problem i of seed s uses the problem seed s * 1000 + i, so two seeds
never share a problem. Why each workload was chosen is in README.md.
"""

import dataclasses
import math

import numpy as np

from mixamp import baseline, cli, data, denoise, linops, solver
from mixamp.exceptions import MixAmpError

# Acceptance criterion 6 (group case) and 7 (TV case), with both solvers.
GROUP_PARAMS = {
    "case": "group", "side": 64, "sampling": 0.7, "sparsity": 0.05, "block": 4,
    "active_fraction": 0.25, "image": None, "seed": 0, "solver": "both",
    "max_iters": 500, "tol": 5e-4, "tau_a": 1.5, "tau_b": 1.0, "damping": 0.3,
    "lambda1": 0.5, "lambda2": 1.2, "rho": 1e4, "disjoint": False,
    "record_timing": True,
}
TV_PARAMS = dict(GROUP_PARAMS, case="tv", sampling=0.5, sparsity=0.10,
                 tau_a=2.0, tau_b=1.0, lambda1=2.0, lambda2=1.4)

SOLVERS = ("mixamp", "baseline")

# A uniform mask at M/N 0.7 samples the DCT's DC coefficient with probability
# 0.7, and whether it does splits undamped mixamp into two modes (26 against
# 51-86 iterations at side 256). Every block of ten dct problems therefore has
# exactly seven masks that sample it, so the mix, and with it the median solve
# time, does not depend on the seed.
DC_SHARE = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    side: int
    problems: int  # distinct problems in the list
    traced: int  # problems solved again under the full trace (trace runs)
    floors: dict  # solver -> lowest psnr_b in dB that counts as a solve
    params: dict | None  # run_separation parameters; None: library API path


WORKLOADS = {
    w.name: w for w in (
        # A zero estimate scores 6.0 dB on the group phantom. Converged solves
        # spread widely at this side: mixamp reached 8.8 dB on one problem in
        # about 5,000 (the baseline 10.1 dB on it), so the floor stays under that.
        Workload("group-64", 64, 72, 24, {"mixamp": 7.0, "baseline": 7.0},
                 dict(GROUP_PARAMS, side=64)),
        # The baseline's lambda and rho do not scale with side: at 256 it
        # reaches about 6.3 dB, near the 6.0 dB of a zero estimate.
        Workload("group-256", 256, 8, 3, {"mixamp": 10.0, "baseline": 5.0},
                 dict(GROUP_PARAMS, side=256)),
        Workload("tv-64", 64, 8, 3, {"mixamp": 15.0, "baseline": 15.0},
                 dict(TV_PARAMS, side=64)),
        # The baseline stops after 5 iterations on this operator (7.9-9.5 dB).
        Workload("dct-256", 256, 20, 5, {"mixamp": 18.0, "baseline": 6.5}, None),
    )
}

# Sides and list lengths of the self-test: no floors, since quality at these
# sizes says nothing; the other checks still apply.
TINY = {"group-64": (16, 3, 2), "group-256": (32, 2, 1), "tv-64": (16, 2, 1),
        "dct-256": (32, 3, 1)}


def tiny(w):
    side, problems, traced = TINY[w.name]
    params = None if w.params is None else dict(w.params, side=side)
    return dataclasses.replace(w, side=side, problems=problems, traced=traced,
                               floors=dict.fromkeys(SOLVERS, -math.inf), params=params)


@dataclasses.dataclass
class Problem:
    index: int
    seed: int
    a: object
    mask: object
    xa: np.ndarray
    xb: np.ndarray
    y: np.ndarray
    params: dict | None


def _dct_mask(side, m, seed, want_dc):
    """First mask of the seed's stream whose DC membership is want_dc."""
    for draw in range(1000):
        mask = linops.gen_mask(side, m, seed=seed * 101 + 31 + 7919 * draw)
        if bool(mask.grid[0, 0]) == want_dc:
            return mask
    raise RuntimeError(f"no mask with DC sampled={want_dc} for seed {seed}")


def _dct_problem(side, seed, want_dc):
    m = int(round(0.7 * side * side))
    spec_a = data.PhantomSpec(kind="shot_noise", side=side, sparsity=0.05, seed=seed * 101 + 11)
    spec_b = data.PhantomSpec(kind="group_sparse", side=side, block_side=4,
                              active_fraction=0.25, seed=seed * 101 + 52)
    xa, xb = data.make_mixture(spec_a, spec_b)
    a = linops.dct_sensing(side)
    mask = _dct_mask(side, m, seed, want_dc)
    return a, mask, xa, xb, linops.forward(a, xa + xb, mask)


def build(w, seed):
    """The workload's problem list for a run seed."""
    problems = []
    for i in range(w.problems):
        pseed = seed * 1000 + i
        if w.params is None:
            a, mask, xa, xb, y = _dct_problem(w.side, pseed, i % 10 < DC_SHARE)
            params = None
        else:
            params = dict(w.params, seed=pseed)
            a, mask, xa, xb, y = cli.build_problem(params)
        problems.append(Problem(i, pseed, a, mask, xa, xb, y, params))
    return problems


# Undamped: orthonormal DCT sensing needs no damping.
DCT_CONFIG = solver.MixAmpConfig(
    denoiser_a=denoise.DenoiserSpec(kind="soft", tau=1.5),
    denoiser_b=denoise.DenoiserSpec(kind="block_soft", block_side=4, tau=1.0),
    damping=1.0,
)
DCT_BASELINE = baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, rho=1e4, max_iters=1000,
                                       tol=5e-4, block_side=4)


def solve(w, problem, out_dir):
    """Run every solver of the workload on one problem.

    Returns (exit_code, rows) of run_separation on the CLI path, and
    (0, None) on the library path, where a failing solver is skipped.
    """
    if w.params is not None:
        return cli.run_separation(problem.params, out_dir)
    for run in (lambda: solver.mixamp_run(problem.a, problem.y, problem.mask, DCT_CONFIG),
                lambda: baseline.baseline_solve(problem.a, problem.y, problem.mask,
                                                DCT_BASELINE, "group")):
        try:
            run()
        except MixAmpError:
            pass  # counted as failed: the solve records no output
    return 0, None


def psnr_db(reference, estimate):
    """10 log10(peak^2 / MSE), peak = max |reference|; written apart from data.psnr."""
    mse = float(np.mean((reference - estimate) ** 2))
    if mse == 0.0:
        return math.inf
    peak = float(np.max(np.abs(reference)))
    return 10.0 * math.log10(peak * peak / mse)


@dataclasses.dataclass
class Solve:
    solver: str
    ok: bool
    reason: str
    seconds: float = math.nan
    iters: int = 0
    psnr_a: float = math.nan
    psnr_b: float = math.nan
    trace: object = None


def evaluate(w, problem, outputs, code, rows):
    """Check one problem's solves.

    ``outputs`` maps solver -> (xa_hat, xb_hat, trace, seconds) for the solves
    that returned. A solve fails if it raised or diverged (no output), if
    run_separation returned a non-zero code, if an estimate is non-finite, or
    if its psnr_b is under the workload's floor. Returns (solves, errors);
    errors lists outputs of the program that disagree with the benchmark's
    own reading of them.
    """
    solves, errors = [], []
    by_solver = {r["solver"]: r for r in rows} if rows is not None else {}
    for name in SOLVERS:
        if name not in outputs:
            solves.append(Solve(name, False, "raised or diverged"))
            continue
        xa_hat, xb_hat, trace, seconds = outputs[name]
        record = Solve(name, True, "", seconds, len(trace), trace=trace)
        solves.append(record)
        if not (np.isfinite(xa_hat).all() and np.isfinite(xb_hat).all()):
            record.ok, record.reason = False, "non-finite estimate"
            continue
        record.psnr_a = psnr_db(problem.xa, xa_hat)
        record.psnr_b = psnr_db(problem.xb, xb_hat)
        if code != 0:
            record.ok, record.reason = False, f"run_separation exit code {code}"
        elif record.psnr_b < w.floors[name]:
            record.ok, record.reason = False, f"psnr_b {record.psnr_b:.2f} dB under floor"
        if rows is not None:
            row = by_solver.get(name)
            if row is None:
                errors.append(f"problem {problem.seed}: no metrics row for {name}")
            elif (int(row["iters"]) != record.iters
                  or abs(float(row["psnr_a_db"]) - record.psnr_a) > 1e-4
                  or abs(float(row["psnr_b_db"]) - record.psnr_b) > 1e-4):
                errors.append(f"problem {problem.seed}: metrics row for {name} disagrees")
    return solves, errors
