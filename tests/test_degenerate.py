"""Degenerate inputs: each ends in finite estimates or in a typed MixAmpError
with its documented exit code (1 for divergence, 2 for any other error),
never in another exception type."""

import numpy as np
import pytest

from mixamp import baseline, cli, data, denoise, linops, solver
from mixamp.exceptions import (
    DegenerateProblemError,
    DimensionError,
    DomainError,
    MixAmpError,
    SolverDivergenceError,
)

FINITE = "finite"


def _library(side, m, block=2, y="random", a="gaussian"):
    """(sensing matrix, measurements, mask, block side) of one library case."""
    gauss = linops.gen_gaussian_sensing(side, m, seed=side)
    mask = linops.gen_mask(side, m, seed=side + 1)
    meas = linops.forward(gauss, np.random.default_rng(side).standard_normal((side, side)), mask)
    if y == "zero":
        meas = np.zeros((side, side))
    elif y == "nan":
        k, l = np.argwhere(mask.grid)[0]
        meas[k, l] = np.nan
    entries = {"gaussian": gauss.entries, "zero": np.zeros((side, side)),
               "nan": np.where(np.eye(side) == 1, np.nan, gauss.entries),
               "1d": gauss.entries[0], "wide": gauss.entries[:, :side // 2]}[a]
    return linops.SensingMatrix(entries=entries), meas, mask, block


def _solve(name, problem):
    """Outcome of one group-case solve: FINITE, or (error type, exit code)."""
    a, y, mask, block = problem
    try:
        if name == "mixamp":
            cfg = solver.MixAmpConfig(
                denoiser_a=denoise.DenoiserSpec(kind="soft", tau=1.5),
                denoiser_b=denoise.DenoiserSpec(kind="block_soft", block_side=block, tau=1.0),
                max_iters=100, damping=0.3,
            )
            xa, xb, _ = solver.mixamp_run(a, y, mask, cfg)
        else:
            cfg = baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, max_iters=100,
                                          block_side=block)
            xa, xb, _ = baseline.baseline_solve(a, y, mask, cfg, "group")
    except MixAmpError as err:
        return type(err), cli._exit_code(err)
    assert np.isfinite(xa).all() and np.isfinite(xb).all()
    return FINITE


# Library cases give the outcome of (mixamp, baseline), or of building the
# problem when that already fails; the CLI case, run as `separate --solver
# both`, gives the exit code.
CASES = {
    "side2-m1": (lambda: _library(2, 1, block=1), ((SolverDivergenceError, 1), FINITE)),
    "zero-y": (lambda: _library(8, 40, y="zero"), (FINITE, FINITE)),
    "zero-a": (lambda: _library(8, 40, a="zero"), (DegenerateProblemError, 2)),
    "nonfinite-y": (lambda: _library(8, 40, y="nan"), ((DomainError, 2), (DomainError, 2))),
    "block-not-dividing": (lambda: _library(6, 30, block=4),
                           ((DimensionError, 2), (DimensionError, 2))),
    "nonfinite-a": (lambda: _library(16, 128, a="nan"), (DomainError, 2)),
    "1d-a": (lambda: _library(16, 128, a="1d"), (DimensionError, 2)),
    "16x8-a": (lambda: _library(16, 128, a="wide"), (DimensionError, 2)),
    "cli-zero-truth": (["--side", "4", "--block", "2", "--sparsity", "0.01"], 2),
    "cli-side2-m1": (["--side", "2", "--block", "1", "--sampling", "0.25", "--sparsity", "1.0",
                      "--seed", "1"], 1),
    "cli-baseline-config": (["--lambda1", "-1"], 2),
    "cli-max-iters-0": (["--max-iters", "0"], 2),
    "cli-negative-seed": (["--seed", "-1"], 2),
}


@pytest.mark.parametrize("case", CASES)
def test_degenerate_input(case, tmp_path):
    inputs, expected = CASES[case]
    if case.startswith("cli-"):
        out = tmp_path / "run"
        code = cli.main(["separate", *inputs, "--solver", "both", "--no-timing",
                         "--out", str(out)])
        assert code == expected
        if code == 2:
            assert not out.exists()  # a rejected run writes nothing
        return
    try:
        problem = inputs()
    except MixAmpError as err:
        assert (type(err), cli._exit_code(err)) == expected
        return
    assert (_solve("mixamp", problem), _solve("baseline", problem)) == expected


NAN, INF = float("nan"), float("inf")
GRID = np.ones((4, 4))
TV = denoise.DenoiserSpec(kind="tv_bregman")
SOFT = denoise.DenoiserSpec(kind="soft")

# Library calls with a bad argument, each with the error class it must raise.
BAD_ARGUMENTS = {
    "soft_threshold-nan": (lambda: denoise.soft_threshold(GRID, NAN), DomainError),
    "soft_threshold_div-nan": (lambda: denoise.soft_threshold_div(GRID, NAN), DomainError),
    "block_soft_threshold-nan": (lambda: denoise.block_soft_threshold(GRID, 2, NAN), DomainError),
    "tv_denoise_bregman-lam-nan": (lambda: denoise.tv_denoise_bregman(GRID, NAN, TV), DomainError),
    "tv_denoise_bregman-lam-inf": (lambda: denoise.tv_denoise_bregman(GRID, INF, TV), DomainError),
    "mc_divergence-eps-nan": (lambda: denoise.mc_divergence(lambda v: v, GRID, 0, eps=NAN),
                              DomainError),
    "DenoiserSpec-tau-inf": (lambda: denoise.DenoiserSpec(kind="soft", tau=INF), DomainError),
    "MixAmpConfig-tol-inf": (lambda: solver.MixAmpConfig(SOFT, SOFT, tol=INF), DomainError),
    "BaselineConfig-rho-inf": (lambda: baseline.BaselineConfig(0.5, 1.2, rho=INF), DomainError),
    "BaselineConfig-lambda1-inf": (lambda: baseline.BaselineConfig(INF, 1.2), DomainError),
    "PhantomSpec-seed-negative": (lambda: data.PhantomSpec(kind="shot_noise", seed=-1),
                                  DomainError),
    "gen_mask-seed-negative": (lambda: linops.gen_mask(8, 10, -1), DomainError),
    "gen_gaussian_sensing-seed-negative": (lambda: linops.gen_gaussian_sensing(8, 10, -1),
                                           DomainError),
    "PhantomSpec-side-float": (lambda: data.PhantomSpec(kind="shot_noise", side=8.5),
                               DimensionError),
    "PhantomSpec-side-str": (lambda: data.PhantomSpec(kind="shot_noise", side="8"),
                             DimensionError),
    "gen_mask-m-float": (lambda: linops.gen_mask(8, 10.5, 1), DimensionError),
    "gen_cartoon-side-float": (lambda: data.gen_cartoon(8.5), DimensionError),
    "PhantomSpec-sparsity-str": (lambda: data.PhantomSpec(kind="shot_noise", sparsity="0.5"),
                                 DomainError),
    "PhantomSpec-active_fraction-str": (
        lambda: data.PhantomSpec(kind="group_sparse", active_fraction="0.5"), DomainError),
    "MixAmpConfig-damping-str": (lambda: solver.MixAmpConfig(SOFT, SOFT, damping="0.5"),
                                 DomainError),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_raises_its_error_class(case):
    call, error = BAD_ARGUMENTS[case]
    with pytest.raises(error):
        call()
