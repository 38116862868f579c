"""Degenerate inputs: each ends in finite estimates or in a typed MixAmpError
with its documented exit code (1 for divergence, 2 for any other error),
never in another exception type."""

import numpy as np
import pytest

from mixamp import baseline, cli, denoise, linops, solver
from mixamp.exceptions import (
    DegenerateProblemError,
    DimensionError,
    DomainError,
    MixAmpError,
    SolverDivergenceError,
    SolverError,
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
    "zero-a": (lambda: _library(8, 40, a="zero"),
               ((DegenerateProblemError, 2), (SolverError, 2))),
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
