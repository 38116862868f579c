#!/usr/bin/env python3
# The three sparsity denoisers and their divergences.
#
# Each denoiser is the proximal operator of a sparsity penalty; the
# divergence (average Jacobian diagonal) is the scalar the solver needs
# for its residual correction term.

import numpy as np

from mixamp import denoise

rng = np.random.default_rng(0)

# --- soft thresholding: direct (entrywise) sparsity ----------------------
x = np.array([-1.2, -0.3, 0.0, 0.4, 0.9])
print("soft threshold, thr=0.5:")
print("  in :", x)
print("  out:", denoise.soft_threshold(x, 0.5))

grid = rng.standard_normal((16, 16))
print(f"  divergence = active fraction: {denoise.soft_threshold_div(grid, 0.5):.3f}")

# --- block soft thresholding: group sparsity on square tiles -------------
grid = rng.standard_normal((8, 8))
out = denoise.block_soft_threshold(grid, block_side=4, thr=3.0)
radii_in = np.sqrt((grid.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3) ** 2).sum(axis=(2, 3)))
radii_out = np.sqrt((out.estimate.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3) ** 2).sum(axis=(2, 3)))
print("\nblock soft threshold, 4x4 tiles, thr=3.0:")
print("  tile norms in :", np.round(radii_in.ravel(), 2))
print("  tile norms out:", np.round(radii_out.ravel(), 2))
print(f"  divergence (closed form): {out.divergence_avg:.3f}")

# --- TV denoising: finite-difference sparsity ----------------------------
# piecewise-constant signal plus noise; split-Bregman pulls the noise out.
# One solve runs a fixed 5 inner iterations; started cold, as here, it
# stops short of convergence, which the solvers make up for by starting
# each solve from the state of the previous one.
clean = np.where(np.add.outer(np.arange(16), np.arange(16)) > 14, 1.0, 0.0)
noisy = clean + 0.3 * rng.standard_normal((16, 16))
out = denoise.tv_denoise_bregman(noisy, lam=2.0)
print("\nTV split-Bregman, lam=2.0:")
print(f"  objective in : {denoise.tv_objective(noisy, noisy, 2.0):9.3f}")
print(f"  objective out: {denoise.tv_objective(out.estimate, noisy, 2.0):9.3f}")
print(f"  rmse vs clean: {np.sqrt(np.mean((noisy - clean) ** 2)):.3f} -> "
      f"{np.sqrt(np.mean((out.estimate - clean) ** 2)):.3f}")
print(f"  Monte-Carlo divergence: {out.divergence_avg:.3f} (converged={out.tv_converged})")

# the probe estimator is exact for separable denoisers
mc = denoise.mc_divergence(lambda v: denoise.soft_threshold(v, 0.5), grid,
                           probe_seed=0, eps=1e-6)
print(f"\nMC divergence of soft thresholding: {mc:.4f} "
      f"(exact {denoise.soft_threshold_div(grid, 0.5):.4f})")
