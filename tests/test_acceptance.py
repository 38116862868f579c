"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its measured values.

End-to-end thresholds were frozen after a one-time calibration run at
desk scale (see tests/calibration_record.json for the measured values
behind the frozen bounds).
"""

import time

import numpy as np
import pytest

import oracles
from mixamp import checks, cli, data, denoise, linops, solver


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


BASE_PARAMS = {
    "case": "group", "side": 64, "sampling": 0.7, "sparsity": 0.05, "block": 4,
    "active_fraction": 0.25, "image": None, "seed": 0, "solver": "both",
    "max_iters": 500, "tol": 5e-4, "tau_a": 1.5, "tau_b": 1.0, "damping": 0.3,
    "lambda1": 0.5, "lambda2": 1.2, "rho": 1e4, "disjoint": False,
    "record_timing": True,
}


def test_criterion_1_model_equivalence():
    # vec(P{A X A^T}) must match the dense Kronecker model on every
    # supported oracle side, 100 random instances each, within 1e-12
    def instances():
        for side in (2, 4, 8, 16):
            for trial in range(100):
                rng = np.random.default_rng(10_000 * side + trial)
                m = int(rng.integers(1, side * side + 1))
                yield (linops.gen_gaussian_sensing(side, m, seed=20_000 * side + trial),
                       linops.gen_mask(side, m, seed=30_000 * side + trial),
                       rng.standard_normal((side, side)))

    start = time.perf_counter()
    worst = checks.kron_equivalence(instances())
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12 and elapsed < 10.0,
           f"max rel err {worst:.2e} (<=1e-12), runtime {elapsed:.1f}s (<10s)")


def test_criterion_2_prox_oracles():
    rng = np.random.default_rng(42)
    worst_scalar = checks.soft_prox_grid(
        (float(rng.uniform(-3, 3)), float(rng.uniform(0.05, 1.5))) for _ in range(700))
    expansive = 0
    # non-expansiveness on sampled pairs (scalar and block)
    for _ in range(200):
        thr = float(rng.uniform(0.05, 1.5))
        u, v = rng.standard_normal(2) * 2
        if abs(denoise.soft_threshold(u, thr) - denoise.soft_threshold(v, thr)) > abs(u - v) + 1e-12:
            expansive += 1
    worst_block = 0.0
    for _ in range(300):
        blk = rng.standard_normal((2, 2)) * rng.uniform(0.3, 2.0)
        thr = float(rng.uniform(0.1, 1.5))
        est = denoise.block_soft_threshold(blk, 2, thr).estimate
        ref, _ = oracles.numeric_prox_frobenius(blk, thr)
        worst_block = max(worst_block, float(np.abs(est - ref).max()))
        blk2 = blk + rng.standard_normal((2, 2))
        est2 = denoise.block_soft_threshold(blk2, 2, thr).estimate
        if np.linalg.norm(est - est2) > np.linalg.norm(blk - blk2) + 1e-12:
            expansive += 1
    ok = worst_scalar <= 1e-3 and worst_block <= 1e-4 and expansive == 0
    report(2, ok, f"scalar grid err {worst_scalar:.2e} (<=1e-3), "
                  f"block NM err {worst_block:.2e} (<=1e-4), expansive pairs {expansive}")


def test_criterion_3_divergences():
    rng = np.random.default_rng(7)

    def instances(thr_lo, thr_hi):
        for _ in range(100):
            thr = float(rng.uniform(thr_lo, thr_hi))
            yield rng.standard_normal((8, 8)), thr

    worst_soft = checks.soft_divergence_fd(instances(0.2, 1.0))
    worst_block = checks.block_divergence_fd((x, 2, thr) for x, thr in instances(0.4, 1.2))
    # Monte-Carlo probe against the exact soft divergence, 8 probes
    worst_mc = 0.0
    for seed in range(5):
        x = rng.standard_normal((16, 16))
        thr = 0.6
        mc = oracles.mc_divergence_mean(lambda v: denoise.soft_threshold(v, thr), x,
                                        probe_seed=seed, eps=1e-6, n_probes=8)
        worst_mc = max(worst_mc, abs(mc - denoise.soft_threshold_div(x, thr)))
    ok = worst_soft <= 1e-5 and worst_block <= 1e-5 and worst_mc <= 0.05
    report(3, ok, f"soft FD err {worst_soft:.2e}, block FD err {worst_block:.2e} "
                  f"(<=1e-5), MC err {worst_mc:.3f} (<=0.05)")


def test_criterion_4_tv_denoiser():
    rng = np.random.default_rng(11)
    increase = checks.tv_objective_decrease(
        (rng.standard_normal((16, 16)), float(rng.uniform(0.3, 3.0))) for _ in range(100))
    # local optimality at a well-converged solution
    x = rng.standard_normal((16, 16))
    u, _, _ = denoise._tv_bregman_estimate(x, 1.0, 2000)
    base = denoise.tv_objective(u, x, 1.0)
    probe_fails = 0
    for _ in range(50):
        p = rng.standard_normal((16, 16))
        p /= np.linalg.norm(p)
        if base > denoise.tv_objective(u + 1e-4 * p, x, 1.0) + 1e-8:
            probe_fails += 1
    # constant inputs are exact fixed points
    const_err = 0.0
    for value in (0.0, 0.5, -2.0):
        xc = np.full((12, 12), value)
        const_err = max(const_err, float(np.abs(
            denoise.tv_denoise_bregman(xc, 1.5).estimate - xc).max()))
    ok = increase <= 1e-12 and probe_fails == 0 and const_err == 0.0
    report(4, ok, f"largest objective increase {increase:.1e} over 100 inputs (<=1e-12), "
                  f"probe failures {probe_fails}/50, "
                  f"constant fixed-point err {const_err:.1e}")


def test_criterion_5_structural_checks():
    side, m = 16, 205
    a = linops.gen_gaussian_sensing(side, m, seed=0)
    mask = linops.gen_mask(side, m, seed=0)
    rng = np.random.default_rng(0)
    y = linops.forward(a, rng.standard_normal((side, side)), mask)
    cfg = solver.MixAmpConfig(
        denoiser_a=denoise.DenoiserSpec(kind="soft", tau=2.5),
        denoiser_b=denoise.DenoiserSpec(kind="block_soft", block_side=4, tau=1.0),
    )
    theta_violation = checks.residual_support(a, mask, y, cfg, iters=25, step=0.3)
    # Onsager ablation at t = 1 (undamped step so the difference is exact)
    ablation_err = checks.onsager_ablation(a, mask, y, cfg.denoiser_a, cfg.denoiser_b)
    ok = theta_violation <= 1e-15 and ablation_err <= 1e-12
    report(5, ok, f"theta rel err {theta_violation:.1e} (<=1e-15; inf if the residual "
                  f"leaves Omega), ablation residual {ablation_err:.1e} (<=1e-12)")


def last_tol_of(trace_path):
    with open(trace_path) as fh:
        lines = fh.read().strip().splitlines()
    return float(lines[-1].split(",")[2])


def test_criterion_6_group_recovery(tmp_path):
    start = time.perf_counter()
    hits = 0
    comparisons = []
    for seed in range(5):
        params = dict(BASE_PARAMS, seed=seed)
        out = tmp_path / f"g{seed}"
        code, rows = cli.run_separation(params, out)
        assert code == 0
        row = {r["solver"]: r for r in rows}
        mix, base = row["mixamp"], row["baseline"]
        if int(mix["iters"]) < 500 or last_tol_of(out / "trace_mixamp.csv") <= 5e-4:
            hits += 1
        diff = float(mix["psnr_b_db"]) - float(base["psnr_b_db"])
        faster = float(mix["wall_ms"]) < float(base["wall_ms"])
        comparisons.append((diff, faster))
    elapsed = time.perf_counter() - start
    ok = (hits >= 4 and all(d >= -3.0 for d, _ in comparisons)
          and all(f for _, f in comparisons) and elapsed < 120.0)
    report(6, ok, f"tol hits {hits}/5 (>=4), psnr_b diffs "
                  f"{[round(d, 2) for d, _ in comparisons]} dB (>=-3), "
                  f"all faster {all(f for _, f in comparisons)}, runtime {elapsed:.0f}s (<120s)")


def test_criterion_7_tv_recovery(tmp_path):
    start = time.perf_counter()
    image = tmp_path / "scene64.pgm"
    data.save_image_pgm(data.gen_cartoon(64, seed=1234), image)
    diffs, ratios = [], []
    for seed in range(3):
        params = dict(BASE_PARAMS, case="tv", sampling=0.5, sparsity=0.10,
                      seed=seed, image=str(image), tau_a=2.0, tau_b=1.0,
                      lambda1=2.0, lambda2=1.4)
        # three rounds, each timing mixamp and then the baseline back to
        # back, so a burst of load on the host reaches both; the ratio is
        # of each solver's best time, as in criterion 9
        best = {"mixamp": float("inf"), "baseline": float("inf")}
        for round_ in range(3):
            code, rows = cli.run_separation(params, tmp_path / f"tv{seed}_{round_}")
            assert code == 0
            row = {r["solver"]: r for r in rows}
            for name in best:
                best[name] = min(best[name], float(row[name]["wall_ms"]))
        diffs.append(float(row["mixamp"]["psnr_b_db"]) - float(row["baseline"]["psnr_b_db"]))
        ratios.append(best["mixamp"] / best["baseline"])
    elapsed = time.perf_counter() - start
    ok = (all(d >= -3.0 for d in diffs) and all(r <= 0.75 for r in ratios)
          and elapsed < 300.0)
    report(7, ok, f"psnr_b diffs {[round(d, 2) for d in diffs]} dB (>=-3), wall ratios "
                  f"{[round(r, 2) for r in ratios]} (<=0.75), runtime {elapsed:.0f}s (<300s)")


def test_criterion_8_sampling_sweep(tmp_path):
    image = tmp_path / "scene64.pgm"
    data.save_image_pgm(data.gen_cartoon(64, seed=1234), image)
    means = []
    for sampling in (0.3, 0.5, 0.7):
        vals = []
        for seed in range(3):
            params = dict(BASE_PARAMS, case="tv", sampling=sampling, sparsity=0.10,
                          seed=seed, image=str(image), solver="mixamp",
                          tau_a=2.0, tau_b=1.0, lambda1=2.0, lambda2=1.4)
            code, rows = cli.run_separation(params, tmp_path / f"sw{sampling}_{seed}")
            assert code == 0
            vals.append(float(rows[0]["psnr_b_db"]))
        means.append(float(np.mean(vals)))
    ok = means[0] <= means[1] <= means[2]
    report(8, ok, f"mean psnr_b over M/N (0.3, 0.5, 0.7) = "
                  f"{[round(m, 2) for m in means]} dB, non-decreasing {ok}")


def test_criterion_9_dct_fast_path():
    # Exactness at every side that is timed, and the asymptotic advantage
    # where it is promised: the fast path beats the two dense products at
    # side 256 (README, calibration record) and its time ratio to them
    # falls from side 64 to side 256. At side 64 a fast BLAS may win.
    rng = np.random.default_rng(17)
    worst = checks.dct_equivalence(
        (linops.gen_mask(side, int(0.6 * side * side), seed=side), rng.standard_normal((side, side)))
        for side in (8, 32, 64, 128, 256))

    def interleaved_best_time(fast, explicit, reps, trials=45):
        # each trial times both paths back to back, so a burst of load
        # on the host reaches both sides of the comparison; the best of
        # many trials is the time of an unloaded moment for each path
        best_fast = best_explicit = float("inf")
        for _ in range(trials):
            tic = time.perf_counter()
            for _ in range(reps):
                fast()
            mid = time.perf_counter()
            for _ in range(reps):
                explicit()
            best_fast = min(best_fast, (mid - tic) / reps)
            best_explicit = min(best_explicit, (time.perf_counter() - mid) / reps)
        return best_fast, best_explicit

    times = {}
    for side in (64, 256):
        a = linops.dct_sensing(side)
        mask = linops.gen_mask(side, int(0.7 * side * side), seed=99)
        x = rng.standard_normal((side, side))
        times[side] = interleaved_best_time(
            lambda: linops.dct_fast_forward(x, mask),
            lambda: linops.forward(a, x, mask),
            reps=max(2, 409_600 // (side * side)))
    ratio = {side: fast / explicit for side, (fast, explicit) in times.items()}
    ok = worst <= 1e-10 and times[256][0] < times[256][1] and ratio[256] < ratio[64]
    detail = ", ".join(f"side {side}: fast {fast*1e6:.1f}us vs explicit "
                       f"{explicit*1e6:.1f}us (ratio {ratio[side]:.2f})"
                       for side, (fast, explicit) in times.items())
    report(9, ok, f"max err {worst:.2e} (<=1e-10) at sides 8-256, forward and adjoint; {detail} "
                  f"(fast must win at 256, ratio must fall from 64 to 256)")


def test_criterion_10_reproducibility(tmp_path):
    params = dict(BASE_PARAMS, side=32, solver="mixamp", record_timing=False)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1, _ = cli.run_separation(params, out1)
    code2, _ = cli.run_separation(params, out2)
    assert code1 == 0 and code2 == 0
    names = ["xhat_a.pgm", "xhat_b.pgm", "trace.csv", "metrics.csv", "manifest.json"]
    mismatched = [n for n in names
                  if (out1 / n).read_bytes() != (out2 / n).read_bytes()]
    ok = not mismatched
    report(10, ok, f"byte-identical outputs across two runs "
                   f"({len(names) - len(mismatched)}/{len(names)} files)"
                   + (f", mismatched: {mismatched}" if mismatched else ""))
