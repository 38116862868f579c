"""Denoiser tests against brute-force prox, finite-difference divergence,
and subgradient-descent oracles."""

import dataclasses

import numpy as np
import pytest

import oracles
from mixamp import baseline, checks, data, denoise
from mixamp.exceptions import DimensionError, DomainError


class TestThresholdFromTheta:
    def test_zero(self):
        assert denoise.threshold_from_theta(0.0, 1.0) == 0.0

    def test_sqrt(self):
        assert denoise.threshold_from_theta(4.0, 1.0) == pytest.approx(2.0)

    def test_scaling(self):
        assert denoise.threshold_from_theta(4.0, 1.5) == pytest.approx(3.0)

    def test_negative_theta(self):
        with pytest.raises(DomainError):
            denoise.threshold_from_theta(-1.0, 1.0)


class TestSoftThreshold:
    def test_above_threshold(self):
        assert denoise.soft_threshold(0.7, 0.5) == pytest.approx(0.2)

    def test_dead_zone(self):
        assert denoise.soft_threshold(-0.3, 0.5) == 0.0

    def test_negative_passes_sign(self):
        assert denoise.soft_threshold(-1.2, 0.5) == pytest.approx(-0.7)

    def test_matches_grid_prox(self):
        # eta minimizes |u| + (1/(2 thr)) (u - x)^2
        rng = np.random.default_rng(0)
        pairs = [(1.0, 0.4)] + [(float(rng.uniform(-3, 3)), float(rng.uniform(0.05, 1.5)))
                                for _ in range(50)]
        assert checks.soft_prox_grid(pairs) <= 1e-3

    def test_elementwise_on_grids(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 6))
        out = denoise.soft_threshold(x, 0.3)
        for i in range(6):
            for j in range(6):
                assert out[i, j] == denoise.soft_threshold(float(x[i, j]), 0.3)

    def test_non_expansive(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal((8, 8))
            y = rng.standard_normal((8, 8))
            thr = float(rng.uniform(0, 1.5))
            dist_out = np.linalg.norm(denoise.soft_threshold(x, thr) - denoise.soft_threshold(y, thr))
            assert dist_out <= np.linalg.norm(x - y) + 1e-12

    def test_prox_subgradient_certificate(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal((8, 8))
            thr = float(rng.uniform(0.1, 1.0))
            out = denoise.soft_threshold(x, thr)
            nz = out != 0
            # 0 in d|u| + (u - x)/thr at u = out
            assert np.abs((x - out)[nz] - thr * np.sign(out[nz])).max() <= 1e-8
            assert np.abs(x[~nz]).max() <= thr + 1e-8 if (~nz).any() else True

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            denoise.soft_threshold(1.0, -0.1)


class TestSoftThresholdDiv:
    def test_all_zero(self):
        assert denoise.soft_threshold_div(np.zeros((4, 4)), 0.5) == 0.0

    def test_identity_case(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.5, 1.5, (4, 4))
        assert denoise.soft_threshold_div(x, 0.0) == 1.0

    def test_matches_central_difference(self):
        x = np.random.default_rng(5).standard_normal((8, 8))
        assert checks.soft_divergence_fd([(x, 0.5)]) <= 1e-6


class TestBlockSoftThreshold:
    def test_small_block_zeroed(self):
        x = np.full((2, 2), 0.1)
        out = denoise.block_soft_threshold(x, 2, thr=1.0)
        assert not out.estimate.any()
        assert out.divergence_avg == 0.0

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 8))
        out = denoise.block_soft_threshold(x, 4, thr=0.0)
        assert np.allclose(out.estimate, x, atol=0)
        assert out.divergence_avg == pytest.approx(1.0)

    def test_block_shrinkage_formula(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4))
        thr = 0.8
        out = denoise.block_soft_threshold(x, 2, thr)
        for bi in range(0, 4, 2):
            for bj in range(0, 4, 2):
                blk = x[bi:bi + 2, bj:bj + 2]
                r = np.linalg.norm(blk)
                expected = blk * max(1 - thr / r, 0.0)
                assert np.allclose(out.estimate[bi:bi + 2, bj:bj + 2], expected)

    def test_matches_numeric_prox(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            blk = rng.standard_normal((2, 2))
            thr = float(rng.uniform(0.2, 1.5))
            est = denoise.block_soft_threshold(blk, 2, thr).estimate
            ref, _ = oracles.numeric_prox_frobenius(blk, thr)
            assert np.abs(est - ref).max() <= 1e-4

    def test_divergence_matches_fd(self):
        x = np.random.default_rng(9).standard_normal((4, 4))
        assert checks.block_divergence_fd([(x, 2, 0.8)]) <= 1e-5

    def test_divergence_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.standard_normal((8, 8)) * rng.uniform(0.1, 3)
            thr = float(rng.uniform(0, 2))
            d = denoise.block_soft_threshold(x, 4, thr).divergence_avg
            assert 0.0 <= d <= 1.0

    def test_non_expansive(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal((4, 4))
            y = rng.standard_normal((4, 4))
            thr = float(rng.uniform(0, 1.5))
            ox = denoise.block_soft_threshold(x, 2, thr).estimate
            oy = denoise.block_soft_threshold(y, 2, thr).estimate
            assert np.linalg.norm(ox - oy) <= np.linalg.norm(x - y) + 1e-12

    def test_prox_subgradient_certificate(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.standard_normal((2, 2)) * rng.uniform(0.3, 2.0)
            thr = float(rng.uniform(0.1, 1.2))
            out = denoise.block_soft_threshold(x, 2, thr).estimate
            if out.any():
                resid = x - out
                direction = out / np.linalg.norm(out)
                assert np.abs(resid - thr * direction).max() <= 1e-8
            else:
                assert np.linalg.norm(x) <= thr + 1e-8

    def test_indivisible_side(self):
        with pytest.raises(DimensionError):
            denoise.block_soft_threshold(np.zeros((6, 6)), 4, 0.5)

    @pytest.mark.parametrize("block_side", [1, 2, 3, 4, 7, 8, 16])
    def test_matches_tile_loops(self, block_side):
        # the tile norms come from strided adds; the loops sum each tile
        # entry by entry, and scale and count it on its own
        rng = np.random.default_rng(block_side)
        side = 3 * block_side if block_side > 1 else 5
        x = rng.standard_normal((side, side)) * rng.uniform(0.2, 3.0, (side, side))
        x[:block_side, :block_side] = 0.0  # a zero tile
        cfg = baseline.BaselineConfig(lambda1=1.0, lambda2=1.0, block_side=block_side)
        for thr in (0.0, 0.5 * block_side, 2.0 * block_side):
            out = denoise.block_soft_threshold(x, block_side, thr)
            est, div, norms = oracles.block_soft_threshold_loops(x, block_side, thr)
            assert np.abs(out.estimate - est).max() <= 1e-14 * np.abs(est).max(initial=1.0)
            assert abs(out.divergence_avg - div) <= 1e-14 * abs(div)
            assert abs(baseline._regularizer(x, cfg, "group") - norms) <= 1e-14 * norms


class TestTvNorm:
    def test_constant_grid(self):
        assert denoise.tv_norm(np.full((5, 5), 3.2)) == 0.0

    def test_hand_counted(self):
        assert denoise.tv_norm(np.array([[0.0, 1.0], [0.0, 1.0]])) == pytest.approx(2.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.standard_normal((8, 8))
            assert denoise.tv_norm(x) == pytest.approx(oracles.tv_norm_loops(x), abs=1e-12)


class TestTvDenoiseBregman:
    def test_constant_fixed_point(self):
        x = np.full((8, 8), 0.7)
        out = denoise.tv_denoise_bregman(x, 2.0)
        assert np.allclose(out.estimate, x, atol=1e-12)

    def test_huge_lambda_returns_input(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 8))
        out = denoise.tv_denoise_bregman(x, 1e8)
        assert np.abs(out.estimate - x).max() <= 1e-4

    def test_objective_never_increases(self):
        rng = np.random.default_rng(15)
        instances = ((rng.standard_normal((16, 16)), float(rng.uniform(0.3, 3.0)))
                     for _ in range(20))
        assert checks.tv_objective_decrease(instances) <= 1e-12

    def test_matches_subgradient_oracle(self):
        # columns-constant input: effectively a 1D problem
        rng = np.random.default_rng(16)
        x = np.tile(rng.standard_normal((8, 1)), (1, 8))
        lam = 1.5
        u, _, _ = denoise._tv_bregman_estimate(x, lam, 400)
        ours = denoise.tv_objective(u, x, lam)
        oracle_best = oracles.subgrad_descent_tv(x, lam, iters=3000, restarts=20, seed=0)
        assert ours <= oracle_best + 1e-3

    def test_local_optimality_probes(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((16, 16))
        u, _, _ = denoise._tv_bregman_estimate(x, 1.0, 2000)
        base = denoise.tv_objective(u, x, 1.0)
        for _ in range(50):
            p = rng.standard_normal((16, 16))
            p /= np.linalg.norm(p)
            assert base <= denoise.tv_objective(u + 1e-4 * p, x, 1.0) + 1e-8

    def test_warning_flag_when_truncated(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((16, 16))
        _, converged, _ = denoise._tv_bregman_estimate(x, 1.0, 2)
        assert not converged

    def test_bad_lambda(self):
        with pytest.raises(DomainError):
            denoise.tv_denoise_bregman(np.zeros((4, 4)), 0.0)


def _tv_kernel_inputs(side):
    rng = np.random.default_rng(side)
    return {
        "random": rng.standard_normal((side, side)),
        "constant": np.full((side, side), 0.7),
        "cartoon": data.gen_cartoon(side, seed=side) + 0.1 * rng.standard_normal((side, side)),
    }


class TestTvKernelMatchesReference:
    """The flat padded kernel reproduces the plain-grid split Bregman exactly."""

    @pytest.mark.parametrize("side", [2, 3, 5, 8, 17, 64])
    def test_estimate_and_flag_identical(self, side):
        for name, x in _tv_kernel_inputs(side).items():
            for iters in (1, 2, denoise._TV_INNER_ITERS, 20):
                u, converged, _ = denoise._tv_bregman_estimate(x, 1.3, iters)
                u_ref, converged_ref = oracles.tv_bregman_reference(x, 1.3, iters)
                case = (name, iters)
                assert np.array_equal(u, u_ref), case
                assert converged == converged_ref, case

    @pytest.mark.parametrize("side", [2, 3, 8, 17])
    def test_constant_input_is_flagged_converged(self, side):
        x = _tv_kernel_inputs(side)["constant"]
        _, flag_one, _ = denoise._tv_bregman_estimate(x, 1.3, 1)
        _, flag_long, _ = denoise._tv_bregman_estimate(x, 1.3, 20)
        assert flag_one and flag_long

    def test_divergence_matches_reference_probe(self):
        iters = denoise._TV_INNER_ITERS
        for side in (5, 16):
            x = _tv_kernel_inputs(side)["cartoon"]
            out = denoise.tv_denoise_bregman(x, 2.0, probe_seed=7)
            u_ref, converged_ref = oracles.tv_bregman_reference(x, 2.0, iters)
            div_ref = denoise.mc_divergence(
                lambda v: oracles.tv_bregman_reference(v, 2.0, iters)[0], x,
                probe_seed=7, eps=1e-3,
            )
            assert np.array_equal(out.estimate, u_ref)
            assert out.tv_converged == converged_ref
            assert out.divergence_avg == min(max(div_ref, 0.0), 1.0)

    def test_baseline_prox_matches_reference(self):
        cfg = baseline.BaselineConfig(lambda1=1.0, lambda2=1.0)
        v = _tv_kernel_inputs(12)["cartoon"]
        u_ref, _ = oracles.tv_bregman_reference(v, 1.0 / 0.4, denoise._TV_INNER_ITERS)
        u, _ = baseline._prox_b(v, 0.4, cfg, "tv")
        assert np.array_equal(u, u_ref)


def _converged_state(x, lam):
    """A cold 2000-iteration solve; returns (u, state it ended in)."""
    u, converged, state = denoise._tv_bregman_estimate(x, lam, 2000)
    assert converged
    return u, state


def _arrays(state):
    return [state.p.copy(), state.d.copy(), state.b.copy()]


class TestTvWarmStart:
    """Split-Bregman solves that start from the state an earlier one left."""

    X = _tv_kernel_inputs(16)["cartoon"]

    def test_empty_state_is_the_cold_path(self):
        for iters in (1, 5, 20):
            u, flag, state = denoise._tv_bregman_estimate(self.X, 1.3, iters)
            u_ref, flag_ref = oracles.tv_bregman_reference(self.X, 1.3, iters)
            assert np.array_equal(u, u_ref) and flag == flag_ref
            assert state.mu == 2.0 * 1.3
            assert np.array_equal(state.p.reshape(18, 17)[1:17, 1:17], u)

    def test_converged_state_is_a_fixed_point(self):
        u_deep, state = _converged_state(self.X, 1.3)
        before = _arrays(state)
        u, _, _ = denoise._tv_bregman_estimate(self.X, 1.3, 5, state)
        assert np.abs(u - u_deep).max() <= 1e-10
        assert all(np.array_equal(a, b) for a, b in zip(before, _arrays(state)))

    def test_mu_change_keeps_the_fixed_point(self):
        # the optimality conditions involve b only through the dual mu b, so
        # a converged state stays converged under a new mu once b is rescaled:
        # the same state expressed at another mu must land on the same point
        u_deep, state = _converged_state(self.X, 1.3)
        for mu_other in (1.0, 3.0):
            other = denoise.TvState(state.p, state.d, state.b * state.mu / mu_other, mu_other)
            u, _, end = denoise._tv_bregman_estimate(self.X, 1.3, 5, other)
            assert np.abs(u - u_deep).max() <= 1e-10
            assert end.mu == 2.0 * 1.3

    def test_warm_after_lambda_change_beats_cold(self):
        for lam_old, lam_new in ((1.0, 2.0), (2.0, 1.0), (1.0, 4.0)):
            _, state = _converged_state(self.X, lam_old)
            target, _ = _converged_state(self.X, lam_new)
            warm, _, _ = denoise._tv_bregman_estimate(self.X, lam_new, 5, state)
            cold, _, _ = denoise._tv_bregman_estimate(self.X, lam_new, 5)
            assert np.linalg.norm(warm - target) < np.linalg.norm(cold - target)

    def test_probe_is_a_finite_difference_of_the_warm_map(self):
        _, state = _converged_state(self.X, 1.0)
        before = _arrays(state)
        out = denoise.tv_denoise_bregman(self.X, 1.7, state, probe_seed=3)

        def warm_map(v):
            return denoise._tv_bregman_estimate(v, 1.7, denoise._TV_INNER_ITERS, state)[0]

        div = denoise.mc_divergence(warm_map, self.X, probe_seed=3, eps=1e-3)
        assert np.array_equal(out.estimate, warm_map(self.X))
        assert out.divergence_avg == min(max(div, 0.0), 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(before, _arrays(state)))
        assert out.tv_state is not state and out.tv_state.mu == 2.0 * 1.7

    def carried(self):
        """A warm state that carries the probe value 0.375, and the same state
        without one."""
        _, state = _converged_state(self.X, 1.0)
        return dataclasses.replace(state, divergence=0.375), state

    def test_carried_probe_value_is_returned_exactly(self):
        carried, _ = self.carried()
        out = denoise.tv_denoise_bregman(self.X, 1.7, carried, probe_seed=3)
        assert out.divergence_avg == 0.375

    def test_carried_probe_value_runs_no_probe(self, monkeypatch):
        carried, _ = self.carried()

        def no_probe(*args, **kwargs):
            raise AssertionError("mc_divergence called")

        monkeypatch.setattr(denoise, "mc_divergence", no_probe)
        denoise.tv_denoise_bregman(self.X, 1.7, carried, probe_seed=3)

    def test_carried_probe_value_leaves_the_estimate_as_a_probe_does(self):
        carried, bare = self.carried()
        reused = denoise.tv_denoise_bregman(self.X, 1.7, carried, probe_seed=3)
        probed = denoise.tv_denoise_bregman(self.X, 1.7, bare, probe_seed=3)
        assert np.array_equal(reused.estimate, probed.estimate)
        assert reused.tv_converged == probed.tv_converged
        assert all(np.array_equal(a, b)
                   for a, b in zip(_arrays(reused.tv_state), _arrays(probed.tv_state)))

    def test_a_reuse_hands_on_no_probe_value_and_a_probe_hands_on_its_own(self):
        carried, bare = self.carried()
        reused = denoise.tv_denoise_bregman(self.X, 1.7, carried)
        probed = denoise.tv_denoise_bregman(self.X, 1.7, bare)
        assert reused.tv_state.divergence is None
        assert probed.tv_state.divergence == probed.divergence_avg
        # a chain of warm calls thus probes every second call
        assert denoise.tv_denoise_bregman(self.X, 1.7, reused.tv_state).tv_state.divergence \
            is not None

    def test_cold_call_returns_a_state(self):
        out = denoise.tv_denoise_bregman(self.X, 1.3)
        u_ref, _ = oracles.tv_bregman_reference(self.X, 1.3, denoise._TV_INNER_ITERS)
        assert np.array_equal(out.estimate, u_ref)
        assert out.tv_state.mu == 2.0 * 1.3

    def test_estimate_shares_no_memory_with_its_state(self):
        # mixamp_step blends into an estimate in place, so an estimate that
        # viewed its state's iterate would move the next warm start
        def kernel(state):
            u, _, end = denoise._tv_bregman_estimate(self.X, 1.3, denoise._TV_INNER_ITERS, state)
            return u, end

        def denoiser(state):
            out = denoise.tv_denoise_bregman(self.X, 1.3, state)
            return out.estimate, out.tv_state

        _, _, warm = denoise._tv_bregman_estimate(self.X, 1.0, 5)
        for solve in (kernel, denoiser):
            for start in (None, warm):
                estimate, state = solve(start)
                assert not np.shares_memory(estimate, state.p)
                u_next, end_next = solve(state)
                estimate[...] = np.nan
                u_again, end_again = solve(state)
                assert np.array_equal(u_next, u_again)
                assert all(np.array_equal(a, b) for a, b in zip(_arrays(end_next), _arrays(end_again)))


class TestMcDivergence:
    def test_identity_map(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((8, 8))
        d = denoise.mc_divergence(lambda v: v, x, probe_seed=0, eps=1e-6)
        assert abs(d - 1.0) <= 1e-6

    def test_soft_matches_exact(self):
        rng = np.random.default_rng(20)
        thr = 0.6
        for seed in range(10):
            x = rng.standard_normal((16, 16))
            d = denoise.mc_divergence(
                lambda v: denoise.soft_threshold(v, thr), x, probe_seed=seed, eps=1e-6
            )
            assert abs(d - denoise.soft_threshold_div(x, thr)) <= 0.05

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((8, 8))
        eta = lambda v: denoise.soft_threshold(v, 0.4)
        d1 = denoise.mc_divergence(eta, x, probe_seed=5, eps=1e-5)
        d2 = denoise.mc_divergence(eta, x, probe_seed=5, eps=1e-5)
        assert d1 == d2

    def test_zero_eps_rejected(self):
        with pytest.raises(DomainError):
            denoise.mc_divergence(lambda v: v, np.zeros((4, 4)), probe_seed=0, eps=0.0)


class TestDenoiserSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            denoise.DenoiserSpec(kind="wavelet")

    def test_block_requires_block_side(self):
        with pytest.raises(DimensionError):
            denoise.DenoiserSpec(kind="block_soft")

    def test_bad_tau(self):
        with pytest.raises(DomainError):
            denoise.DenoiserSpec(kind="soft", tau=0.0)
