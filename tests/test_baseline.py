"""Baseline solver tests: objective, optimality probes, step-size bound."""

import numpy as np
import pytest

import oracles
from mixamp import baseline, data, denoise, linops
from mixamp.exceptions import DomainError, SolverError

CFG_GROUP = dict(lambda1=0.5, lambda2=1.2, block_side=2)


def group_problem(side=8, mn=0.8, seed=0, block_side=2):
    m = int(round(mn * side * side))
    a = linops.gen_gaussian_sensing(side, m, seed=seed)
    mask = linops.gen_mask(side, m, seed=seed + 1)
    xa = data.gen_shot_noise(
        data.PhantomSpec(kind="shot_noise", side=side, sparsity=0.05, seed=seed)
    )
    xb = data.gen_group_sparse(
        data.PhantomSpec(kind="group_sparse", side=side, block_side=block_side,
                         active_fraction=0.25, seed=seed + 2)
    )
    y = linops.forward(a, xa + xb, mask)
    return a, mask, xa, xb, y


class TestObjectiveEval:
    def test_zero_point(self):
        a, mask, _, _, y = group_problem()
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        val, _ = baseline.objective_eval(np.zeros((8, 8)), np.zeros((8, 8)),
                                         linops.MeasurementOperator(a, mask), y, cfg, "group")
        assert val == pytest.approx(0.5 * cfg.rho * (y ** 2).sum())

    def test_ground_truth_zero_data_term(self):
        # noiseless full-sampling instance: only the penalty terms remain
        side = 8
        a = linops.identity_sensing(side)
        mask = linops.full_mask(side)
        xa, xb = group_problem(side=side)[2:4]
        y = linops.forward(a, xa + xb, mask)
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        val, _ = baseline.objective_eval(xa, xb, linops.MeasurementOperator(a, mask), y, cfg, "group")
        penalties = (cfg.lambda1 * np.abs(xa).sum()
                     + cfg.lambda2 * baseline._regularizer(xb, cfg, "group"))
        assert val == pytest.approx(penalties, rel=1e-12)

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(0)
        a, mask, _, _, y = group_problem()
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        op = linops.MeasurementOperator(a, mask)
        for variant in ("group", "tv"):
            for _ in range(5):
                xa = rng.standard_normal((8, 8))
                xb = rng.standard_normal((8, 8))
                ours, _ = baseline.objective_eval(xa, xb, op, y, cfg, variant)
                ref = oracles.straight_line_objective(
                    xa, xb, a.entries, y, mask.grid.astype(float), cfg.rho,
                    cfg.lambda1, cfg.lambda2, variant, block_side=cfg.block_side,
                )
                assert ours == pytest.approx(ref, rel=1e-12)

    def test_bad_variant(self):
        a, mask, _, _, y = group_problem()
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        with pytest.raises(DomainError):
            baseline.objective_eval(np.zeros((8, 8)), np.zeros((8, 8)),
                                    linops.MeasurementOperator(a, mask), y, cfg, "wavelet")


def assert_descent_lemma(a, mask, y, cfg):
    # descent lemma with the estimated step on 100 random pairs
    lip = baseline.estimate_lipschitz(linops.MeasurementOperator(a, mask), cfg)
    rng = np.random.default_rng(4)
    side = a.side

    def f_smooth(za, zb):
        resid = y - linops.forward(a, za + zb, mask)
        return 0.5 * cfg.rho * float((resid ** 2).sum())

    for _ in range(100):
        za = rng.standard_normal((side, side))
        zb = rng.standard_normal((side, side))
        grad = -cfg.rho * linops.adjoint(a, y - linops.forward(a, za + zb, mask))
        gnorm2 = 2.0 * float((grad ** 2).sum())  # same gradient for both blocks
        stepped = f_smooth(za - grad / lip, zb - grad / lip)
        assert stepped <= f_smooth(za, zb) - gnorm2 / (2.0 * lip) + 1e-9 * max(1.0, abs(stepped))


class TestLipschitz:
    def test_no_gradient_overshoot(self):
        a, mask, _, _, y = group_problem(seed=3)
        assert_descent_lemma(a, mask, y, baseline.BaselineConfig(**CFG_GROUP))

    def test_no_gradient_overshoot_dct(self):
        _, mask, xa, xb, _ = group_problem(seed=3)
        a = linops.dct_sensing(8)
        y = linops.forward(a, xa + xb, mask)
        assert_descent_lemma(a, mask, y, baseline.BaselineConfig(**CFG_GROUP))

    @staticmethod
    def counted(op):
        """op with its forward products counted in the returned list."""
        calls, forward = [], op.forward
        op.forward = lambda x: calls.append(1) or forward(x)
        return op, calls

    @pytest.mark.parametrize("side", [8, 32, 256])
    def test_closed_form_matches_power_iteration(self, side):
        # the negated DCT and the identity have the same M*M as the DCT but
        # take the dense form, so their step comes from a power iteration
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        mask = linops.gen_mask(side, int(0.7 * side * side), seed=side)
        dct = linops.dct_sensing(side)
        dense = [linops.SensingMatrix(entries=-dct.entries)]
        dense += [linops.identity_sensing(side)] if side < 256 else []
        for scale in (1.0, 1.3):
            closed = baseline.estimate_lipschitz(linops.MeasurementOperator(dct, mask, scale), cfg)
            for a in dense:
                op, calls = self.counted(linops.MeasurementOperator(a, mask, scale))
                power = baseline.estimate_lipschitz(op, cfg)
                assert len(calls) == baseline._POWER_ITERS
                assert abs(closed - power) <= 1e-9 * power, scale

    def test_dense_matrix_runs_the_power_iteration(self):
        # a Gaussian matrix at a power-of-two side is not the DCT
        a, mask, _, _, _ = group_problem(side=16, seed=3)
        op, calls = self.counted(linops.MeasurementOperator(a, mask))
        baseline.estimate_lipschitz(op, baseline.BaselineConfig(**CFG_GROUP))
        assert len(calls) == baseline._POWER_ITERS

    def test_closed_form_runs_no_products(self):
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        op = linops.MeasurementOperator(linops.dct_sensing(256), linops.gen_mask(256, 40000, seed=1))
        op.forward = op.adjoint = None  # any product would raise
        assert baseline.estimate_lipschitz(op, cfg) == cfg.rho * 2.0 * 1.02

    def test_zero_operator_is_a_solver_error(self):
        # a non-zero matrix and a non-empty mask can still compose to zero:
        # A X A^T lives on entry (0, 0), which the mask does not sample
        corner = np.zeros((8, 8))
        corner[0, 0] = 1.0
        a = linops.SensingMatrix(entries=corner)
        mask = linops.SamplingMask(grid=corner == 0.0)
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        assert baseline.estimate_lipschitz(linops.MeasurementOperator(a, mask), cfg) == 0.0
        with pytest.raises(SolverError, match="composed operator is identically zero"):
            baseline.baseline_solve(a, np.ones((8, 8)), mask, cfg, "group")


class TestBaselineSolve:
    def test_zero_measurements_zero_solution(self):
        a, mask, _, _, _ = group_problem(seed=5)
        cfg = baseline.BaselineConfig(max_iters=50, **CFG_GROUP)
        xa, xb, trace = baseline.baseline_solve(a, np.zeros((8, 8)), mask, cfg, "group")
        assert not xa.any() and not xb.any()

    def test_micro_random_probe_optimality(self):
        # side 4, full sampling, identity A: no random feasible point beats
        # the solver output
        side = 4
        a = linops.identity_sensing(side)
        mask = linops.full_mask(side)
        rng = np.random.default_rng(6)
        y = rng.standard_normal((side, side))
        cfg = baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, block_side=2,
                                      max_iters=2000, tol=1e-10)
        xa, xb, _ = baseline.baseline_solve(a, y, mask, cfg, "group")
        op = linops.MeasurementOperator(a, mask)
        best, _ = baseline.objective_eval(xa, xb, op, y, cfg, "group")
        for _ in range(500):
            pa = xa + 0.3 * rng.standard_normal((side, side))
            pb = xb + 0.3 * rng.standard_normal((side, side))
            assert best <= baseline.objective_eval(pa, pb, op, y, cfg, "group")[0] + 1e-9

    def test_monotone_objective(self):
        a, mask, _, _, y = group_problem(seed=7)
        cfg = baseline.BaselineConfig(max_iters=300, **CFG_GROUP)
        _, _, trace = baseline.baseline_solve(a, y, mask, cfg, "group")
        objs = [rec.objective for rec in trace.records]
        assert all(b <= a_ + 1e-10 for a_, b in zip(objs, objs[1:]))

    def test_fig3_analog_parameters_accepted(self):
        a, mask, _, _, y = group_problem(seed=8)
        cfg = baseline.BaselineConfig(lambda1=2.0, lambda2=1.4, max_iters=40)
        xa, xb, trace = baseline.baseline_solve(a, y, mask, cfg, "tv")
        assert cfg.lambda1 == 2.0 and cfg.lambda2 == 1.4
        assert len(trace) >= 1
        assert np.isfinite(xa).all() and np.isfinite(xb).all()

    def test_data_term_non_increasing_in_rho(self):
        a, mask, _, _, y = group_problem(seed=9)
        fits = []
        for rho in (1e2, 1e4, 1e6):
            cfg = baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, block_side=2,
                                          rho=rho, max_iters=3000, tol=1e-9)
            xa, xb, _ = baseline.baseline_solve(a, y, mask, cfg, "group")
            resid = y - linops.forward(a, xa + xb, mask)
            fits.append(float((resid ** 2).sum()))
        assert fits[0] >= fits[1] >= fits[2]

    def test_tv_variant_runs(self):
        a, mask, _, _, y = group_problem(seed=10)
        cfg = baseline.BaselineConfig(lambda1=2.0, lambda2=1.4, max_iters=60)
        xa, xb, trace = baseline.baseline_solve(a, y, mask, cfg, "tv")
        start = 0.5 * cfg.rho * (y ** 2).sum()
        assert trace.records[-1].objective <= start

    def test_stopping_tol_matches_solver_formula(self):
        a, mask, _, _, y = group_problem(seed=11)
        cfg = baseline.BaselineConfig(max_iters=500, tol=1e-3, **CFG_GROUP)
        _, _, trace = baseline.baseline_solve(a, y, mask, cfg, "group")
        assert trace.last.tol_value <= 1e-3 or len(trace) == 500

    @pytest.mark.parametrize("variant", ["group", "tv"])
    def test_record_residual_norm_matches_state(self, variant):
        # each record's residual_norm, taken from the objective evaluation of
        # the accepted state, equals the norm recomputed from that state; the
        # state after k iterations is what a run with max_iters=k returns
        a, mask, _, _, y = group_problem(seed=12)
        lambdas = dict(lambda1=0.5, lambda2=1.2) if variant == "group" else dict(lambda1=2.0,
                                                                                  lambda2=1.4)
        full = None
        rejected = 0
        for k in range(1, 13):
            cfg = baseline.BaselineConfig(max_iters=k, tol=1e-12, block_side=2, **lambdas)
            xa, xb, trace = baseline.baseline_solve(a, y, mask, cfg, variant)
            rec = trace.last
            assert rec.residual_norm == np.linalg.norm(y - linops.forward(a, xa + xb, mask))
            if full is not None:
                assert [r.objective for r in trace.records[:-1]] == full
                rejected += rec.objective == full[-1]
            full = [r.objective for r in trace.records]
        assert rejected >= 1  # the reused residual of a rejected step is covered

    def test_tv_prox_starts_where_the_last_one_ended(self, monkeypatch):
        # every TV prox of a run after the first starts from the state the
        # previous one left, at the same mu; the first starts cold
        calls = []
        kernel = denoise._tv_bregman_estimate

        def spy(x, lam, iters, state=None):
            start = None if state is None else (state.p.copy(), state.mu)
            result = kernel(x, lam, iters, state)
            calls.append((start, result[2].p.copy(), result[2].mu))
            return result

        monkeypatch.setattr(denoise, "_tv_bregman_estimate", spy)
        a, mask, _, _, y = group_problem(seed=13)
        cfg = baseline.BaselineConfig(lambda1=2.0, lambda2=1.4, max_iters=30, tv_inner_iters=5)
        baseline.baseline_solve(a, y, mask, cfg, "tv")
        assert len(calls) == 30 and calls[0][0] is None
        for (_, p_end, mu_end), (start, _, mu) in zip(calls, calls[1:]):
            assert np.array_equal(start[0], p_end) and start[1] == mu_end == mu
