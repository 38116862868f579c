"""Solver tests: initialization, step algebra, stopping rule, invariants."""

import numpy as np
import pytest

from mixamp import baseline, checks, data, denoise, linops, solver
from mixamp.exceptions import DimensionError, DomainError, SolverDivergenceError

SOFT = denoise.DenoiserSpec(kind="soft")
BLOCK4 = denoise.DenoiserSpec(kind="block_soft", block_side=4)


def small_problem(side=16, mn=0.8, seed=0):
    m = int(round(mn * side * side))
    a = linops.gen_gaussian_sensing(side, m, seed=seed)
    mask = linops.gen_mask(side, m, seed=seed)
    xa = data.gen_shot_noise(
        data.PhantomSpec(kind="shot_noise", side=side, sparsity=0.02, seed=seed)
    )
    xb = data.gen_group_sparse(
        data.PhantomSpec(kind="group_sparse", side=side, block_side=4,
                         active_fraction=0.125, seed=seed)
    )
    y = linops.forward(a, xa + xb, mask)
    return a, mask, xa, xb, y


class TestInit:
    def test_zero_measurements(self):
        mask = linops.full_mask(4)
        state = solver.mixamp_init(np.zeros((4, 4)), mask)
        assert state.theta == 0.0
        assert not state.xa.any() and not state.xb.any()
        assert state.t == 0

    def test_theta_formula_small(self):
        mask = linops.full_mask(2)
        state = solver.mixamp_init(np.ones((2, 2)), mask)
        assert state.theta == pytest.approx(1.0)

    def test_theta_formula_fig2_scale(self):
        mask = linops.gen_mask(128, 11469, seed=1)
        rng = np.random.default_rng(2)
        y = linops.mask_apply(mask, rng.standard_normal((128, 128)))
        state = solver.mixamp_init(y, mask)
        assert state.theta == pytest.approx((y ** 2).sum() / 11469)

    def test_residual_equals_masked_y(self):
        mask = linops.gen_mask(8, 30, seed=3)
        rng = np.random.default_rng(4)
        y = rng.standard_normal((8, 8))
        state = solver.mixamp_init(y, mask)
        assert np.array_equal(state.r, linops.mask_apply(mask, y))


class TestStep:
    def cfg(self, **kw):
        defaults = dict(denoiser_a=SOFT, denoiser_b=BLOCK4, max_iters=10, damping=1.0)
        defaults.update(kw)
        return solver.MixAmpConfig(**defaults)

    def test_zero_problem_fixed_point(self):
        a = linops.gen_gaussian_sensing(8, 40, seed=0)
        mask = linops.gen_mask(8, 40, seed=0)
        y = np.zeros((8, 8))
        state = solver.mixamp_init(y, mask)
        new = solver.mixamp_step(state, linops.MeasurementOperator(a, mask), y, self.cfg())
        assert not new.xa.any() and not new.xb.any() and not new.r.any()
        assert new.theta == 0.0
        assert new.t == 1

    def test_identity_denoiser_residual_algebra(self):
        # thr forced to 0 and every pseudo-data entry nonzero: both
        # divergences are exactly 1 and the update must reduce to
        # r <- y - P{A(xa+xb)A^T} + 2 (N/M) r_prev
        side = 8
        a = linops.gen_gaussian_sensing(side, 40, seed=5)
        mask = linops.gen_mask(side, 40, seed=6)
        rng = np.random.default_rng(7)
        y = linops.mask_apply(mask, rng.uniform(0.5, 1.0, (side, side)))
        state = solver.MixAmpState(
            xa=rng.uniform(0.5, 1.0, (side, side)),
            xb=rng.uniform(0.5, 1.0, (side, side)),
            r=y.copy(),
            theta=0.0,
            t=0,
        )
        # identity denoisers via soft thresholding at theta = 0
        cfg = self.cfg(
            denoiser_a=denoise.DenoiserSpec(kind="soft"),
            denoiser_b=denoise.DenoiserSpec(kind="soft"),
        )
        new = solver.mixamp_step(state, linops.MeasurementOperator(a, mask), y, cfg)
        n, m = side * side, mask.m
        expected_xa = linops.adjoint(a, y) + state.xa
        assert np.allclose(new.xa, expected_xa, atol=1e-13)
        expected_r = y - linops.forward(a, new.xa + new.xb, mask) + 2.0 * (n / m) * y
        assert np.allclose(new.r, expected_r, atol=1e-12)

    def test_micro_identity_sensing_oracle(self):
        # full sampling with A = I: the xa update is plain denoising of
        # (r + xa) with r = y at t = 0
        side = 8
        a = linops.identity_sensing(side)
        mask = linops.full_mask(side)
        rng = np.random.default_rng(8)
        y = rng.standard_normal((side, side))
        state = solver.mixamp_init(y, mask)
        cfg = self.cfg()
        new = solver.mixamp_step(state, linops.MeasurementOperator(a, mask), y, cfg)
        thr = denoise.threshold_from_theta(state.theta, cfg.denoiser_a.tau)
        assert np.allclose(new.xa, denoise.soft_threshold(y, thr), atol=1e-14)

    def test_residual_support_and_theta_consistency(self):
        a, mask, _, _, y = small_problem()
        cfg = self.cfg(
            denoiser_a=denoise.DenoiserSpec(kind="soft", tau=2.5),
            denoiser_b=denoise.DenoiserSpec(kind="block_soft", block_side=4, tau=1.2),
            damping=0.3,
        )
        assert checks.residual_support(a, mask, y, cfg, iters=25) <= 1e-15

    def test_onsager_ablation_difference_at_t1(self):
        a, mask, _, _, y = small_problem(seed=2)
        assert checks.onsager_ablation(
            a, mask, y, denoise.DenoiserSpec(kind="soft", tau=2.5),
            denoise.DenoiserSpec(kind="block_soft", block_side=4, tau=1.2)) <= 1e-12

    def test_divergence_raises_with_iteration(self, monkeypatch):
        a, mask, _, _, y = small_problem(seed=3)
        cfg = self.cfg(
            denoiser_a=denoise.DenoiserSpec(kind="soft", tau=1.0),
            denoiser_b=denoise.DenoiserSpec(kind="block_soft", block_side=4, tau=0.1),
            max_iters=500, damping=1.0,
        )
        steps = []
        step = solver.mixamp_step
        monkeypatch.setattr(solver, "mixamp_step", lambda *args: steps.append(1) or step(*args))
        with pytest.raises(SolverDivergenceError) as info:
            solver.mixamp_run(a, y, mask, cfg)
        # at the floor 1.0 the first blow-up ends the run, long before an overflow
        assert 1 <= info.value.iteration <= len(steps) <= 20
        assert info.value.trace is not None


class TestStoppingTol:
    def test_fixed_point(self):
        x = np.ones((3, 3))
        assert solver.stopping_tol((x, x), (x, x)) == 0.0

    def test_from_zero(self):
        z = np.zeros((3, 3))
        x = np.ones((3, 3))
        assert solver.stopping_tol((z, z), (x, z)) == pytest.approx(1.0)

    def test_hand_instance(self):
        prev = (np.array([[1.0]]), np.array([[0.0]]))
        cur = (np.array([[2.0]]), np.array([[0.0]]))
        assert solver.stopping_tol(prev, cur) == pytest.approx(0.5)

    def test_zero_over_zero(self):
        z = np.zeros((2, 2))
        assert solver.stopping_tol((z, z), (z, z)) == 0.0

    def test_positive_over_zero_is_inf(self):
        z = np.zeros((2, 2))
        x = np.ones((2, 2))
        assert solver.stopping_tol((x, x), (z, z)) == float("inf")


class TestRun:
    CFG = dict(
        denoiser_a=denoise.DenoiserSpec(kind="soft", tau=2.5),
        denoiser_b=denoise.DenoiserSpec(kind="block_soft", block_side=4, tau=1.0),
        damping=0.3,
    )

    def test_zero_y_single_iteration(self):
        a = linops.gen_gaussian_sensing(8, 40, seed=0)
        mask = linops.gen_mask(8, 40, seed=0)
        xa, xb, trace = solver.mixamp_run(a, np.zeros((8, 8)), mask,
                                          solver.MixAmpConfig(**self.CFG))
        assert not xa.any() and not xb.any()
        assert len(trace) == 1
        assert trace.backoffs == 0 and trace.damping_final == 1.0  # theta_0 = 0 never blows up

    def test_stopping_rule_honored(self):
        a, mask, _, _, y = small_problem()
        cfg = solver.MixAmpConfig(max_iters=500, tol=5e-4, **self.CFG)
        _, _, trace = solver.mixamp_run(a, y, mask, cfg)
        assert trace.last.tol_value <= 5e-4 or len(trace) == 500

    def test_micro_mixture_recovery(self):
        # canonical 16x16 instance, M/N = 0.8, seed 0. The achievable
        # accuracy at 100 damped iterations was measured once and frozen:
        # rel error 0.214 (seeds 1-5 span 0.04-0.19); the bound below
        # separates genuine recovery from the ~1.0 of a zero estimate.
        a, mask, xa_true, xb_true, y = small_problem()
        cfg = solver.MixAmpConfig(max_iters=100, tol=1e-12, **self.CFG)
        xa, xb, trace = solver.mixamp_run(a, y, mask, cfg)
        truth = xa_true + xb_true
        rel = np.linalg.norm((xa + xb) - truth) / np.linalg.norm(truth)
        assert rel <= 0.30

    def test_deterministic_trace(self):
        a, mask, _, _, y = small_problem(seed=4)
        cfg = solver.MixAmpConfig(max_iters=30, tol=1e-12, **self.CFG)
        xa1, xb1, t1 = solver.mixamp_run(a, y, mask, cfg)
        xa2, xb2, t2 = solver.mixamp_run(a, y, mask, cfg)
        assert np.array_equal(xa1, xa2) and np.array_equal(xb1, xb2)
        for r1, r2 in zip(t1.records, t2.records):
            assert (r1.t, r1.theta, r1.tol_value, r1.residual_norm) == \
                   (r2.t, r2.theta, r2.tol_value, r2.residual_norm)

    def test_trace_csv_roundtrip(self, tmp_path):
        a, mask, _, _, y = small_problem(seed=5)
        cfg = solver.MixAmpConfig(max_iters=5, tol=1e-12, **self.CFG)
        _, _, trace = solver.mixamp_run(a, y, mask, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,theta,tol,residual_norm,wall_ms"
        assert len(lines) == len(trace) + 1
        trace.to_csv(path, record_timing=False)
        assert all(line.endswith(",0.000") for line in path.read_text().splitlines()[1:])

    def test_tv_denoiser_runs(self):
        side = 16
        m = int(0.8 * side * side)
        a = linops.gen_gaussian_sensing(side, m, seed=6)
        mask = linops.gen_mask(side, m, seed=6)
        rng = np.random.default_rng(6)
        xb = np.where(rng.random((side, side)) > 0.5, 1.0, 0.2)
        y = linops.forward(a, xb, mask)
        cfg = solver.MixAmpConfig(
            denoiser_a=denoise.DenoiserSpec(kind="soft", tau=2.0),
            denoiser_b=denoise.DenoiserSpec(kind="tv_bregman", tau=1.0),
            max_iters=40, damping=0.3,
        )
        xa, xb_hat, trace = solver.mixamp_run(a, y, mask, cfg)
        assert np.isfinite(xb_hat).all()
        assert len(trace) >= 1

    def test_dct_sensing_fast_form_keeps_iteration_counts(self):
        # DCT sensing runs on the fast cosine transform; the negated DCT
        # takes the dense form, and (-A) X (-A)^T equals A X A^T exactly, so
        # the forms differ in rounding only and the iteration counts agree
        cfg = solver.MixAmpConfig(
            denoiser_a=denoise.DenoiserSpec(kind="soft", tau=1.5),
            denoiser_b=denoise.DenoiserSpec(kind="block_soft", block_side=4, tau=1.0),
        )
        for side, seed in ((16, 0), (16, 1), (32, 2), (32, 3), (64, 4)):
            _, mask, xa, xb, _ = small_problem(side=side, mn=0.7, seed=seed)
            a = linops.dct_sensing(side)
            y = linops.forward(a, xa + xb, mask)
            fast = solver.mixamp_run(a, y, mask, cfg)
            dense = solver.mixamp_run(linops.SensingMatrix(entries=-a.entries), y, mask, cfg)
            assert len(fast[2]) == len(dense[2])
            assert np.abs(fast[0] - dense[0]).max() <= 1e-9
            assert np.abs(fast[1] - dense[1]).max() <= 1e-9


class TestBackoff:
    """mixamp_run starts at step 1.0 and backs off towards cfg.damping on a blow-up."""

    SPECS = dict(denoiser_a=denoise.DenoiserSpec(kind="soft", tau=1.5), denoiser_b=BLOCK4)

    def test_equals_a_hand_loop_when_the_guard_never_fires(self):
        _, mask, xa, xb, _ = small_problem(side=32, mn=0.7, seed=2)
        a = linops.dct_sensing(32)
        y = linops.forward(a, xa + xb, mask)
        cfg = solver.MixAmpConfig(**self.SPECS, damping=1.0)
        xa_run, xb_run, trace = solver.mixamp_run(a, y, mask, cfg)

        y_run, c = solver.normalize_problem(a, y, mask)
        op = linops.MeasurementOperator(a, mask, c)
        state = solver.mixamp_init(y_run, mask)
        thetas = []
        for _ in range(cfg.max_iters):
            new = solver.mixamp_step(state, op, y_run, cfg)
            tol = solver.stopping_tol((state.xa, state.xb), (new.xa, new.xb))
            state = new
            thetas.append(state.theta)
            if tol <= cfg.tol:
                break
        assert trace.backoffs == 0 and trace.damping_final == 1.0
        assert np.array_equal(xa_run, state.xa) and np.array_equal(xb_run, state.xb)
        assert [r.theta for r in trace.records] == thetas

    def test_gaussian_run_backs_off_to_no_less_than_the_floor(self, monkeypatch):
        a, mask, _, _, y = small_problem(side=32, mn=0.7, seed=1)
        cfg = solver.MixAmpConfig(**self.SPECS, damping=0.3)
        steps = []
        step = solver.mixamp_step
        monkeypatch.setattr(solver, "mixamp_step",
                            lambda state, op, y, cfg: steps.append(cfg.damping) or step(state, op, y, cfg))
        _, _, trace = solver.mixamp_run(a, y, mask, cfg)
        assert trace.last.tol_value <= cfg.tol
        assert trace.backoffs >= 1 and steps[0] == 1.0
        assert min(steps) >= 0.3 and steps[-1] == trace.damping_final
        assert steps == sorted(steps, reverse=True)
        assert len(set(steps)) == trace.backoffs + 1
        assert [r.t for r in trace.records] == list(range(1, len(trace) + 1))


class TestTvStateCarry:
    """A TV component hands its split-Bregman state on from step to step."""

    TV = denoise.DenoiserSpec(kind="tv_bregman", tau=1.0, tv_inner_iters=5)

    def setup(self, damping):
        a, mask, _, _, y = small_problem(seed=3)
        y_run, c = solver.normalize_problem(a, y, mask)
        cfg = solver.MixAmpConfig(denoiser_a=denoise.DenoiserSpec(kind="soft", tau=2.0),
                                  denoiser_b=self.TV, damping=damping)
        op = linops.MeasurementOperator(a, mask, c)
        return op, y_run, cfg, solver.mixamp_step(solver.mixamp_init(y_run, mask), op, y_run, cfg)

    def test_step_is_pure_and_hands_on_a_new_state(self):
        op, y, cfg, s1 = self.setup(damping=0.3)
        assert s1.tv_a is None and isinstance(s1.tv_b, denoise.TvState)
        before = [s1.tv_b.p.copy(), s1.tv_b.d.copy(), s1.tv_b.b.copy()]
        s2 = solver.mixamp_step(s1, op, y, cfg)
        again = solver.mixamp_step(s1, op, y, cfg)
        for name in ("xa", "xb", "r"):
            assert np.array_equal(getattr(s2, name), getattr(again, name)), name
        assert s2.theta == again.theta and np.array_equal(s2.tv_b.p, again.tv_b.p)
        assert s2.tv_b is not s1.tv_b
        assert all(np.array_equal(a, b) for a, b in zip(before, (s1.tv_b.p, s1.tv_b.d, s1.tv_b.b)))

    def test_denoising_starts_from_the_carried_state(self):
        op, y, cfg, s1 = self.setup(damping=1.0)
        thr = denoise.threshold_from_theta(s1.theta, self.TV.tau)
        seed = 2 * s1.t + 1
        expected = denoise.tv_denoise_bregman(op.adjoint(s1.r) + s1.xb, 1.0 / thr, self.TV, s1.tv_b,
                                              probe_seed=seed)
        cold = denoise.tv_denoise_bregman(op.adjoint(s1.r) + s1.xb, 1.0 / thr, self.TV,
                                          probe_seed=seed)
        s2 = solver.mixamp_step(s1, op, y, cfg)
        assert np.array_equal(s2.xb, expected.estimate)
        assert not np.array_equal(s2.xb, cold.estimate)

    def test_identity_path_hands_on_no_state(self):
        x = np.random.default_rng(4).standard_normal((8, 8))
        state = denoise.tv_denoise_bregman(x, 1.0, self.TV).tv_state
        out = solver.apply_denoiser(self.TV, x, 0.0, tv_state=state)
        assert np.array_equal(out.estimate, x) and out.tv_state is None


class TestNonFiniteMeasurement:
    """A NaN or inf in a sampled entry of Y, or a block side that does not
    divide the grid side, stops both solvers before their first iteration."""

    CFG = solver.MixAmpConfig(denoiser_a=SOFT, denoiser_b=BLOCK4, damping=0.3)
    BASE = baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, max_iters=50)

    def run(self, name, a, y, mask):
        if name == "mixamp":
            return solver.mixamp_run(a, y, mask, self.CFG)
        return baseline.baseline_solve(a, y, mask, self.BASE, "group")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["mixamp", "baseline"])
    def test_sampled_entry_is_a_domain_error(self, name, value, monkeypatch):
        a, mask, _, _, y = small_problem(seed=2)
        k, l = np.argwhere(mask.grid)[5]
        y[k, l] = value
        products = []
        forward = linops.forward
        monkeypatch.setattr(linops, "forward", lambda *args: products.append(1) or forward(*args))
        with pytest.raises(DomainError, match=rf"Y\[{k}, {l}\]"):
            self.run(name, a, y, mask)
        assert not products  # raised before the first iteration

    @pytest.mark.parametrize("name", ["mixamp", "baseline"])
    def test_block_side_not_dividing_is_found_before_any_work(self, name, monkeypatch):
        a, mask = linops.gen_gaussian_sensing(6, 30, seed=0), linops.gen_mask(6, 30, seed=1)
        monkeypatch.setattr(linops, "masked_measurements", None)  # the first work of both
        with pytest.raises(DimensionError, match="^grid side 6 is not divisible by block side 4$"):
            self.run(name, a, np.zeros((6, 6)), mask)

    @pytest.mark.parametrize("name", ["mixamp", "baseline"])
    def test_unsampled_entry_is_ignored(self, name):
        a, mask, _, _, y = small_problem(seed=2)
        clean = self.run(name, a, y, mask)
        k, l = np.argwhere(~mask.grid)[0]
        y[k, l] = np.nan
        poisoned = self.run(name, a, y, mask)
        assert np.array_equal(clean[0], poisoned[0]) and np.array_equal(clean[1], poisoned[1])
        assert len(clean[2]) == len(poisoned[2])


class TestNormalizeProblem:
    def test_exact_reparameterization(self):
        a, mask, _, _, y = small_problem(seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((16, 16))
        y2, c = solver.normalize_problem(a, y, mask)
        # the scaled pair describes the same linear relation
        assert np.allclose(linops.MeasurementOperator(a, mask, c).forward(x),
                           c * c * linops.forward(a, x, mask), rtol=1e-12, atol=1e-12)
        assert np.allclose(y2, c * c * y, atol=0)

    def test_matrix_side_must_match_mask(self):
        # the side is the shape of entries, so a 4x4 matrix cannot pose as side 8
        a = linops.SensingMatrix(entries=np.eye(4))
        mask = linops.gen_mask(8, 40, seed=0)
        cfg = solver.MixAmpConfig(denoiser_a=SOFT, denoiser_b=BLOCK4)
        with pytest.raises(DimensionError, match="does not match matrix side 4"):
            solver.mixamp_run(a, np.zeros((8, 8)), mask, cfg)

    def test_identity_full_mask_mild_scale(self):
        a = linops.identity_sensing(8)
        mask = linops.full_mask(8)
        y = np.ones((8, 8))
        _, c = solver.normalize_problem(a, y, mask)
        assert c == pytest.approx(1.0)


class TestConfigRejectsNaN:
    @pytest.mark.parametrize("build", [
        lambda: denoise.DenoiserSpec(kind="soft", tau=float("nan")),
        lambda: solver.MixAmpConfig(denoiser_a=SOFT, denoiser_b=SOFT, tol=float("nan")),
        lambda: baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, rho=float("nan")),
        lambda: baseline.BaselineConfig(lambda1=float("nan"), lambda2=1.2),
        lambda: solver.MixAmpConfig(denoiser_a=SOFT, denoiser_b=SOFT, max_iters=float("nan")),
        lambda: solver.MixAmpConfig(denoiser_a=SOFT, denoiser_b=SOFT, max_iters=10.0),
        lambda: baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, max_iters=float("nan")),
        lambda: baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, max_iters=True),
        lambda: baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, tv_inner_iters=2.5),
        lambda: baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, tv_inner_iters=0),
        lambda: baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, block_side=0),
        lambda: denoise.DenoiserSpec(kind="tv_bregman", tv_inner_iters=float("nan")),
        lambda: denoise.DenoiserSpec(kind="block_soft", block_side=4.0),
        lambda: denoise.DenoiserSpec(kind="block_soft", block_side=float("nan")),
        lambda: denoise.DenoiserSpec(kind="soft", tau=float("inf")),
        lambda: solver.MixAmpConfig(denoiser_a=SOFT, denoiser_b=SOFT, tol=float("inf")),
        lambda: baseline.BaselineConfig(lambda1=0.5, lambda2=1.2, rho=float("inf")),
        lambda: baseline.BaselineConfig(lambda1=float("inf"), lambda2=1.2),
    ], ids=["DenoiserSpec.tau", "MixAmpConfig.tol", "BaselineConfig.rho", "BaselineConfig.lambda1",
            "MixAmpConfig.max_iters-nan", "MixAmpConfig.max_iters-float",
            "BaselineConfig.max_iters-nan", "BaselineConfig.max_iters-bool",
            "BaselineConfig.tv_inner_iters-float", "BaselineConfig.tv_inner_iters-zero",
            "BaselineConfig.block_side-zero", "DenoiserSpec.tv_inner_iters-nan",
            "DenoiserSpec.block_side-float",
            "DenoiserSpec.block_side-nan", "DenoiserSpec.tau-inf", "MixAmpConfig.tol-inf",
            "BaselineConfig.rho-inf", "BaselineConfig.lambda1-inf"])
    def test_nan_is_a_domain_error(self, build):
        with pytest.raises(DomainError):
            build()
