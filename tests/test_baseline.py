"""Baseline solver tests: objective, optimality probes, step-size bound."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from mixamp import baseline, checks, cli, data, denoise, linops
from mixamp.exceptions import DegenerateProblemError, DomainError, SolverDivergenceError

CFG_GROUP = dict(lambda1=0.5, lambda2=1.2, block_side=2)
CFG_TV = dict(lambda1=2.0, lambda2=1.4, block_side=2)


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
        a = oracles.identity_sensing(side)
        mask = oracles.full_mask(side)
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


def counting(calls, name, product):
    """product with each call counted in calls[name]."""
    def counted(*args):
        calls[name] += 1
        return product(*args)
    return counted


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
        """op with its forward, adjoint and Gram products counted in the returned dict."""
        calls = {"forward": 0, "adjoint": 0, "gram": 0}
        op.forward = counting(calls, "forward", op.forward)
        op.adjoint = counting(calls, "adjoint", op.adjoint)
        gram_map = op.gram_map
        op.gram_map = lambda: counting(calls, "gram", gram_map())
        return op, calls

    @pytest.mark.parametrize("side", [8, 32, 256])
    def test_closed_form_matches_power_iteration(self, side):
        # the negated DCT and the identity have the same M*M as the DCT but
        # take the dense form. Their Gram matrix (cA)(cA)^T is c^2 I, so the
        # first Lanczos step finds an invariant subspace: one Gram product,
        # no forward or adjoint
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        mask = linops.gen_mask(side, int(0.7 * side * side), seed=side)
        dct = linops.dct_sensing(side)
        dense = [linops.SensingMatrix(entries=-dct.entries)]
        dense += [oracles.identity_sensing(side)] if side < 256 else []
        for scale in (1.0, 1.3):
            closed = baseline.estimate_lipschitz(linops.MeasurementOperator(dct, mask, scale), cfg)
            for a in dense:
                op, calls = self.counted(linops.MeasurementOperator(a, mask, scale))
                lanczos = baseline.estimate_lipschitz(op, cfg)
                assert calls == {"forward": 0, "adjoint": 0, "gram": 1}
                assert abs(closed - lanczos) <= 1e-12 * lanczos, scale

    def test_dense_matrix_runs_the_power_iteration(self):
        # a Gaussian matrix at a power-of-two side is not the DCT: its
        # Lanczos recurrence runs 19 steps, more than one and fewer than
        # _LANCZOS_MAX_STEPS. Capped at 18 and 17 steps it returns the top
        # Ritz values of those steps, so the 19th moved by at most
        # _LANCZOS_RTOL and the 18th by more: the 1e-9 rule ended the run
        a, mask, _, _, _ = group_problem(side=16, seed=3)
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        op, calls = self.counted(linops.MeasurementOperator(a, mask))
        full = baseline.estimate_lipschitz(op, cfg)
        assert calls == {"forward": 0, "adjoint": 0, "gram": 19}
        capped = []
        for steps in (18, 17):
            op, calls = self.counted(linops.MeasurementOperator(a, mask))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(baseline, "_LANCZOS_MAX_STEPS", steps)
                capped.append(baseline.estimate_lipschitz(op, cfg))
            assert calls["gram"] == steps
        assert abs(full - capped[0]) <= baseline._LANCZOS_RTOL * full
        assert abs(capped[0] - capped[1]) > baseline._LANCZOS_RTOL * capped[0]

    def test_rank_one_operator_stops_after_one_step(self):
        # one sample at side 2 makes the map rank one: the first Lanczos step
        # leaves beta exactly 0, and the value is rho * 2 * G[0, 0] * G[1, 1] * 1.02
        # with G = A A^T = [[5, 4], [4, 5]]
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        a = linops.SensingMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]]))
        mask = linops.SamplingMask(grid=np.array([[False, True], [False, False]]))
        op, calls = self.counted(linops.MeasurementOperator(a, mask))
        assert baseline.estimate_lipschitz(op, cfg) == cfg.rho * 2.0 * 25.0 * 1.02 == 510000.0
        assert calls == {"forward": 0, "adjoint": 0, "gram": 1}

    @pytest.mark.parametrize("side", [4, 8, 16])
    def test_matches_the_kronecker_oracle(self, side):
        # the CLI's group problems, unscaled and scaled: the estimate is the
        # top eigenvalue of the masked Kronecker model to 1e-8 relative
        instances = []
        for mn in (0.3, 0.9):
            for seed in range(4):
                params = cli._resolve_params(cli.build_parser().parse_args(
                    ["separate", "--side", str(side), "--block", "2", "--sampling", str(mn),
                     "--seed", str(seed)]))
                a, mask = cli.build_problem(params)[:2]
                cfg = cli._baseline_config(params)
                instances += [(a, mask, scale, cfg) for scale in (1.0, 1.3)]
        assert checks.lipschitz_kron(instances) <= 1e-8

    def test_closed_form_runs_no_products(self):
        cfg = baseline.BaselineConfig(**CFG_GROUP)
        op = linops.MeasurementOperator(linops.dct_sensing(256), linops.gen_mask(256, 40000, seed=1))
        op.forward = op.adjoint = None  # any product would raise
        assert baseline.estimate_lipschitz(op, cfg) == cfg.rho * 2.0 * 1.02

    def test_zero_operator_is_rejected_at_the_operator(self, monkeypatch):
        # a non-zero matrix and a non-empty mask can still compose to zero:
        # A X A^T lives on entry (0, 0), which the mask does not sample. The
        # operator rejects it when it is built, so no step is ever estimated
        corner = np.zeros((8, 8))
        corner[0, 0] = 1.0
        a = linops.SensingMatrix(entries=corner)
        mask = linops.SamplingMask(grid=corner == 0.0)
        with pytest.raises(DegenerateProblemError, match="identically zero"):
            linops.MeasurementOperator(a, mask)
        monkeypatch.setattr(baseline, "estimate_lipschitz", None)  # a call would raise
        with pytest.raises(DegenerateProblemError, match="identically zero"):
            baseline.baseline_solve(a, np.ones((8, 8)), mask,
                                    baseline.BaselineConfig(**CFG_GROUP), "group")


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
        a = oracles.identity_sensing(side)
        mask = oracles.full_mask(side)
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

    @pytest.mark.parametrize("cause", ["rho", "lanczos"])
    def test_non_finite_step_constant_is_a_domain_error(self, cause, monkeypatch):
        # rho = 1e308 overflows L to inf, and an overflowed Lanczos product makes it
        # NaN; the step 1/L = 0 of an infinite L stalled at the zero estimate and
        # read as converged
        a, mask, _, _, y = group_problem()
        cfg = baseline.BaselineConfig(0.5, 1.2, rho=1e308 if cause == "rho" else 1e4)
        if cause == "lanczos":
            monkeypatch.setattr(baseline, "estimate_lipschitz", lambda op, cfg: float("nan"))
        products = []
        adjoint = linops.adjoint
        monkeypatch.setattr(linops, "adjoint", lambda *args: products.append(1) or adjoint(*args))
        with pytest.raises(DomainError, match=r"^the step constant L of rho .* got (inf|nan)$"):
            baseline.baseline_solve(a, y, mask, cfg, "group")
        assert not products  # raised before the first iteration

    def test_stopping_tol_matches_solver_formula(self):
        a, mask, _, _, y = group_problem(seed=11)
        cfg = baseline.BaselineConfig(max_iters=500, tol=1e-3, **CFG_GROUP)
        _, _, trace = baseline.baseline_solve(a, y, mask, cfg, "group")
        assert trace.last.tol_value <= 1e-3 or len(trace) == 500

    @pytest.mark.parametrize("variant", ["group", "tv"])
    def test_one_forward_and_one_adjoint_per_iteration(self, variant, monkeypatch):
        # one objective at the zero state, then per iteration the gradient's
        # adjoint and the candidate's objective; the extrapolated point's
        # residual costs no product. The step estimate runs Gram products
        # only, 10 of them on this problem, counted apart
        calls = {"forward": 0, "adjoint": 0, "gram": 0}
        for name in ("forward", "adjoint"):
            monkeypatch.setattr(linops.MeasurementOperator, name,
                                counting(calls, name, getattr(linops.MeasurementOperator, name)))
        gram_map = linops.MeasurementOperator.gram_map
        monkeypatch.setattr(linops.MeasurementOperator, "gram_map",
                            lambda op: counting(calls, "gram", gram_map(op)))
        a, mask, _, _, y = group_problem(seed=7)
        lambdas = CFG_GROUP if variant == "group" else CFG_TV
        cfg = baseline.BaselineConfig(max_iters=40, **lambdas)
        _, _, trace = baseline.baseline_solve(a, y, mask, cfg, variant)
        iters = len(trace)
        assert calls == {"forward": 1 + iters, "adjoint": iters, "gram": 10}

    @pytest.mark.parametrize("variant,seed,max_iters", [("group", 1, 300), ("group", 3, 300),
                                                        ("tv", 8, 100), ("tv", 13, 100)])
    def test_matches_reference_fista(self, variant, seed, max_iters):
        # the carried residual of the extrapolated point against a FISTA that
        # recomputes it by a forward product: the same accepted and rejected
        # steps, each rejection restarting the momentum, and the same estimates up
        # to rounding (one ulp of y moves a 100-iteration tv run by up to about 5e-14)
        a, mask, _, _, y = group_problem(seed=seed)
        lambdas = CFG_GROUP if variant == "group" else CFG_TV
        cfg = baseline.BaselineConfig(max_iters=max_iters, **lambdas)
        xa, xb, trace = baseline.baseline_solve(a, y, mask, cfg, variant)
        ref_a, ref_b, objectives, accepted = oracles.reference_fista(a, y, mask, cfg, variant)
        assert [rec.tol_value != 0.0 for rec in trace.records] == accepted
        assert not all(accepted)  # at least one restart is covered
        assert [rec.objective for rec in trace.records] == pytest.approx(objectives, rel=1e-12)
        scale = max(np.abs(ref_a).max(), np.abs(ref_b).max())
        assert np.abs(xa - ref_a).max() <= 1e-12 * scale
        assert np.abs(xb - ref_b).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shrink", [1, 5])
    def test_step_after_a_rejection_is_plain(self, shrink, monkeypatch):
        # every rejection restarts the momentum, so the next candidate is the
        # proximal gradient step from the accepted state: bit for bit the one
        # computed here from that state by a direct forward product. A step five
        # times too long covers plain steps that are rejected in turn
        soft, block, estimate = (denoise.soft_threshold, denoise.block_soft_threshold,
                                 baseline.estimate_lipschitz)
        cands_a, cands_b = [], []
        monkeypatch.setattr(denoise, "soft_threshold",
                            lambda v, thr: cands_a.append(soft(v, thr)) or cands_a[-1])
        monkeypatch.setattr(denoise, "block_soft_threshold",
                            lambda v, side, thr: cands_b.append(block(v, side, thr)) or cands_b[-1])
        monkeypatch.setattr(baseline, "estimate_lipschitz",
                            lambda op, cfg: estimate(op, cfg) / shrink)
        a, mask, _, _, y = group_problem(seed=1)
        cfg = baseline.BaselineConfig(max_iters=300, **CFG_GROUP)
        try:
            records = baseline.baseline_solve(a, y, mask, cfg, "group")[2].records
        except SolverDivergenceError as err:  # the iteration that gave up is untraced
            records = err.trace.records
        op = linops.MeasurementOperator(a, mask)
        y = linops.masked_measurements(mask, y)
        lip = estimate(op, cfg) / shrink
        xa = xb = np.zeros_like(y)
        plain = 0
        for k, rec in enumerate(records):
            if rec.tol_value != 0.0:
                xa, xb = cands_a[k], cands_b[k].estimate
                continue
            step = op.adjoint(baseline.objective_eval(xa, xb, op, y, cfg, "group")[1])
            step *= -cfg.rho
            step /= lip
            assert np.array_equal(cands_a[k + 1], soft(xa - step, cfg.lambda1 / lip))
            assert np.array_equal(cands_b[k + 1].estimate,
                                  block(xb - step, cfg.block_side, cfg.lambda2 / lip).estimate)
            plain += 1
        assert plain >= 1

    @pytest.mark.parametrize("variant", ["group", "tv"])
    @pytest.mark.parametrize("shrink", [5, 50])
    def test_gives_up_when_the_step_is_too_long(self, variant, shrink, monkeypatch):
        # with a step 1/L five or fifty times too long the candidates soon stop
        # lowering F; at fifty, from the first one. Every rejection restarts the
        # momentum, and the run gives up when the _GIVE_UP_PATIENCE-th plain step
        # in a row fails. That is rejection _GIVE_UP_PATIENCE + 1 in a row, found
        # here in the accept pattern of the reference FISTA, which never gives up
        estimate = baseline.estimate_lipschitz
        monkeypatch.setattr(baseline, "estimate_lipschitz",
                            lambda op, cfg: estimate(op, cfg) / shrink)
        a, mask, _, _, y = group_problem()
        lambdas = CFG_GROUP if variant == "group" else CFG_TV
        cfg = baseline.BaselineConfig(max_iters=1000, **lambdas)
        streak = "0" * (baseline._GIVE_UP_PATIENCE + 1)
        # the reference stops soon after that rejection: further on, a fifty-fold
        # step can overflow its iterates
        _, _, _, accepted = oracles.reference_fista(a, y, mask,
                                                    replace(cfg, max_iters=len(streak) + 9), variant)
        last = "".join("01"[k] for k in accepted).index(streak) + len(streak)
        assert shrink == 5 or last == len(streak)
        with pytest.raises(SolverDivergenceError,
                           match=f"kept increasing after restarts at iteration {last}$") as info:
            baseline.baseline_solve(a, y, mask, cfg, variant)
        # the trace holds every iteration before the one that gave up
        assert info.value.iteration == last
        assert len(info.value.trace) == last - 1
        assert [rec.t for rec in info.value.trace.records] == list(range(1, last))

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
        cfg = baseline.BaselineConfig(lambda1=2.0, lambda2=1.4, max_iters=30)
        baseline.baseline_solve(a, y, mask, cfg, "tv")
        assert len(calls) == 30 and calls[0][0] is None
        for (_, p_end, mu_end), (start, _, mu) in zip(calls, calls[1:]):
            assert np.array_equal(start[0], p_end) and start[1] == mu_end == mu
