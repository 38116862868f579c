"""CLI contract tests: flags, exit codes, artifacts, manifest replay."""

import dataclasses
import json

import numpy as np
import pytest

from mixamp import checks, cli, data, denoise, linops, solver


def run_cli(*argv):
    return cli.main(list(argv))


class TestSeparate:
    def test_group_smoke(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "separate", "--case", "group", "--side", "32", "--sampling", "0.7",
            "--sparsity", "0.05", "--block", "4", "--seed", "0",
            "--solver", "mixamp", "--out", str(out),
        )
        assert code == 0
        for name in ("xhat_a.pgm", "xhat_b.pgm", "trace.csv", "metrics.csv", "manifest.json"):
            assert (out / name).exists()
        rows = data.read_metrics_csv(out / "metrics.csv")
        assert len(rows) == 1
        assert rows[0]["solver"] == "mixamp"
        assert rows[0]["experiment"] == "group"

    def test_both_solvers_two_rows(self, tmp_path):
        out = tmp_path / "both"
        code = run_cli(
            "separate", "--case", "group", "--side", "32", "--seed", "1",
            "--solver", "both", "--out", str(out),
        )
        assert code == 0
        rows = data.read_metrics_csv(out / "metrics.csv")
        assert [r["solver"] for r in rows] == ["mixamp", "baseline"]
        assert (out / "xhat_b_mixamp.pgm").exists()
        assert (out / "xhat_b_baseline.pgm").exists()

    def test_tv_case_with_image(self, tmp_path):
        img = data.gen_cartoon(32, seed=3)
        img_path = tmp_path / "scene.pgm"
        data.save_image_pgm(img, img_path)
        out = tmp_path / "tv"
        code = run_cli(
            "separate", "--case", "tv", "--side", "32", "--sampling", "0.5",
            "--sparsity", "0.10", "--image", str(img_path), "--seed", "0",
            "--max-iters", "60", "--out", str(out),
        )
        assert code == 0
        rows = data.read_metrics_csv(out / "metrics.csv")
        assert rows[0]["experiment"] == "tv"

    def test_sampling_validation_exit_2(self, tmp_path):
        assert run_cli("separate", "--sampling", "1.5", "--out", str(tmp_path / "x")) == 2

    def test_block_divides_side_validation(self, tmp_path):
        assert run_cli(
            "separate", "--case", "group", "--side", "30", "--block", "4",
            "--out", str(tmp_path / "x"),
        ) == 2

    def test_block_zero_exit_2(self, tmp_path, capsys):
        assert run_cli(
            "separate", "--case", "group", "--side", "8", "--block", "0",
            "--out", str(tmp_path / "x"),
        ) == 2
        assert "block must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, component", [
        (["--side", "4", "--block", "2", "--sparsity", "0.01"], "component a"),
        (["--side", "2", "--block", "2"], "component a"),
        (["--side", "8", "--block", "4", "--active-fraction", "0.1"], "component b"),
    ], ids=["side4-sparsity", "side2", "active-fraction"])
    def test_all_zero_truth_exit_2_before_any_output(self, tmp_path, capsys, argv, component):
        out = tmp_path / "empty"
        assert run_cli("separate", *argv, "--solver", "both", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"ground-truth {component} is all zeros" in err and "rounds to 0" in err
        assert not out.exists() or not any(out.iterdir())

    def test_tv_both_solvers_byte_identical(self, tmp_path):
        # no TV solve state leaks from one run into the next
        dirs = [tmp_path / "t1", tmp_path / "t2"]
        for out in dirs:
            assert run_cli("separate", "--case", "tv", "--side", "16", "--solver", "both",
                           "--no-timing", "--out", str(out)) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir()) and len(names) == 8
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_divergent_run_exit_1_with_partial_outputs(self, tmp_path):
        out = tmp_path / "div"
        code = run_cli(
            "separate", "--case", "group", "--side", "32", "--seed", "0",
            "--damping", "1.0", "--tau", "1.0", "--out", str(out),
        )
        assert code == 1
        assert (out / "manifest.json").exists()
        assert (out / "trace.csv").exists()

    def test_manifest_replay_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(
            "separate", "--case", "group", "--side", "32", "--seed", "2",
            "--no-timing", "--out", str(out1),
        ) == 0
        assert run_cli(
            "separate", "--manifest", str(out1 / "manifest.json"), "--out", str(out2),
        ) == 0
        for name in ("xhat_a.pgm", "xhat_b.pgm", "trace.csv", "metrics.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_records_all_params(self, tmp_path):
        out = tmp_path / "m"
        run_cli("separate", "--case", "group", "--side", "32", "--no-timing",
                "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == cli.MANIFEST_SCHEMA
        params = manifest["params"]
        for key in ("case", "side", "sampling", "seed", "tau_a", "tau_b", "damping",
                    "lambda1", "lambda2", "rho", "record_timing"):
            assert key in params
        # the run starts at step 1.0 and backs off towards the floor 0.3
        outputs = manifest["outputs"]["mixamp"]
        assert "damping" not in outputs  # params.damping is its one home
        assert outputs["backoffs"] >= 1
        assert outputs["damping_final"] == pytest.approx(0.7 ** outputs["backoffs"])

    @pytest.mark.parametrize("argv, converged", [
        # seed 0 at side 2 cycles through three states until max_iters
        (["--side", "2", "--block", "1", "--sampling", "0.25", "--sparsity", "1.0"],
         {"mixamp": False}),
        ([], {"mixamp": True, "baseline": True}),
    ], ids=["stalled", "default-group"])
    def test_manifest_records_converged(self, tmp_path, argv, converged):
        out = tmp_path / "c"
        assert run_cli("separate", *argv, "--seed", "0", "--solver", "both", "--no-timing",
                       "--out", str(out)) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert {name: outputs[name]["converged"] for name in converged} == converged

    def test_manifest_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "mixamp-run-v1", "params": {')
        assert run_cli("separate", "--manifest", str(path), "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not valid JSON" in err

    def test_manifest_missing_param_exit_2(self, tmp_path, capsys):
        params = cli._resolve_params(cli.build_parser().parse_args(["separate"]))
        del params["side"], params["seed"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"schema": cli.MANIFEST_SCHEMA, "params": params}))
        assert run_cli("separate", "--manifest", str(path), "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "lacks params: seed, side" in err


class TestSweep:
    def test_row_count_and_order(self, tmp_path):
        out = tmp_path / "sw"
        code = run_cli(
            "sweep", "--case", "group", "--side", "16", "--sampling", "0.5,0.8",
            "--seeds", "0,1", "--solver", "mixamp", "--max-iters", "60",
            "--out", str(out),
        )
        assert code == 0
        rows = data.read_metrics_csv(out / "sweep_metrics.csv")
        assert len(rows) == 4
        keys = [(float(r["m_over_n"]), int(r["seed"])) for r in rows]
        assert keys == sorted(keys)

    def test_parallel_workers_same_rows(self, tmp_path, monkeypatch):
        out_seq, out_par = tmp_path / "seq", tmp_path / "par"
        args = ["sweep", "--case", "group", "--side", "16", "--sampling", "0.6,0.8",
                "--seeds", "0,1", "--solver", "mixamp", "--max-iters", "40",
                "--no-timing"]
        monkeypatch.setenv("MIXAMP_THREADS", "1")
        assert run_cli(*args, "--out", str(out_seq)) == 0
        monkeypatch.setenv("MIXAMP_THREADS", "2")
        assert run_cli(*args, "--out", str(out_par)) == 0
        seq = (out_seq / "sweep_metrics.csv").read_text()
        par = (out_par / "sweep_metrics.csv").read_text()
        assert seq == par

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_point_keeps_finished_rows(self, tmp_path, monkeypatch, threads):
        # at side 2 seed 1 diverges: that point fails with its partial trace,
        # and seed 0 keeps its row
        monkeypatch.setenv("MIXAMP_THREADS", threads)
        out = tmp_path / "sw"
        code = run_cli(
            "sweep", "--case", "group", "--side", "2", "--block", "1", "--sparsity", "1.0",
            "--sampling", "0.25", "--seeds", "0,1", "--solver", "mixamp", "--max-iters", "20",
            "--out", str(out),
        )
        assert code == 1
        rows = data.read_metrics_csv(out / "sweep_metrics.csv")
        assert [(r["m_over_n"], r["seed"]) for r in rows] == [("0.25", "0")]
        assert (out / "s0.25_seed1" / "trace.csv").exists()

    def test_empty_sampling_list_exit_2(self, tmp_path):
        assert run_cli("sweep", "--sampling", "", "--out", str(tmp_path / "x")) == 2

    def test_sampling_out_of_range_exit_2(self, tmp_path):
        assert run_cli("sweep", "--sampling", "0.5,1.2", "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["--tau-a", "-1"],
        ["--seeds", "0,-1"],
        ["--solver", "both", "--max-iters", "0"],
        ["--sparsity", "2"],
        ["--case", "group", "--block", "3"],
        ["--sparsity", "0.001"],
        ["--sampling", "0.5,0.001"],
    ], ids=["tau-a", "seed", "max-iters", "sparsity", "block", "zero-truth", "no-samples"])
    def test_bad_flag_exit_2_before_any_output(self, tmp_path, argv):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--side", "16", *argv, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["two", "0", "1.5"])
    def test_bad_thread_count_exit_2_before_any_output(self, tmp_path, monkeypatch, capsys,
                                                       threads):
        monkeypatch.setenv("MIXAMP_THREADS", threads)
        out = tmp_path / "sw"
        assert run_cli("sweep", "--side", "16", "--seeds", "0", "--sampling", "0.5",
                       "--out", str(out)) == 2
        assert not out.exists()
        assert "MIXAMP_THREADS must be" in capsys.readouterr().err

    def test_pool_is_capped_at_the_number_of_points(self, tmp_path, monkeypatch):
        # a pool starts all of its workers at once, so a large MIXAMP_THREADS
        # must not reach it; the recorder runs the points in this process
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
        monkeypatch.setenv("MIXAMP_THREADS", "64")
        assert run_cli("sweep", "--case", "group", "--side", "16", "--sampling", "0.6,0.8",
                       "--seeds", "0", "--solver", "mixamp", "--max-iters", "20",
                       "--out", str(tmp_path / "sw")) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("sampling,seeds", [
        ("0.5,0.50", "0"), ("0.5", "0,0"), ("0.1234561,0.1234564", "0"),
    ], ids=["same-rate", "same-seed", "same-name"])
    def test_points_sharing_a_directory_exit_2(self, tmp_path, capsys, sampling, seeds):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--case", "group", "--side", "16", "--sampling", sampling,
                       "--seeds", seeds, "--solver", "mixamp", "--out", str(out)) == 2
        assert not out.exists()
        assert "share the output directory" in capsys.readouterr().err


class TestParsedDefaults:
    SHARED = {
        "side": 64, "block": 4, "active_fraction": 0.25, "image": None,
        "solver": "mixamp", "max_iters": 500, "tol": 5e-4, "tau": None, "tau_a": None,
        "tau_b": None, "damping": 0.3, "lambda1": None, "lambda2": None, "rho": 1e4,
        "no_timing": False,
    }

    def test_separate(self):
        assert vars(cli.build_parser().parse_args(["separate"])) == {
            **self.SHARED, "command": "separate", "case": "group", "sparsity": 0.05,
            "sampling": 0.7, "seed": 0, "disjoint": False, "manifest": None,
            "out": "mixamp_out",
        }

    def test_sweep(self):
        assert vars(cli.build_parser().parse_args(["sweep"])) == {
            **self.SHARED, "command": "sweep", "case": "tv", "sparsity": 0.10,
            "sampling": [0.3, 0.5, 0.7], "seeds": [0, 1, 2], "out": "mixamp_sweep",
        }


def _off_by(value, delta):
    """value + delta, applied to the number a library result carries."""
    if isinstance(value, denoise.DenoiseOutput):
        return dataclasses.replace(value, divergence_avg=value.divergence_avg + delta)
    if isinstance(value, solver.MixAmpState):
        return dataclasses.replace(value, r=value.r + delta)
    return value + delta


class TestSelfcheck:
    def test_healthy_build_exit_0(self, capsys):
        assert run_cli("selfcheck") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(checks.SELFCHECKS)
        assert all(line.startswith("PASS") for line in lines)

    def test_list_prints_names_without_running(self, capsys):
        assert run_cli("selfcheck", "--list") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [name for name, _, _ in checks.SELFCHECKS]

    @pytest.mark.parametrize("module, function, check", [
        (linops, "forward", "kron_equivalence"),
        (linops, "adjoint", "adjoint_identity"),
        (denoise, "soft_threshold", "soft_prox_grid"),
        (denoise, "soft_threshold_div", "soft_divergence_fd"),
        (denoise, "block_soft_threshold", "block_divergence_fd"),
        (linops, "dct_fast_adjoint", "dct_equivalence"),
        (solver, "mixamp_step", "residual_support"),
        (solver, "mixamp_step", "onsager_ablation"),
        (solver, "apply_denoiser", "onsager_ablation"),
    ])
    def test_library_fault_fails_its_check(self, capsys, monkeypatch, module, function, check):
        original = getattr(module, function)
        # a NaN must fail the check too, not drop out of its worst violation
        for delta in (1e-3, float("nan")):
            monkeypatch.setattr(module, function,
                                lambda *args, **kw: _off_by(original(*args, **kw), delta))
            with np.errstate(invalid="ignore"):
                assert run_cli("selfcheck") == 1
            assert f"FAIL {check} " in capsys.readouterr().out

    def test_inject_fault_is_an_unknown_argument(self):
        assert run_cli("selfcheck", "--inject-fault", "adjoint_identity") == 2


class TestProblemConstruction:
    def test_deterministic_given_params(self):
        params = {
            "case": "group", "side": 16, "sampling": 0.8, "sparsity": 0.05,
            "block": 4, "active_fraction": 0.25, "image": None, "seed": 3,
            "solver": "mixamp", "max_iters": 10, "tol": 5e-4, "tau_a": 1.5,
            "tau_b": 1.2, "damping": 0.3, "lambda1": 0.5, "lambda2": 1.2,
            "rho": 1e4, "disjoint": False, "record_timing": True,
        }
        a1, m1, xa1, xb1, y1 = cli.build_problem(params)
        a2, m2, xa2, xb2, y2 = cli.build_problem(params)
        assert np.array_equal(a1.entries, a2.entries)
        assert np.array_equal(m1.grid, m2.grid)
        assert np.array_equal(y1, y2)


class TestSizeLimits:
    def test_no_samples_exit_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("separate", "--side", "2", "--block", "1", "--sparsity", "1.0",
                       "--sampling", "0.1", "--out", str(out)) == 2
        assert "sampling 0.1 at side 2 rounds to m = 0 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_side_beyond_memory_exit_2_before_any_output(self, tmp_path, capsys, monkeypatch):
        # the reader stands in for /proc/meminfo, so no huge side is ever allocated
        monkeypatch.setattr(cli, "_available_memory", lambda: 2 ** 30)
        out = tmp_path / "x"
        assert run_cli("separate", "--side", "100000", "--out", str(out)) == 2
        assert "side 100000 needs about" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("available", [2 ** 30, None], ids=["fits", "unknown"])
    def test_side_within_memory_runs(self, tmp_path, monkeypatch, available):
        monkeypatch.setattr(cli, "_available_memory", lambda: available)
        assert run_cli("separate", "--side", "16", "--max-iters", "5",
                       "--out", str(tmp_path / "x")) == 0

    def test_available_memory_is_bytes_or_unknown(self):
        available = cli._available_memory()
        assert available is None or (isinstance(available, int) and available > 0)


class TestManifestParamTypes:
    @pytest.mark.parametrize("key, value", [
        ("side", "64"),          # string for an integer
        ("max_iters", 5.0),      # float for an integer
        ("block", True),         # bool for an integer
        ("tol", "0.1"),          # string for a real number
        ("rho", False),          # bool for a real number
        ("tol", float("nan")),   # non-finite real number
        ("rho", float("inf")),   # non-finite real number
        ("disjoint", "yes"),     # string for a flag
        ("case", "wavelet"),     # unknown choice
        ("image", 5),            # number for a path
    ])
    def test_wrong_type_exit_2_names_key(self, tmp_path, capsys, key, value):
        params = cli._resolve_params(cli.build_parser().parse_args(["separate"]))
        params[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"schema": cli.MANIFEST_SCHEMA, "params": params}))
        assert run_cli("separate", "--manifest", str(path), "--out", str(tmp_path / "x")) == 2
        assert f"param {key} must be" in capsys.readouterr().err

    def test_non_finite_flag_exit_2_names_key(self, tmp_path, capsys):
        # --tau sets both thresholds; the first one checked is named
        assert run_cli("separate", "--tau", "nan", "--out", str(tmp_path / "x")) == 2
        assert "param tau_a must be a finite real number" in capsys.readouterr().err

    def test_negative_seed_exit_2_writes_nothing(self, tmp_path, capsys):
        params = cli._resolve_params(cli.build_parser().parse_args(["separate"]))
        params["seed"] = -1
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"schema": cli.MANIFEST_SCHEMA, "params": params}))
        out = tmp_path / "x"
        assert run_cli("separate", "--manifest", str(path), "--out", str(out)) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()
