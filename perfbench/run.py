"""mixamp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload group-64 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The full record, with machine facts, goes to
.bench_out/. README.md next to this file says what each workload and metric
is for.

Load model: closed loop, one client in one process; each separation runs to
completion before the next starts.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BLAS threads are pinned before numpy loads. One thread (no more than nproc)
# keeps the dense products free of thread scheduling noise.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# setup_s is the median of this many set-ups, each in a fresh interpreter so
# that the import of mixamp is part of every sample.
SETUP_REPEATS = 5

SOLVE_NAMES = {"solver.mixamp_run": "mixamp", "baseline.baseline_solve": "baseline"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: small sides and short problem lists")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def load_workload(args):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    return workloads.tiny(w) if args.tiny else w


def setup_probe(args):
    """Seconds to import mixamp and build the workload's problem list."""
    tic = time.perf_counter()
    w = load_workload(args)  # first import of numpy, scipy and mixamp
    import workloads

    workloads.build(w, args.seed)
    return time.perf_counter() - tic


def setup_samples(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def machine_facts():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Runner:
    """Solves problems with the solve calls observed, and checks each one."""

    def __init__(self, w, out_dir):
        self.w = w
        self.out_dir = out_dir
        self.outputs = {}
        self.errors = []

    def observers(self):
        def observe(name):
            def record(result, seconds):
                xa, xb, trace = result
                self.outputs[name] = (xa, xb, trace, seconds)
            return record
        return {qual: observe(name) for qual, name in SOLVE_NAMES.items()}

    def run(self, problem):
        import workloads

        self.outputs = {}
        try:
            code, rows = workloads.solve(self.w, problem, self.out_dir)
        except Exception:  # a failing problem is counted, and the run goes on
            traceback.print_exc()
            code, rows = -1, None
        solves, errors = workloads.evaluate(self.w, problem, self.outputs, code, rows)
        self.errors.extend(errors)
        return solves


def median_and_tail(values):
    """Median, plus the highest of p99/p95/p90/p75 with ten samples beyond it."""
    out = {"samples": len(values), "median": statistics.median(values) if values else math.nan}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def timed_run(args, w, problems):
    """Untraced passes over the problem list; returns end-to-end results."""
    setup = setup_samples(args)
    runner = Runner(w, OUT / "run" / w.name)
    timer = tracer.Tracer()
    timer.observers = runner.observers()
    timer.install(SOLVE_NAMES)
    first = {}
    solves = []
    passes = 0
    pass_s = 0.0
    start = time.perf_counter()
    # whole passes only, so every run solves the same problem mix
    while passes == 0 or time.perf_counter() - start + pass_s <= args.seconds:
        tic = time.perf_counter()
        for problem in problems:
            result = runner.run(problem)
            for solve in result:
                solve.trace = None  # keep memory flat however many passes run
            solves.extend(result)
            key = [(s.iters, s.psnr_a, s.psnr_b) for s in result]
            if first.setdefault(problem.index, key) != key:
                runner.errors.append(f"problem {problem.seed}: result changed between passes")
        pass_s = time.perf_counter() - tic
        passes += 1
    elapsed = time.perf_counter() - start
    timer.uninstall()

    per_solver = {name: [s for s in solves if s.solver == name] for name in SOLVE_NAMES.values()}
    timing = {name: median_and_tail([s.seconds for s in group if s.ok])
              for name, group in per_solver.items()}
    failed = sum(not s.ok for s in solves)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "mixamp_solve_s": (timing["mixamp"]["median"], "s"),
        "baseline_solve_s": (timing["baseline"]["median"], "s"),
        "separations_per_s": (passes * len(problems) / elapsed, "1/s"),
    }
    for name, group in per_solver.items():
        first_pass = group[: len(problems)]
        for part in ("a", "b"):
            values = [getattr(s, f"psnr_{part}") for s in first_pass]
            metrics[f"{name}_psnr_{part}_db"] = (statistics.fmean(values), "dB")
    metrics["solved_frac"] = ((len(solves) - failed) / len(solves), "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    details = {
        "setup_samples_s": setup,
        "solve_timing_s": timing,
        "passes": passes,
        "timed_phase_s": elapsed,
        "failed_frac": failed / len(solves),
        "failures": [f"{s.solver}: {s.reason}" for s in solves if not s.ok],
    }
    return metrics, len(solves), failed, runner.errors, details


def kernel_us(w, seed):
    """Per-call microseconds of the products at the workload's side (median of 7)."""
    import numpy as np
    from mixamp import linops

    side = w.side
    m = int(round(0.7 * side * side))
    a = linops.dct_sensing(side) if w.params is None else linops.gen_gaussian_sensing(side, m, seed)
    mask = linops.gen_mask(side, m, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((side, side))
    r = linops.mask_apply(mask, rng.standard_normal((side, side)))

    def per_call(fn):
        fn()
        tic = time.perf_counter()
        fn()
        reps = max(3, int(0.01 / max(time.perf_counter() - tic, 1e-7)))
        trials = []
        for _ in range(7):
            tic = time.perf_counter()
            for _ in range(reps):
                fn()
            trials.append((time.perf_counter() - tic) / reps * 1e6)
        return statistics.median(trials)

    return {
        "linops.kernel.forward_us": per_call(lambda: linops.forward(a, x, mask)),
        "linops.kernel.adjoint_us": per_call(lambda: linops.adjoint(a, r)),
        "linops.kernel.dct_fast_forward_us": per_call(lambda: linops.dct_fast_forward(x, mask)),
    }


def traced_run(args, w, problems):
    """Each traced problem solved untraced, then under the full trace."""
    problems = problems[: w.traced]
    runner = Runner(w, OUT / "run" / w.name)
    timer = tracer.Tracer()
    timer.observers = runner.observers()
    full = tracer.Tracer()
    full.observers = runner.observers()
    tv_converged = []
    full.observers["denoise.tv_denoise_bregman"] = (
        lambda out, _seconds: tv_converged.append(out.tv_converged))
    names = tracer.traceable_functions()
    untraced_s = traced_s = 0.0
    solves, traced_solves = [], []
    for problem in problems:
        timer.install(SOLVE_NAMES)
        plain = runner.run(problem)
        timer.uninstall()
        full.install(names)
        traced = runner.run(problem)
        full.uninstall()
        untraced_s += sum(s.seconds for s in plain if s.ok)
        traced_s += sum(s.seconds for s in traced if s.ok)
        solves.extend(plain + traced)
        traced_solves.extend(traced)
        if [(s.iters, s.psnr_b) for s in plain] != [(s.iters, s.psnr_b) for s in traced]:
            runner.errors.append(f"problem {problem.seed}: tracing changed the result")
    OUT.mkdir(parents=True, exist_ok=True)
    full.write(OUT / f"spans-{w.name}-seed{args.seed}.csv")

    metrics = layer_metrics(w, full.spans, traced_solves, tv_converged)
    for name, value in kernel_us(w, args.seed).items():
        metrics[name] = (value, "us")
    metrics["trace_overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    failed = sum(not s.ok for s in solves)
    details = {"traced_problems": len(problems), "spans": len(full.spans),
               "failed_frac": failed / len(solves),
               "failures": [f"{s.solver}: {s.reason}" for s in solves if not s.ok]}
    return metrics, len(solves), failed, runner.errors, details


def layer_metrics(w, spans, solves, tv_converged):
    stats, durations = tracer.summarize(spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return stats.get(name, zero)

    def per_call_us(name):
        entry = get(name)
        return entry["self_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0

    # nearest enclosing solve of every span; parents precede their children
    solve_of = []
    for name, parent, _, _ in spans:
        solve_of.append(name if name in SOLVE_NAMES else (solve_of[parent] if parent >= 0 else None))
    tv_ms = {"estimate": 0.0, "probe": 0.0, "prox": 0.0}
    tv_calls = {"estimate": 0, "probe": 0}
    tv_parent = {"denoise.tv_denoise_bregman": "estimate", "denoise.mc_divergence": "probe",
                 "baseline._prox_b": "prox"}
    step_us = []
    baseline_forwards = 0
    for (name, parent, _, _), dur, top in zip(spans, durations, solve_of):
        if name == "denoise._tv_bregman_estimate":
            kind = tv_parent[spans[parent][0]]
            tv_ms[kind] += dur * 1e3
            if kind in tv_calls:
                tv_calls[kind] += 1
        elif name == "solver.mixamp_step":
            step_us.append(dur * 1e6)
        elif name == "linops.forward" and top == "baseline.baseline_solve":
            baseline_forwards += 1
    step = {"p50": 0.0, "p99": 0.0}
    if len(step_us) >= 2:
        cuts = statistics.quantiles(step_us, n=100)
        step = {"p50": statistics.median(step_us), "p99": cuts[98]}

    mix_iters = sum(s.iters for s in solves if s.solver == "mixamp")
    base = [s for s in solves if s.solver == "baseline" and s.trace is not None]
    base_iters = sum(s.iters for s in base)
    # a rejected candidate leaves the recorded objective unchanged; the first
    # step, a plain proximal-gradient step from zero, is always accepted
    accepted = sum(1 + sum(cur.objective != prev.objective
                           for prev, cur in zip(s.trace.records, s.trace.records[1:]))
                   for s in base if s.iters)
    fwd, adj = get("linops.forward"), get("linops.adjoint")
    products = fwd["calls"] + adj["calls"]
    product_s = fwd["self_s"] + adj["self_s"]
    solve_s = sum(get(name)["total_s"] for name in SOLVE_NAMES)
    tv_total_s = sum(tv_ms.values()) / 1e3
    return {
        "linops.forward.calls": (fwd["calls"], "count"),
        "linops.forward.self_ms": (fwd["self_s"] * 1e3, "ms"),
        "linops.forward.us_per_call": (per_call_us("linops.forward"), "us"),
        "linops.adjoint.calls": (adj["calls"], "count"),
        "linops.adjoint.self_ms": (adj["self_s"] * 1e3, "ms"),
        "linops.adjoint.us_per_call": (per_call_us("linops.adjoint"), "us"),
        "linops.gflops_computed": (4 * w.side ** 3 * products / product_s / 1e9
                                   if product_s else 0.0, "GFLOP/s"),
        "linops.solve_share": (product_s / solve_s, "ratio"),
        "denoise.tv_solve.calls": (get("denoise._tv_bregman_estimate")["calls"], "count"),
        "denoise.tv_solve.estimate_ms": (tv_ms["estimate"], "ms"),
        "denoise.tv_solve.probe_ms": (tv_ms["probe"], "ms"),
        "denoise.tv_solve.prox_ms": (tv_ms["prox"], "ms"),
        "denoise.tv_solve.solve_share": (tv_total_s / solve_s, "ratio"),
        "denoise.tv_solves_per_iter": ((tv_calls["estimate"] + tv_calls["probe"]) / mix_iters
                                       if mix_iters else 0.0, "count/iter"),
        "denoise.tv_converged_ratio": (sum(tv_converged) / len(tv_converged)
                                       if tv_converged else 0.0, "ratio"),
        "denoise.mc_divergence.self_ms": (get("denoise.mc_divergence")["self_s"] * 1e3, "ms"),
        "denoise.soft_threshold.calls": (get("denoise.soft_threshold")["calls"], "count"),
        "denoise.soft_threshold.self_ms": (get("denoise.soft_threshold")["self_s"] * 1e3, "ms"),
        "denoise.soft_threshold_div.calls": (get("denoise.soft_threshold_div")["calls"], "count"),
        "denoise.soft_threshold_div.self_ms": (get("denoise.soft_threshold_div")["self_s"] * 1e3,
                                               "ms"),
        "denoise.block_soft_threshold.calls": (get("denoise.block_soft_threshold")["calls"],
                                               "count"),
        "denoise.block_soft_threshold.self_ms": (
            get("denoise.block_soft_threshold")["self_s"] * 1e3, "ms"),
        "solver.iters": (mix_iters, "count"),
        "solver.mixamp_step.calls": (get("solver.mixamp_step")["calls"], "count"),
        "solver.mixamp_step.self_ms": (get("solver.mixamp_step")["self_s"] * 1e3, "ms"),
        "solver.mixamp_step.p50_us": (step["p50"], "us"),
        "solver.mixamp_step.p99_us": (step["p99"], "us"),
        "solver.stopping_tol.self_ms": (get("solver.stopping_tol")["self_s"] * 1e3, "ms"),
        "solver.normalize_problem.ms": (get("solver.normalize_problem")["total_s"] * 1e3, "ms"),
        "baseline.iters": (base_iters, "count"),
        "baseline.forward_per_iter": (baseline_forwards / base_iters if base_iters else 0.0,
                                      "count/iter"),
        "baseline.estimate_lipschitz.ms": (get("baseline.estimate_lipschitz")["total_s"] * 1e3,
                                           "ms"),
        "baseline.objective_eval.calls": (get("baseline.objective_eval")["calls"], "count"),
        "baseline.objective_eval.self_ms": (get("baseline.objective_eval")["self_s"] * 1e3, "ms"),
        "baseline.accept_ratio": (accepted / base_iters if base_iters else 0.0, "ratio"),
        "data.psnr.self_ms": (get("data.psnr")["self_s"] * 1e3, "ms"),
        "data.save_image_pgm.self_ms": (get("data.save_image_pgm")["self_s"] * 1e3, "ms"),
        "data.write_metrics_csv.self_ms": (get("data.write_metrics_csv")["self_s"] * 1e3, "ms"),
        "cli.build_problem.ms": (get("cli.build_problem")["total_s"] * 1e3, "ms"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mixamp" / "__init__.py").is_file():
        print(f"run.py: no mixamp sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup_probe(args)))
        return 0

    w = load_workload(args)
    import workloads

    problems = workloads.build(w, args.seed)
    # warm-up outside the timed phase: one problem of the same kind at self-test size
    warm = workloads.tiny(w)
    Runner(warm, OUT / "run" / f"{w.name}-warmup").run(workloads.build(warm, args.seed)[0])

    run = traced_run if args.trace else timed_run
    metrics, attempted, failed, errors, details = run(args, w, problems)
    for message in errors:
        print(f"run.py: output check failed: {message}", file=sys.stderr)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "problems": len(problems), "machine": machine_facts(),
        "floors_psnr_b_db": w.floors, "metrics": {k: {"value": v, "unit": u}
                                                 for k, (v, u) in metrics.items()},
        "details": details, "output_errors": errors,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, default=str) + "\n")

    for key, value in record["machine"].items():
        print(f"machine.{key}: {value}")
    for key, value in details.items():
        if key != "failures":
            print(f"{key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
