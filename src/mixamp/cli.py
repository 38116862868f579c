"""Command-line front end.

Subcommands:
  separate   run one separation experiment, write images + traces + metrics
  sweep      repeat `separate` over sampling rates x seeds, aggregate a CSV
  selfcheck  run each check of mixamp.checks on a few instances, print
             PASS/FAIL with the worst violation against its bound

Exit codes: 0 success, 1 a solver gave up (diverged), 2 usage error.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import baseline, checks, data, denoise, linops, solver
from .exceptions import (DimensionError, MixAmpError, SolverDivergenceError, UnsupportedSizeError,
                         check_choice, check_count, check_fraction, check_real)

# Calibrated front-end defaults per experiment case. The lambda pairs are
# the reference values used for the corresponding comparison figures; tau
# and the damping floor were calibrated once at desk scale (see README).
CASE_DEFAULTS = {
    "group": {"tau_a": 1.5, "tau_b": 1.0, "lambda1": 0.5, "lambda2": 1.2},
    "tv": {"tau_a": 2.0, "tau_b": 1.0, "lambda1": 2.0, "lambda2": 1.4},
}
DEFAULT_DAMPING = 0.3
MANIFEST_SCHEMA = "mixamp-run-v1"
CASES = tuple(CASE_DEFAULTS)
SOLVERS = ("mixamp", "baseline", "both")
# Peak working set of one run, in side x side float64 grids: the peak RSS
# of `separate --solver both` above a bare import was 24-28 grids for the
# group case and 56-59 for the tv case, at sides 256 and 512.
WORKING_SET_GRIDS = 64


def _list_of(convert, what):
    """Argparse type of a non-empty comma-separated list; ranges are checked per run."""
    def parse(text):
        try:
            values = [convert(p) for p in text.split(",") if p.strip()]
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"invalid {what} list {text!r}") from err
        if not values:
            raise argparse.ArgumentTypeError(f"{what} list is empty")
        return values
    return parse


def _add_run_arguments(parser, case, sparsity):
    """The options that separate and sweep share; only two defaults differ."""
    parser.add_argument("--case", choices=CASES, default=case)
    parser.add_argument("--side", type=int, default=64)
    parser.add_argument("--sparsity", type=float, default=sparsity, help="shot-noise density")
    parser.add_argument("--block", type=int, default=4, help="block side for group sparsity")
    parser.add_argument("--active-fraction", type=float, default=0.25,
                        help="fraction of active tiles in the group phantom")
    parser.add_argument("--image", type=str, default=None,
                        help="square PGM for the tv case only (default: procedural scene)")
    parser.add_argument("--solver", choices=SOLVERS, default="mixamp")
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--tol", type=float, default=5e-4)
    parser.add_argument("--tau-a", type=float, default=None)
    parser.add_argument("--tau-b", type=float, default=None)
    parser.add_argument("--damping", type=float, default=DEFAULT_DAMPING,
                        help=f"floor of the mixamp step in (0, 1]: each run starts at 1.0 and "
                             f"multiplies its step by {solver.BACKOFF:g} whenever theta exceeds "
                             f"{solver.BLOWUP_FACTOR:g}x the theta of the zero estimate, a level "
                             f"converging runs stay under even when theta jumps far above its "
                             f"running minimum; a blow-up at the floor exits 1")
    parser.add_argument("--lambda1", type=float, default=None)
    parser.add_argument("--lambda2", type=float, default=None)
    parser.add_argument("--rho", type=float, default=1e4)
    parser.add_argument("--no-timing", dest="record_timing", action="store_false",
                        help="write wall_ms columns as 0 for bit-reproducible outputs")


def build_parser():
    parser = argparse.ArgumentParser(prog="mixamp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="run one separation experiment")
    _add_run_arguments(sep, case="group", sparsity=0.05)
    sep.add_argument("--sampling", type=float, default=0.7, help="M/N in (0, 1]")
    sep.add_argument("--seed", type=int, default=0)
    sep.add_argument("--disjoint", action="store_true",
                     help="draw shot-noise support disjoint from the group support")
    sep.add_argument("--manifest", type=str, default=None,
                     help="re-run the configuration stored in a manifest file")
    sep.add_argument("--out", type=str, default="mixamp_out")

    swp = sub.add_parser("sweep", help="sweep sampling rates and seeds")
    _add_run_arguments(swp, case="tv", sparsity=0.10)
    swp.add_argument("--sampling", type=_list_of(float, "sampling"), default=[0.3, 0.5, 0.7],
                     help="comma-separated M/N list")
    swp.add_argument("--seeds", type=_list_of(int, "seed"), default=[0, 1, 2],
                     help="comma-separated seeds")
    swp.add_argument("--out", type=str, default="mixamp_sweep")
    swp.set_defaults(seed=0, disjoint=False)  # no --disjoint here; each point sets its seed

    chk = sub.add_parser("selfcheck", help="run the micro-scale oracle suite")
    chk.add_argument("--list", action="store_true", help="print check names without running")
    return parser


# integer param -> its minimum; the derived seeds seed * 101 + k must be
# valid RNG seeds, hence seed >= 0
_INT_PARAMS = {"side": 2, "block": 1, "seed": 0, "max_iters": 1}
# real param -> whether it must be > 0 (True) or >= 0 (False)
_REAL_PARAMS = {"sampling": True, "sparsity": True, "active_fraction": False, "tol": True,
                "tau_a": True, "tau_b": True, "damping": True, "lambda1": True,
                "lambda2": True, "rho": True}
_BOOL_PARAMS = ("disjoint", "record_timing")
_CHOICE_PARAMS = {"case": CASES, "solver": SOLVERS}
# every run param, each the dest of its option: the keys of a resolved dict and a manifest
PARAMS = (*_INT_PARAMS, *_REAL_PARAMS, *_BOOL_PARAMS, *_CHOICE_PARAMS, "image")


def _resolve_params(args):
    """Normalize separate/sweep args into one plain parameter dict; a value
    left unset takes its case default."""
    p = {key: getattr(args, key) for key in PARAMS}
    for key, default in CASE_DEFAULTS[p["case"]].items():
        if p[key] is None:
            p[key] = default
    return p


def _available_memory():
    """MemAvailable of /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except FileNotFoundError:
        pass
    return None


def _sample_count(p):
    """m = round(sampling * side^2), the number of samples of a run; at least 1."""
    m = int(round(p["sampling"] * p["side"] * p["side"]))
    if m < 1:
        raise DimensionError(f"sampling {p['sampling']:g} at side {p['side']} rounds to m = 0 "
                             f"samples; m must be >= 1")
    return m


def _validate_params(p):
    """Check the type and sign of every param, such as a manifest's "side": "64",
    whether or not the run uses it, the sampling range and sample count no
    library object checks, and that the run's working set fits in available
    memory; PhantomSpec and the configs check the other ranges."""
    for key, minimum in _INT_PARAMS.items():
        check_count(f"param {key}", p[key], minimum)
    for key, strict in _REAL_PARAMS.items():
        check_real(f"param {key}", p[key], strict)
    for key in _BOOL_PARAMS:
        if not isinstance(p[key], bool):
            raise MixAmpError(f"param {key} must be true or false, got {p[key]!r}")
    for key, choices in _CHOICE_PARAMS.items():
        check_choice(f"param {key}", p[key], choices)
    if p["image"] is not None and not isinstance(p["image"], str):
        raise MixAmpError(f"param image must be a file path or null, got {p['image']!r}")
    if p["image"] is not None and p["case"] != "tv":
        raise MixAmpError(f"param image must be null outside the tv case, got {p['image']!r} "
                          f"for case {p['case']!r}")
    check_fraction("param sampling", p["sampling"], strict=True)
    _sample_count(p)
    need = WORKING_SET_GRIDS * 8 * p["side"] * p["side"]
    available = _available_memory()
    if available is not None and need > available:
        raise UnsupportedSizeError(f"side {p['side']} needs about {need / 2**20:.0f} MiB, "
                                   f"more than the {available / 2**20:.0f} MiB available")


def build_truth(p):
    """Ground-truth pair (xa, xb) of one run; the sampling rate plays no part.

    A truth with an all-zero component is rejected: its PSNR is undefined.
    """
    side = p["side"]
    seed = p["seed"]
    spec_a = data.PhantomSpec(
        kind="shot_noise", side=side, sparsity=p["sparsity"], seed=seed * 101 + 11
    )
    if p["case"] == "group":
        spec_b = data.PhantomSpec(
            kind="group_sparse", side=side, block_side=p["block"],
            active_fraction=p["active_fraction"], seed=seed * 101 + 52,
        )
        xa_true, xb_true = data.make_mixture(spec_a, spec_b, disjoint=p["disjoint"])
    else:
        xb_true = data.load_image_pgm(p["image"]) if p["image"] else data.gen_cartoon(side, seed=1234)
        if xb_true.shape[0] != side:
            raise MixAmpError(
                f"image side {xb_true.shape[0]} does not match --side {side}"
            )
        forbidden = (xb_true != 0) if p["disjoint"] else None
        xa_true = data.gen_shot_noise(spec_a, forbidden=forbidden)
    if not xa_true.any():
        raise MixAmpError(f"ground-truth component a is all zeros: sparsity {p['sparsity']} "
                          f"at side {side} rounds to 0 impulses")
    if not xb_true.any():
        cause = (f"active_fraction {p['active_fraction']} at side {side}, block "
                 f"{p['block']} rounds to 0 active tiles" if p["case"] == "group"
                 else f"image {p['image']} is all black")
        raise MixAmpError(f"ground-truth component b is all zeros: {cause}")
    return xa_true, xb_true


def build_problem(p):
    """Ground truth, sensing matrix, mask, and measurements for one run."""
    xa_true, xb_true = build_truth(p)
    side = p["side"]
    m = _sample_count(p)
    seed = p["seed"]
    a = linops.gen_gaussian_sensing(side, m, seed=seed * 101 + 97)
    mask = linops.gen_mask(side, m, seed=seed * 101 + 31)
    y = linops.forward(a, xa_true + xb_true, mask)
    return a, mask, xa_true, xb_true, y


def _mixamp_config(p):
    spec_a = denoise.DenoiserSpec(kind="soft", tau=p["tau_a"])
    if p["case"] == "group":
        spec_b = denoise.DenoiserSpec(kind="block_soft", block_side=p["block"], tau=p["tau_b"])
    else:
        spec_b = denoise.DenoiserSpec(kind="tv_bregman", tau=p["tau_b"])
    return solver.MixAmpConfig(
        denoiser_a=spec_a, denoiser_b=spec_b,
        max_iters=p["max_iters"], tol=p["tol"], damping=p["damping"],
    )


def _baseline_config(p):
    return baseline.BaselineConfig(
        lambda1=p["lambda1"], lambda2=p["lambda2"], rho=p["rho"],
        max_iters=p["max_iters"], tol=p["tol"], block_side=p["block"],
    )


def _solver_configs(p):
    """{solver name: config} of every solver the run asks for, in run order."""
    names = ("mixamp", "baseline") if p["solver"] == "both" else (p["solver"],)
    build = {"mixamp": _mixamp_config, "baseline": _baseline_config}
    return {name: build[name](p) for name in names}


def run_separation(p, out_dir):
    """Execute one experiment; returns (exit_code, metric rows).

    Params, problem and every solver config are checked, and every solver
    runs, before the output directory is created, so a rejected run (the
    baseline's step constant included) writes nothing. A solver that gives
    up (SolverDivergenceError) keeps its partial trace and a manifest record
    with diverged_at, and the run goes on to the next solver and returns
    exit code 1.
    """
    _validate_params(p)
    configs = _solver_configs(p)
    a, mask, xa_true, xb_true, y = build_problem(p)
    results = {}  # name: (xa_hat, xb_hat, trace, failure, wall_ms)
    for name, cfg in configs.items():
        tic = time.perf_counter()
        failure = None
        try:
            if name == "mixamp":
                xa_hat, xb_hat, trace = solver.mixamp_run(a, y, mask, cfg)
            else:
                xa_hat, xb_hat, trace = baseline.baseline_solve(a, y, mask, cfg, p["case"])
        except SolverDivergenceError as err:
            print(f"mixamp: {name} diverged at iteration {err.iteration}", file=sys.stderr)
            xa_hat, xb_hat, trace, failure = None, None, err.trace, err
        results[name] = xa_hat, xb_hat, trace, failure, (time.perf_counter() - tic) * 1e3
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": "separate",
        "params": p,
        "outputs": {},
    }
    rows = []
    code = 0
    for name, (xa_hat, xb_hat, trace, failure, wall_ms) in results.items():
        tag = f"_{name}" if len(results) > 1 else ""
        record = manifest["outputs"][name] = {
            "trace": f"trace{tag}.csv",
            "iters": len(trace),
            "steps": trace.steps,
            "converged": trace.converged,
        }
        trace.to_csv(out / record["trace"], p["record_timing"])
        if name == "mixamp":
            record.update(damping_final=trace.damping_final, backoffs=trace.backoffs)
        else:
            record["lipschitz"] = trace.lipschitz
        if failure is not None:
            record["diverged_at"] = failure.iteration
            code = _exit_code(failure)
            continue
        record.update(xhat_a=f"xhat_a{tag}.pgm", xhat_b=f"xhat_b{tag}.pgm")
        data.save_image_pgm(xa_hat, out / record["xhat_a"])
        data.save_image_pgm(xb_hat, out / record["xhat_b"])
        rows.append({
            "experiment": p["case"],
            "side": p["side"],
            "m_over_n": p["sampling"],
            "seed": p["seed"],
            "psnr_a_db": f"{data.psnr(xa_true, xa_hat):.4f}",
            "psnr_b_db": f"{data.psnr(xb_true, xb_hat):.4f}",
            "iters": len(trace),
            "wall_ms": f"{wall_ms:.3f}" if p["record_timing"] else "0.000",
            "solver": name,
        })
    data.write_metrics_csv(out / "metrics.csv", rows)
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    (out / "manifest.json").write_text(text + "\n")
    return code, rows


def _manifest_params(path):
    """The run parameters stored in a manifest: every param of a run and no other."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as err:
        raise MixAmpError(f"manifest {path} is not valid JSON: {err}") from err
    if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
        raise MixAmpError(f"unrecognized manifest schema in {path}")
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise MixAmpError(f"manifest {path} holds no params object")
    missing = sorted(set(PARAMS) - params.keys())
    if missing:
        raise MixAmpError(f"manifest {path} lacks params: {', '.join(missing)}")
    unknown = sorted(params.keys() - set(PARAMS))
    if unknown:
        raise MixAmpError(f"manifest {path} has unknown params: {', '.join(unknown)}")
    return params


def cmd_separate(args):
    if args.manifest:
        params = _manifest_params(args.manifest)
    else:
        params = _resolve_params(args)
    code, rows = run_separation(params, args.out)
    for row in rows:
        print(
            f"{row['solver']}: iters={row['iters']} psnr_a={row['psnr_a_db']} dB "
            f"psnr_b={row['psnr_b_db']} dB wall={row['wall_ms']} ms"
        )
    return code


def _exit_code(err):
    """Exit code of a run ended by err: 1 for divergence, 2 for any other error."""
    return 1 if isinstance(err, SolverDivergenceError) else 2


def _sweep_worker(task):
    """One sweep point: (exit code, metric rows, error message or None).

    A failed point returns its message instead of raising, so the points
    that finished keep their rows.
    """
    params, out_dir = task
    try:
        code, rows = run_separation(params, out_dir)
    except MixAmpError as err:
        return _exit_code(err), [], str(err)
    return code, rows, None


def _sweep_workers(n_points):
    """Worker processes for a sweep: MIXAMP_THREADS (default 1), an integer
    >= 1, capped at the number of points, since a process pool starts all of
    its workers at once."""
    text = os.environ.get("MIXAMP_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = text
    check_count("MIXAMP_THREADS", workers, 1)
    return min(workers, n_points)


def cmd_sweep(args):
    base = _resolve_params(args)
    out = Path(args.out)
    points = {}  # output directory -> params
    for sampling in args.sampling:
        for seed in args.seeds:
            params = dict(base, sampling=sampling, seed=seed)
            # every rule fails the sweep before anything is written
            _validate_params(params)
            _solver_configs(params)
            build_truth(params)
            point = out / f"s{sampling:g}_seed{seed}"
            if point in points:
                raise MixAmpError(f"sampling {points[point]['sampling']!r} and {sampling!r} "
                                  f"with seed {seed} share the output directory {point}")
            points[point] = params
    tasks = [(params, str(point)) for point, params in points.items()]
    workers = _sweep_workers(len(tasks))
    out.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(task) for task in tasks]
    code = 0
    all_rows = []
    for (params, _), (task_code, rows, message) in zip(tasks, results):
        code = max(code, task_code)
        all_rows.extend(rows)
        if message is not None:
            print(f"mixamp: sweep point sampling={params['sampling']:g} seed={params['seed']} "
                  f"failed: {message}", file=sys.stderr)
    all_rows.sort(key=lambda r: (float(r["m_over_n"]), int(r["seed"]), r["solver"]))
    data.write_metrics_csv(out / "sweep_metrics.csv", all_rows)
    print(f"sweep: {len(all_rows)} rows -> {out / 'sweep_metrics.csv'}")
    return code


def cmd_selfcheck(args):
    if args.list:
        for name, _, _ in checks.SELFCHECKS:
            print(name)
        return 0
    failures = 0
    for name, check, bound in checks.SELFCHECKS:
        try:
            worst = check()
        except MixAmpError as err:
            failures += 1
            print(f"FAIL {name} (raised: {err})")
            continue
        ok = worst <= bound
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name} (worst {worst:.2e}, bound {bound:.0e})")
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "separate":
            return cmd_separate(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_selfcheck(args)
    except MixAmpError as err:
        print(f"mixamp: {err}", file=sys.stderr)
        return _exit_code(err)
    except OSError as err:
        print(f"mixamp: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
