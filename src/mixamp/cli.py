"""Command-line front end.

Subcommands:
  separate   run one separation experiment, write images + traces + metrics
  sweep      repeat `separate` over sampling rates x seeds, aggregate a CSV
  selfcheck  run each check of mixamp.checks on a few instances, print
             PASS/FAIL with the worst violation against its bound

Exit codes: 0 success, 1 numerical/solver failure, 2 usage error.
"""

import argparse
import json
import math
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import baseline, checks, data, denoise, linops, solver
from .exceptions import MixAmpError, SolverDivergenceError

# Calibrated front-end defaults per experiment case. The lambda pairs are
# the reference values used for the corresponding comparison figures; tau
# and damping were calibrated once at desk scale (see README).
CASE_DEFAULTS = {
    "group": {"tau_a": 1.5, "tau_b": 1.0, "lambda1": 0.5, "lambda2": 1.2},
    "tv": {"tau_a": 2.0, "tau_b": 1.0, "lambda1": 2.0, "lambda2": 1.4},
}
DEFAULT_DAMPING = 0.3
# Inner split-Bregman iterations per TV solve. Both solvers start each solve
# from the state the previous outer iteration left, so a few suffice.
TV_INNER_ITERS = 5
MANIFEST_SCHEMA = "mixamp-run-v1"
CASES = tuple(CASE_DEFAULTS)
SOLVERS = ("mixamp", "baseline", "both")


def _sampling(text):
    try:
        value = float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"invalid sampling rate {text!r}") from err
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"sampling rate must lie in (0, 1], got {value}")
    return value


def _sampling_list(text):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("sampling list is empty")
    return [_sampling(p) for p in parts]


def _seed_list(text):
    try:
        seeds = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"invalid seed list {text!r}") from err
    if not seeds:
        raise argparse.ArgumentTypeError("seed list is empty")
    return seeds


def _add_run_arguments(parser, case, sparsity):
    """The options that separate and sweep share; only two defaults differ."""
    parser.add_argument("--case", choices=CASES, default=case)
    parser.add_argument("--side", type=int, default=64)
    parser.add_argument("--sparsity", type=float, default=sparsity, help="shot-noise density")
    parser.add_argument("--block", type=int, default=4, help="block side for group sparsity")
    parser.add_argument("--active-fraction", type=float, default=0.25,
                        help="fraction of active tiles in the group phantom")
    parser.add_argument("--image", type=str, default=None,
                        help="square PGM for the tv case (default: procedural scene)")
    parser.add_argument("--solver", choices=SOLVERS, default="mixamp")
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--tol", type=float, default=5e-4)
    parser.add_argument("--tau", type=float, default=None, help="threshold scale for both denoisers")
    parser.add_argument("--tau-a", type=float, default=None)
    parser.add_argument("--tau-b", type=float, default=None)
    parser.add_argument("--damping", type=float, default=DEFAULT_DAMPING)
    parser.add_argument("--lambda1", type=float, default=None)
    parser.add_argument("--lambda2", type=float, default=None)
    parser.add_argument("--rho", type=float, default=1e4)
    parser.add_argument("--no-timing", action="store_true",
                        help="write wall_ms columns as 0 for bit-reproducible outputs")


def build_parser():
    parser = argparse.ArgumentParser(prog="mixamp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="run one separation experiment")
    _add_run_arguments(sep, case="group", sparsity=0.05)
    sep.add_argument("--sampling", type=_sampling, default=0.7, help="M/N in (0, 1]")
    sep.add_argument("--seed", type=int, default=0)
    sep.add_argument("--disjoint", action="store_true",
                     help="draw shot-noise support disjoint from the group support")
    sep.add_argument("--manifest", type=str, default=None,
                     help="re-run the configuration stored in a manifest file")
    sep.add_argument("--out", type=str, default="mixamp_out")

    swp = sub.add_parser("sweep", help="sweep sampling rates and seeds")
    _add_run_arguments(swp, case="tv", sparsity=0.10)
    swp.add_argument("--sampling", type=_sampling_list, default=[0.3, 0.5, 0.7],
                     help="comma-separated M/N list")
    swp.add_argument("--seeds", type=_seed_list, default=[0, 1, 2], help="comma-separated seeds")
    swp.add_argument("--out", type=str, default="mixamp_sweep")

    chk = sub.add_parser("selfcheck", help="run the micro-scale oracle suite")
    chk.add_argument("--list", action="store_true", help="print check names without running")
    return parser


def _resolve_params(args):
    """Normalize separate/sweep args into one plain parameter dict."""
    case = args.case
    defaults = CASE_DEFAULTS[case]
    tau_a = args.tau_a if args.tau_a is not None else (args.tau if args.tau is not None else defaults["tau_a"])
    tau_b = args.tau_b if args.tau_b is not None else (args.tau if args.tau is not None else defaults["tau_b"])
    lambda1 = args.lambda1 if args.lambda1 is not None else defaults["lambda1"]
    lambda2 = args.lambda2 if args.lambda2 is not None else defaults["lambda2"]
    return {
        "case": case,
        "side": args.side,
        "sampling": getattr(args, "sampling", 0.7),
        "sparsity": args.sparsity,
        "block": args.block,
        "active_fraction": args.active_fraction,
        "image": args.image,
        "seed": getattr(args, "seed", 0),
        "solver": args.solver,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "tau_a": tau_a,
        "tau_b": tau_b,
        "damping": args.damping,
        "lambda1": lambda1,
        "lambda2": lambda2,
        "rho": args.rho,
        "disjoint": bool(getattr(args, "disjoint", False)),
        "record_timing": not args.no_timing,
    }


_INT_PARAMS = ("side", "block", "seed", "max_iters")
_REAL_PARAMS = ("sampling", "sparsity", "active_fraction", "tol", "tau_a", "tau_b",
                "damping", "lambda1", "lambda2", "rho")
_BOOL_PARAMS = ("disjoint", "record_timing")
_CHOICE_PARAMS = {"case": CASES, "solver": SOLVERS}


def _check_param_types(p):
    """Reject a param of the wrong type, such as a manifest's "side": "64"."""
    def bad(key, expected):
        return MixAmpError(f"param {key} must be {expected}, got {p[key]!r}")

    for key in _INT_PARAMS:
        if isinstance(p[key], bool) or not isinstance(p[key], numbers.Integral):
            raise bad(key, "an integer")
    for key in _REAL_PARAMS:
        if (isinstance(p[key], bool) or not isinstance(p[key], numbers.Real)
                or not math.isfinite(p[key])):
            raise bad(key, "a finite real number")
    for key in _BOOL_PARAMS:
        if not isinstance(p[key], bool):
            raise bad(key, "true or false")
    for key, choices in _CHOICE_PARAMS.items():
        if p[key] not in choices:
            raise bad(key, f"one of {', '.join(choices)}")
    if p["image"] is not None and not isinstance(p["image"], str):
        raise bad("image", "a file path or null")


def _validate_params(p):
    _check_param_types(p)
    if p["block"] < 1:
        raise MixAmpError(f"block must be >= 1, got {p['block']}")
    if p["side"] < 2:
        raise MixAmpError(f"side must be >= 2, got {p['side']}")
    if not 0.0 < p["sampling"] <= 1.0:
        raise MixAmpError(f"sampling must lie in (0, 1], got {p['sampling']}")
    if not 0.0 < p["sparsity"] <= 1.0:
        raise MixAmpError(f"sparsity must lie in (0, 1], got {p['sparsity']}")
    if p["case"] == "group" and p["side"] % p["block"] != 0:
        raise MixAmpError(f"block {p['block']} must divide side {p['side']}")


def build_problem(p):
    """Ground truth, sensing matrix, mask, and measurements for one run."""
    side = p["side"]
    n = side * side
    m = int(round(p["sampling"] * n))
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
    a = linops.gen_gaussian_sensing(side, m, seed=seed * 101 + 97)
    mask = linops.gen_mask(side, m, seed=seed * 101 + 31)
    y = linops.forward(a, xa_true + xb_true, mask)
    return a, mask, xa_true, xb_true, y


def _check_truth(p, xa_true, xb_true):
    """Reject a ground truth with an all-zero component: its PSNR is undefined."""
    if not xa_true.any():
        raise MixAmpError(f"ground-truth component a is all zeros: sparsity {p['sparsity']} "
                          f"at side {p['side']} rounds to 0 impulses")
    if not xb_true.any():
        cause = (f"active_fraction {p['active_fraction']} at side {p['side']}, block "
                 f"{p['block']} rounds to 0 active tiles" if p["case"] == "group"
                 else f"image {p['image']} is all black")
        raise MixAmpError(f"ground-truth component b is all zeros: {cause}")


def _mixamp_config(p):
    spec_a = denoise.DenoiserSpec(kind="soft", tau=p["tau_a"])
    if p["case"] == "group":
        spec_b = denoise.DenoiserSpec(kind="block_soft", block_side=p["block"], tau=p["tau_b"])
    else:
        spec_b = denoise.DenoiserSpec(kind="tv_bregman", tau=p["tau_b"],
                                      tv_inner_iters=TV_INNER_ITERS)
    return solver.MixAmpConfig(
        denoiser_a=spec_a, denoiser_b=spec_b,
        max_iters=p["max_iters"], tol=p["tol"], damping=p["damping"],
    )


def _baseline_config(p):
    return baseline.BaselineConfig(
        lambda1=p["lambda1"], lambda2=p["lambda2"], rho=p["rho"],
        max_iters=max(p["max_iters"], 1000), tol=p["tol"], block_side=p["block"],
        tv_inner_iters=TV_INNER_ITERS,
    )


def run_separation(p, out_dir):
    """Execute one experiment; returns (exit_code, metric rows)."""
    _validate_params(p)
    a, mask, xa_true, xb_true, y = build_problem(p)
    _check_truth(p, xa_true, xb_true)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solvers = ("mixamp", "baseline") if p["solver"] == "both" else (p["solver"],)
    suffix = (lambda name: f"_{name}") if len(solvers) > 1 else (lambda name: "")

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": "separate",
        "params": p,
        "outputs": {},
    }
    rows = []
    code = 0
    for name in solvers:
        tic = time.perf_counter()
        try:
            if name == "mixamp":
                xa_hat, xb_hat, trace = solver.mixamp_run(a, y, mask, _mixamp_config(p))
            else:
                variant = "group" if p["case"] == "group" else "tv"
                xa_hat, xb_hat, trace = baseline.baseline_solve(a, y, mask, _baseline_config(p), variant)
        except SolverDivergenceError as err:
            print(f"mixamp: {name} diverged at iteration {err.iteration}", file=sys.stderr)
            if err.trace is not None:
                err.trace.to_csv(out / f"trace{suffix(name)}.csv", p["record_timing"])
            code = 1
            continue
        wall_ms = (time.perf_counter() - tic) * 1e3
        trace.to_csv(out / f"trace{suffix(name)}.csv", p["record_timing"])
        data.save_image_pgm(xa_hat, out / f"xhat_a{suffix(name)}.pgm")
        data.save_image_pgm(xb_hat, out / f"xhat_b{suffix(name)}.pgm")
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
        manifest["outputs"][name] = {
            "xhat_a": f"xhat_a{suffix(name)}.pgm",
            "xhat_b": f"xhat_b{suffix(name)}.pgm",
            "trace": f"trace{suffix(name)}.csv",
            "iters": len(trace),
            "damping": p["damping"],
        }
    data.write_metrics_csv(out / "metrics.csv", rows)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code, rows


def _manifest_params(path):
    """The run parameters stored in a manifest, checked for completeness."""
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
    required = _resolve_params(build_parser().parse_args(["separate"]))  # every run param
    missing = sorted(required.keys() - params.keys())
    if missing:
        raise MixAmpError(f"manifest {path} lacks params: {', '.join(missing)}")
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


def cmd_sweep(args):
    base = _resolve_params(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    for sampling in args.sampling:
        for seed in args.seeds:
            params = dict(base)
            params["sampling"] = sampling
            params["seed"] = seed
            tasks.append((params, str(out / f"s{sampling:g}_seed{seed}")))
    workers = max(1, int(os.environ.get("MIXAMP_THREADS", "1")))
    if workers > 1:
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
