"""Self-test of the benchmark at tiny sizes; it has no timing gate.

    python3 -m pytest -q perfbench

For every workload it checks that a run emits exactly the metrics that
BENCHMARK.json names, each with its unit, and that the exact metrics (PSNR,
iteration and call counts) repeat bit for bit under the same seed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(workload, trace, seed=3):
    done = run("--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, done.stderr
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert out["failed"] == 0
    return out["metrics"]


def exact(name):
    return (name.endswith(("_db", ".calls", ".iters", "_per_iter", "_ratio"))
            or name == "solved_frac")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_named_with_units_and_exact_ones_repeat(workload, trace, section):
    first = result(workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    for name, entry in first.items():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name
        if trace == 0:
            assert entry["value"] != 0, name
    second = result(workload, trace)
    for name in expected:
        if exact(name):
            assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
