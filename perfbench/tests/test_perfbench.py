"""Toy-scale tests of the benchmark itself.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

Every workload runs end to end through ``run.py`` at toy scale, once
untraced and once traced, with the command line of BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3

sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, env=None, seed=SEED):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return {w: parse(run_bench(w, 0)) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: parse(run_bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(untraced, workload):
    record, result = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert set(result["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name
    assert record["failed_ops_frac"] == 0
    assert record["wall_s"]["samples"] >= 3
    for key in ("revision", "cpu_count", "python", "numpy", "platform",
                "seed", "scale", "spec_window"):
        assert record[key] is not None, key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_invariants(traced, workload):
    record, result = traced[workload]
    assert result["correct"] is True, record["trace_invariant_errors"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert set(result["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        assert result["metrics"][name]["unit"] == unit
    selfs = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert all(v >= 0 for v in selfs.values()), selfs
    assert sum(selfs.values()) == pytest.approx(metrics["trace.self_s_sum"])
    assert metrics["trace.self_s_sum"] <= metrics["trace.wall_s_traced"]
    assert metrics["trace.wall_s_untraced"] > 0


def test_layers_run_where_the_map_says(traced):
    layer = {w: {k: v["value"] for k, v in r["metrics"].items()}
             for w, (_, r) in traced.items()}
    cold = layer["spec_frontend_cold"]
    assert cold["workloads.synthesis.calls"] == 6
    assert cold["harness.spec_setup.trace_builds"] == 6
    # Known defect, pinned as a count: table1's masking_trace_for(bench)
    # and the systems' masking_trace_for(bench, None, 0) are two keys.
    assert cold["harness.spec_setup.redundant_trace_builds"] == 3
    assert cold["methods.cache.writes"] > 0
    assert cold["methods.cache.bytes_written"] > 0
    assert cold["methods.cache.hits"] > 0
    warm = layer["softarch_sweep_warm"]
    assert warm["core.softarch.calls"] > 0 and warm["core.softarch.events"] > 0
    assert warm["workloads.synthesis.calls"] == 0
    assert warm["core.kernel.plan_compiles"] == 0
    adaptive = layer["adaptive_pipelined"]
    assert adaptive["core.kernel.sample_calls"] > 0
    # Known defect, pinned as a count: the pipelined scheduler computes
    # far more trials than it folds.
    assert 0 < adaptive["core.montecarlo.useful_trial_ratio"] < 0.5


def test_cold_passes_write_the_uncached_bytes(untraced):
    """The cold workload's passes write a disk cache; their digests must
    equal those of uncached runs of the same artifacts."""
    script = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import workloads as w\n"
        "from repro.harness.registry import get_experiment\n"
        "scale = w.SCALES['toy']; w.apply_scale(scale)\n"
        f"inputs = w.inputs_for({SEED})\n"
        "for a, kw in w.artifact_calls(w.COLD, inputs, scale, None):\n"
        "    print(a, w.digest(get_experiment(a).run(**kw).result_set))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    uncached = dict(line.split() for line in proc.stdout.splitlines())
    cold = untraced["spec_frontend_cold"][0]["digests"]
    assert {a: cold[a] for a in uncached} == uncached


def test_refuses_scale_override():
    env = dict(os.environ, REPRO_MC_TRIALS="1000")
    proc = run_bench("softarch_sweep_warm", 0, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the SoftArch nested-block aggregation raises "
    "EstimationError at sec5.4 point N x S = 1.1e8, C = 1 (paper window); "
    "sec5.4's seed-picked grids stay on grid points until it is fixed"
))
def test_softarch_fold_off_grid_point():
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.harness.registry import get_experiment\n"
        "get_experiment('sec5.4').run(trials=1000, "
        "n_times_s_values=(1.1e8,), component_counts=(1,))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-300:]


def test_self_times_share_overlapping_threads():
    spans = [
        ("harness", 1, 0.0, 10.0, {}),
        ("methods.batch", 1, 1.0, 9.0, {}),
        ("core.kernel.sample", 1, 2.0, 4.0, {}),
        ("core.kernel.sample", 2, 3.0, 7.0, {}),
    ]
    selfs = tracing.self_times(spans, (0.0, 10.0))
    assert selfs["harness"] == pytest.approx(2.0)
    # 1-2 alone, 3-4 shared with the worker thread, 4-7 shared, 7-9 alone.
    assert selfs["methods.batch"] == pytest.approx(1.0 + 1.5 + 2.0)
    assert selfs["core.kernel.sample"] == pytest.approx(1.0 + 1.0 + 1.5)
    assert sum(selfs.values()) == pytest.approx(10.0)
    clipped = tracing.self_times(spans, (2.0, 4.0))
    assert sum(clipped.values()) == pytest.approx(2.0)
