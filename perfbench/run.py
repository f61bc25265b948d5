"""Paper-artifact benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload softarch_sweep_warm --seed 3 \\
        --seconds 25 --trace 0

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured
with tracing off; with ``--trace 1`` they are the per-layer metrics of a
traced run, plus the traced-versus-untraced wall time. The line before
it is the environment record. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Untraced passes of an end-to-end run, at least: an odd count, so the
#: reported median is a pass time and one slow pass cannot move it.
MIN_PASSES = 3

#: Set-ups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3

#: Environment variables that would override the pinned scale or point
#: the uncached runs at a disk cache.
REFUSED_ENV = ("REPRO_SPEC_INSTRUCTIONS", "REPRO_MC_TRIALS", "REPRO_CACHE_DIR")

def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program(root: Path):
    """Put the checkout's ``src`` first on the path and import the program."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    start = time.perf_counter()
    import repro  # noqa: F401
    import workloads
    import tracing
    import_s = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}")
    return workloads, tracing, import_s


def source_revision(root: Path) -> str:
    """SHA-256 over the program's sources (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile that still has ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def run_passes(workload, seconds: float, minimum: int, tracing=None,
               recorder=None):
    """At least ``minimum`` passes, then passes for as long as the next
    one, if as fast as the fastest so far, still ends within ``seconds``.

    With a ``recorder`` each pass is traced and folded into per-layer
    metrics by ``tracing.pass_metrics``.
    """
    passes, layer_metrics = [], []
    start = time.perf_counter()
    while len(passes) < minimum or (
        time.perf_counter() - start + min(r.wall_s for r in passes)
        <= seconds
    ):
        if recorder is not None:
            recorder.reset()
        result = workload.run_pass(recorder)
        if recorder is not None:
            window = (result.started, result.started + result.wall_s)
            layer_metrics.append(tracing.pass_metrics(recorder, window))
        passes.append(result)
    return passes, layer_metrics


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("paper", "toy"), default="paper",
        help="toy: tiny windows and trial counts, for the tests only",
    )
    args = parser.parse_args(argv)
    overridden = [name for name in REFUSED_ENV if name in os.environ]
    if overridden:
        _fail(
            f"{', '.join(overridden)} would override the pinned scale; "
            "unset it (the benchmark passes scale explicitly)"
        )
    root = Path.cwd()
    workloads, tracing, import_s = _load_program(root)
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}")
    scale = workloads.SCALES[args.scale]
    workloads.apply_scale(scale)

    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, workloads, tracing, scale, workdir,
                        import_s, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _measure(args, workloads, tracing, scale, workdir, import_s,
             root) -> int:
    workload = workloads.Workload(args.workload, args.seed, scale, workdir)
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup_result = workload.setup()
        setup_runs.append((time.perf_counter() - start, setup_result))
    setup_s = import_s + _median([s for s, _ in setup_runs])

    traced, layer_metrics = [], []
    if args.trace:
        untraced, _ = run_passes(workload, args.seconds / 2, 1)
        recorder = tracing.Recorder()
        with tracing.instrumented(recorder):
            traced, layer_metrics = run_passes(
                workload, args.seconds / 2, 1, tracing, recorder
            )
    else:
        untraced, _ = run_passes(workload, args.seconds, MIN_PASSES)

    everything = [r for _, r in setup_runs] + untraced + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    for result in everything:
        for error in result.errors:
            print(f"perfbench: failed op: {error}", file=sys.stderr)

    walls = [r.wall_s for r in untraced]
    wall_s = _median(walls)
    points = _median([r.points for r in untraced])
    trials = _median([r.trials for r in untraced])
    invariant_errors = []
    for metrics, result in zip(layer_metrics, traced):
        negative = [k for k, v in metrics.items()
                    if k.endswith(".self_s") and v < 0]
        if negative:
            invariant_errors.append(f"negative self time: {negative}")
        if metrics["trace.self_s_sum"] > result.wall_s * (1 + 1e-9):
            invariant_errors.append(
                f"self times sum to {metrics['trace.self_s_sum']} > "
                f"pass wall {result.wall_s}"
            )
    for error in invariant_errors:
        print(f"perfbench: trace invariant: {error}", file=sys.stderr)

    if args.trace:
        values = per_layer_values(layer_metrics, untraced, traced)
    else:
        values = {
            "wall_s": wall_s,
            "points_per_s": points / wall_s,
            "folded_trials_per_s": trials / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    section = "per_layer" if args.trace else "end_to_end"
    metrics = with_units(values, section)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": workload.inputs.variant,
        "inputs": workload.inputs.__dict__,
        "scale": scale.__dict__,
        "spec_window": workloads.spec_setup.DEFAULT_INSTRUCTIONS,
        "revision": source_revision(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
        "platform": platform.platform(),
        "trace": args.trace,
        "import_s": import_s,
        "setup_samples_s": [s for s, _ in setup_runs],
        "wall_s": {"median": wall_s, "samples": len(walls),
                   "tail": tail_percentile(walls), "passes_s": walls},
        "failed_ops_frac": failed / attempted,
        "digests_pinned": workload.pinned,
        "digests": workload.expected,
        "trace_invariant_errors": invariant_errors,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not invariant_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_values(layer_metrics, untraced, traced) -> dict:
    """Medians over the traced passes; ``harness.artifact_s.*`` and the
    untraced wall time come from the run's untraced passes."""
    values = {
        name: _median([m[name] for m in layer_metrics])
        for name in layer_metrics[0]
    }
    for artifact in untraced[0].artifact_s:
        values[f"harness.artifact_s.{artifact}"] = _median(
            [r.artifact_s[artifact] for r in untraced]
        )
    untraced_wall = _median([r.wall_s for r in untraced])
    traced_wall = _median([r.wall_s for r in traced])
    values["trace.wall_s_untraced"] = untraced_wall
    values["trace.wall_s_traced"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values


def with_units(values: dict, section: str) -> dict:
    """Every metric of ``BENCHMARK.json``'s ``section``, with its unit.

    A metric the workload does not produce (a layer or artifact it does
    not run) reads 0; a produced value the contract does not name is a
    benchmark bug.
    """
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[section]}
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }


if __name__ == "__main__":
    sys.exit(main())
