"""The benchmark's workloads: inputs from the seed, set-up, and passes.

A *pass* is one ordered list of artifact runs through the public API,
``get_experiment(artifact).run(**kwargs)``. Each workload derives its
inputs from the benchmark seed (``variant = seed % VARIANTS``; variant 0
is the paper's defaults), sets up once, and then runs passes. Every pass
hashes each artifact's canonical ``ResultSet`` JSON and compares the hash
with the digest pinned in ``digests.json`` for that workload and variant.

Import this module only after ``src`` is on ``sys.path`` (``run.py``
does that).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

from repro.core.kernel import clear_plan_cache
from repro.harness import spec_setup
from repro.harness.registry import get_experiment

#: Seeds map onto this many input variants; each one has pinned digests.
VARIANTS = 8

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclasses.dataclass(frozen=True)
class Scale:
    """Everything that sets how much work one artifact run does."""

    name: str
    #: SPEC window (dynamic instructions per simulated trace).
    instructions: int
    #: Monte-Carlo trials per estimate of the fixed-count artifacts.
    trials: int
    #: Trial budget and relative-stderr target of ``adaptive_pipelined``.
    adaptive_trials: int
    target_stderr: float


SCALES = {
    # A 10k-instruction window, not the repository default of 40k: a
    # pass then takes about 2 s instead of 7 s, so a run holds enough
    # passes for its fastest one to be steady on a shared host.
    "paper": Scale("paper", 10_000, 100_000, 500_000, 0.01),
    # For the benchmark's own tests: seconds instead of minutes.
    "toy": Scale("toy", 2_000, 2_000, 16_000, 0.05),
}

#: ``benchmarks=`` of table1 / sec5.1 / sec5.2, one order per variant:
#: the paper's representative set in each of its six orders. Trace
#: build times differ between SPEC benchmarks by up to 2.5x, more than
#: per-benchmark timings on a shared host can match, so the seed varies
#: the order (and sec5.2's grid) and every variant builds the same traces.
SPEC_ORDERS = tuple(itertools.permutations(("gzip", "mcf", "swim")))

#: The paper's grids (the artifacts' own defaults), varied per variant.
SEC52_NXS = (1e5, 1e7, 1e9, 5e12)
SEC54_NXS = (1e8, 1e10, 1e12)
SEC54_C = (1, 8, 5000, 50000)
FIG6B_NXS = (1e8, 1e9)
FIG6B_C = (2, 8, 5000, 50000, 500000)

#: sec5.4 variants draw from grid points, not from a continuum: the
#: SoftArch fold raises on some off-grid points (N x S = 1.1e8 with
#: C = 1, see README.md), so its inputs are decades of N x S over the
#: artifact's own range and the Table-2 component counts.
SEC54_NXS_CHOICES = (1e8, 1e9, 1e10, 1e11, 1e12)
SEC54_C_CHOICES = (2, 8, 5000, 50000, 500000)


def _jitter(values, rng, integer=False) -> tuple:
    """Each value within a factor of 2 of the paper's grid point, clamped
    to the range the artifact's own grid spans."""
    lo, hi = min(values), max(values)
    out = []
    for v in values:
        moved = float(f"{v * 10 ** rng.uniform(-0.3, 0.3):.2g}")
        moved = min(max(moved, lo), hi)
        out.append(int(round(moved)) if integer else moved)
    return tuple(out)


def _subset(choices, size, rng) -> tuple:
    """``size`` distinct grid points, in ascending order."""
    return tuple(sorted(rng.choice(choices, size=size, replace=False).tolist()))


@dataclasses.dataclass(frozen=True)
class Inputs:
    """The seed-chosen inputs every workload draws its share from."""

    variant: int
    benchmarks: tuple[str, ...]
    sec52_nxs: tuple[float, ...]
    sec54_nxs: tuple[float, ...]
    sec54_c: tuple[int, ...]
    fig6b_nxs: tuple[float, ...]
    fig6b_c: tuple[int, ...]


def inputs_for(seed: int) -> Inputs:
    """The same seed always gives the same inputs; seed 0 the defaults."""
    variant = seed % VARIANTS
    if variant == 0:
        return Inputs(0, SPEC_ORDERS[0], SEC52_NXS, SEC54_NXS, SEC54_C,
                      FIG6B_NXS, FIG6B_C)
    rng = np.random.default_rng(variant)
    return Inputs(
        variant,
        SPEC_ORDERS[variant % len(SPEC_ORDERS)],
        _jitter(SEC52_NXS, rng),
        _subset(SEC54_NXS_CHOICES, len(SEC54_NXS), rng),
        (1,) + _subset(SEC54_C_CHOICES, len(SEC54_C) - 1, rng),
        _jitter(FIG6B_NXS, rng),
        _jitter(FIG6B_C, rng, integer=True),
    )


#: The benchmark's workloads; why each exists is recorded in
#: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS = ("spec_frontend_cold", "softarch_sweep_warm", "adaptive_pipelined")

#: The cold workload starts every pass like a fresh CLI process: empty
#: in-process trace and plan caches, and a new ``cache_dir`` that the pass
#: writes. The warm workloads reuse the traces and plans their set-up built.
COLD = "spec_frontend_cold"


def artifact_calls(
    workload: str, inputs: Inputs, scale: Scale, cache_dir: str | None
) -> list[tuple[str, dict]]:
    """The ``(artifact, run kwargs)`` list of one pass."""
    if workload == "spec_frontend_cold":
        spec = dict(benchmarks=inputs.benchmarks, cache_dir=cache_dir)
        return [
            ("table1", spec),
            ("sec5.1", dict(spec, trials=scale.trials)),
            ("sec5.2", dict(spec, n_times_s_values=inputs.sec52_nxs)),
        ]
    sec54 = ("sec5.4", dict(
        trials=scale.trials,
        n_times_s_values=inputs.sec54_nxs,
        component_counts=inputs.sec54_c,
        cache_dir=cache_dir,
    ))
    fig6b_grid = dict(
        n_times_s_values=inputs.fig6b_nxs,
        component_counts=inputs.fig6b_c,
    )
    if workload == "softarch_sweep_warm":
        return [sec54]
    if workload == "adaptive_pipelined":
        return [("fig6b", dict(
            fig6b_grid,
            trials=scale.adaptive_trials,
            target_stderr=scale.target_stderr,
            mc_chunks=8,
            workers=2,
            executor="thread",
            pipeline_methods=True,
            reallocate_budget=True,
        ))]
    raise KeyError(workload)


def digest(result_set) -> str:
    """SHA-256 of the artifact's canonical ``ResultSet`` JSON."""
    return hashlib.sha256(result_set.to_json().encode("utf-8")).hexdigest()


def estimate_trials(result_set) -> int:
    """Monte-Carlo trials behind every estimate the artifact returned."""
    return sum(
        comparison.reference.trials
        + sum(e.trials for e in comparison.estimates.values())
        for comparison in result_set
    )


def pinned_digests(workload: str, variant: int, scale: Scale) -> dict:
    """``{artifact: digest}`` pinned for this commit, or ``{}``."""
    if scale.name != "paper" or not DIGESTS_PATH.exists():
        return {}
    pinned = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return dict(pinned["digests"].get(workload, {}).get(str(variant), {}))


def apply_scale(scale: Scale) -> None:
    """Pin the SPEC window the artifacts read at call time."""
    spec_setup.DEFAULT_INSTRUCTIONS = scale.instructions


@dataclasses.dataclass
class PassResult:
    """One run of a workload's artifact list (a pass or a set-up)."""

    started: float
    wall_s: float
    artifact_s: dict[str, float]
    points: int
    trials: int
    attempted: int
    failed: int
    errors: list[str]


class Workload:
    """One workload bound to its seed, scale, and working directory."""

    def __init__(self, name: str, seed: int, scale: Scale, workdir: Path):
        self.name = name
        self.cold = name == COLD
        self.inputs = inputs_for(seed)
        self.scale = scale
        self.workdir = workdir
        self.expected = pinned_digests(name, self.inputs.variant, scale)
        self.pinned = bool(self.expected)
        self._passes = 0

    def setup(self) -> PassResult:
        """Warm up; returns the set-up run's result.

        The cold workload runs table2, which loads the engine without
        building any trace. A warm workload empties the in-process caches
        and runs one full pass, which builds the traces and sampling plans
        its passes reuse; every repeat therefore does the same work.
        """
        if self.cold:
            return self._run([("table2", {})], None)
        clear_trace_cache_and_plans()
        return self.run_pass()

    def run_pass(self, recorder=None) -> PassResult:
        """One timed pass; ``recorder`` opens a harness span per artifact."""
        cache_dir = None
        if self.cold:
            self._passes += 1
            cache_dir = self.workdir / f"pass-{self._passes}"
        calls = artifact_calls(
            self.name, self.inputs, self.scale,
            None if cache_dir is None else str(cache_dir),
        )
        try:
            return self._run(calls, recorder)
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)

    def _run(self, calls, recorder) -> PassResult:
        results = {}
        artifact_s = {}
        errors = []
        start = time.perf_counter()
        if self.cold:
            clear_trace_cache_and_plans()
        for artifact, kwargs in calls:
            t0 = time.perf_counter()
            span = (
                contextlib.nullcontext() if recorder is None
                else recorder.span("harness", artifact=artifact)
            )
            try:
                with span:
                    outcome = get_experiment(artifact).run(**kwargs)
                results[artifact] = outcome.result_set
            except Exception:  # noqa: BLE001 - counted as a failed op
                errors.append(f"{artifact}: {traceback.format_exc()}")
            artifact_s[artifact] = time.perf_counter() - t0
        wall = time.perf_counter() - start
        points = trials = 0
        for artifact, result_set in results.items():
            points += len(result_set)
            trials += estimate_trials(result_set)
            found = digest(result_set)
            wanted = self.expected.setdefault(artifact, found)
            if found != wanted:
                errors.append(
                    f"{artifact}: digest {found} != expected {wanted}"
                )
        return PassResult(
            started=start,
            wall_s=wall,
            artifact_s=artifact_s,
            points=points,
            trials=trials,
            attempted=len(calls),
            failed=len(errors),
            errors=errors,
        )


def clear_trace_cache_and_plans() -> None:
    """Empty the in-process caches a fresh CLI process starts without."""
    spec_setup.clear_trace_cache()
    clear_plan_cache()
