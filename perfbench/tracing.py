"""Layer spans for the traced benchmark run.

Nothing in ``src/`` knows about tracing. :func:`instrumented` patches the
public function of each layer *where its caller binds the name* (for
example ``repro.harness.spec_setup.simulate``, not
``repro.microarch.simulator.simulate``), records one span per call, and
restores every name on exit. Spans stay in memory; :func:`pass_metrics`
folds the spans of one pass into the per-layer metrics.

A span is ``(layer, thread id, start, end, attrs)``. A *counter* is a
span-less record ``(name, attrs)`` for calls too fine or too nested to
time on their own (timeline builds, estimate construction, cache
lookups).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import threading
import time
from collections import Counter, defaultdict

#: Span layers, in report order. ``harness`` is the root span the
#: benchmark opens around each artifact run on the driving thread.
LAYERS = (
    "harness",
    "workloads.synthesis",
    "microarch.simulator",
    "microarch.pipeline",
    "masking",
    "methods.batch",
    "methods.cache",
    "core.softarch",
    "core.firstprinciples",
    "core.kernel.plan",
    "core.kernel.sample",
)


class Recorder:
    """In-memory span and counter store shared by all wrappers.

    ``list.append`` is atomic under the interpreter lock, so worker
    threads of the thread executor record without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = []

    @contextlib.contextmanager
    def span(self, layer: str, **attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                (layer, threading.get_ident(), start,
                 time.perf_counter(), attrs)
            )


def _bound(fn):
    """``(args, kwargs) -> {parameter: value}`` for ``fn``'s signature."""
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _span_wrapper(recorder: Recorder, layer: str, fn, measure=None):
    bind = _bound(fn) if measure is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tid = threading.get_ident()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.spans.append((layer, tid, start, time.perf_counter(), {}))
            raise
        end = time.perf_counter()
        attrs = {} if measure is None else measure(bind(args, kwargs), result)
        recorder.spans.append((layer, tid, start, end, attrs))
        return result

    return wrapper


def _counter_wrapper(recorder: Recorder, name: str, fn, measure):
    bind = _bound(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        recorder.counters.append((name, measure(bind(args, kwargs), result)))
        return result

    return wrapper


def _trace_key(arguments, result):
    profile = arguments["profile"]
    return {
        "instructions": len(result),
        "key": (profile.name, arguments["n_instructions"],
                arguments["seed"]),
    }


def _cache_write(arguments, result):
    cache = arguments["self"]
    # The entry file the put just replaced (DiskCache's own key -> path).
    path = cache._path(arguments["key"])  # noqa: SLF001
    return {"op": "write", "bytes": os.path.getsize(path)}


#: ``(module, attribute path, kind, layer or counter name, measure)``.
#: ``kind`` is ``"span"`` or ``"counter"``; ``measure`` maps the bound
#: arguments and the result to the record's attrs.
PATCHES = (
    ("repro.harness.spec_setup", "synthesize_trace", "span",
     "workloads.synthesis", _trace_key),
    ("repro.harness.spec_setup", "simulate", "span",
     "microarch.simulator",
     lambda a, r: {"instructions": len(a["trace"])}),
    ("repro.microarch.pipeline", "PipelineModel.run", "span",
     "microarch.pipeline", None),
    ("repro.masking.trace", "MaskingTrace.profile", "span", "masking",
     lambda a, r: {"segments": r.segment_count}),
    ("repro.harness.spec_setup", "weighted_average_profile", "span",
     "masking", lambda a, r: {"segments": r.segment_count}),
    ("repro.harness.experiments", "evaluate_design_space", "span",
     "methods.batch", lambda a, r: {"points": len(r)}),
    ("repro.methods.cache", "DiskCache.peek", "span", "methods.cache",
     lambda a, r: {"op": "read"}),
    ("repro.methods.cache", "DiskCache.put", "span", "methods.cache",
     _cache_write),
    ("repro.methods.cache", "DiskCache.get", "counter", "cache.get",
     lambda a, r: {"hit": r is not None}),
    ("repro.methods.adapters", "softarch_mttf", "span", "core.softarch",
     None),
    ("repro.core.softarch", "timeline_from_intensity", "counter",
     "softarch.timeline", lambda a, r: {"events": r.event_count}),
    ("repro.methods.adapters", "first_principles_mttf", "span",
     "core.firstprinciples", None),
    ("repro.methods.adapters", "exact_component_mttf", "span",
     "core.firstprinciples", None),
    ("repro.core.kernel", "plan_for_system", "span", "core.kernel.plan",
     None),
    ("repro.core.kernel", "plan_for_component", "span",
     "core.kernel.plan", None),
    ("repro.core.kernel", "compile_intensity", "counter",
     "kernel.compile", lambda a, r: {}),
    ("repro.core.kernel", "SamplingPlan.sample_ttf", "span",
     "core.kernel.sample", lambda a, r: {"trials": a["config"].trials}),
    # Every Monte-Carlo estimate is built by one of these two; their
    # trial counts are the trials folded into a returned estimate.
    ("repro.core.montecarlo", "estimate_from_moments", "counter",
     "mc.estimate", lambda a, r: {"trials": r.trials}),
    ("repro.core.montecarlo", "_estimate_from_samples", "counter",
     "mc.estimate", lambda a, r: {"trials": r.trials}),
)


@contextlib.contextmanager
def instrumented(recorder: Recorder):
    """Patch every :data:`PATCHES` target for the duration of the block."""
    undo = []
    try:
        for module_name, path, kind, name, measure in PATCHES:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if kind == "span":
                wrapper = _span_wrapper(recorder, name, original, measure)
            else:
                wrapper = _counter_wrapper(recorder, name, original, measure)
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Folding one pass's spans into metrics.
# ---------------------------------------------------------------------------


def _innermost_segments(spans):
    """Per thread, the intervals during which each layer is innermost."""
    by_thread = defaultdict(list)
    for index, (layer, tid, start, end, _) in enumerate(spans):
        # At one instant closes sort before opens, an inner span closes
        # before its caller (later start first) and a caller opens
        # before its callee (later end first).
        by_thread[tid].append((start, 1, -end, index, layer))
        by_thread[tid].append((end, 0, -start, index, layer))
    segments = []
    for events in by_thread.values():
        events.sort()
        stack: list[tuple[int, str]] = []
        cursor = None
        for moment, is_open, _order, index, layer in events:
            if stack and moment > cursor:
                segments.append((cursor, moment, stack[-1][1]))
            if is_open:
                stack.append((index, layer))
            else:
                stack.remove((index, layer))
            cursor = moment
    return segments


def self_times(spans, window: tuple[float, float]) -> dict[str, float]:
    """Wall-clock self time per layer over ``window``.

    A layer's self time is the time during which it is the innermost
    open span. When several threads are inside spans at once, each
    instant is shared equally between them, so the self times of all
    layers sum to the covered part of the window, at most its length.
    """
    lo, hi = window
    boundaries = []
    for start, end, layer in _innermost_segments(spans):
        start, end = max(start, lo), min(end, hi)
        if end > start:
            boundaries.append((start, 1, layer))
            boundaries.append((end, -1, layer))
    boundaries.sort(key=lambda b: (b[0], b[1]))
    totals = dict.fromkeys(LAYERS, 0.0)
    active: Counter = Counter()
    depth = 0
    previous = lo
    for moment, step, layer in boundaries:
        if depth:
            share = (moment - previous) / depth
            for name, count in active.items():
                if count:
                    totals[name] = totals.get(name, 0.0) + share * count
        active[layer] += step
        depth += step
        previous = moment
    return totals


def pass_metrics(recorder: Recorder, window: tuple[float, float]) -> dict:
    """Per-layer metrics of one traced pass (see README.md for the map)."""
    busy = defaultdict(float)
    calls = Counter()
    sums = Counter()
    trace_keys = []
    for layer, _tid, start, end, attrs in recorder.spans:
        busy[layer] += end - start
        calls[layer] += 1
        if layer == "workloads.synthesis" and "key" in attrs:
            trace_keys.append(attrs["key"])
        for field in ("instructions", "segments", "points", "trials",
                      "bytes"):
            if field in attrs:
                sums[layer, field] += attrs[field]
        if "op" in attrs:
            calls["cache." + attrs["op"]] += 1
            busy["cache." + attrs["op"]] += end - start
    for name, attrs in recorder.counters:
        calls[name] += 1
        if name == "cache.get":
            calls["cache.hit" if attrs["hit"] else "cache.miss"] += 1
        for field in ("events", "trials"):
            if field in attrs:
                sums[name, field] += attrs[field]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    sim_instr = sums["microarch.simulator", "instructions"]
    computed = sums["core.kernel.sample", "trials"]
    folded = sums["mc.estimate", "trials"]
    metrics = {
        "workloads.synthesis.calls": calls["workloads.synthesis"],
        "workloads.synthesis.busy_s": busy["workloads.synthesis"],
        "workloads.synthesis.instructions":
            sums["workloads.synthesis", "instructions"],
        "microarch.simulator.calls": calls["microarch.simulator"],
        "microarch.simulator.busy_s": busy["microarch.simulator"],
        "microarch.simulator.sim_instr_per_s":
            rate(sim_instr, busy["microarch.simulator"]),
        "microarch.pipeline.busy_s": busy["microarch.pipeline"],
        "harness.spec_setup.trace_builds": len(trace_keys),
        "harness.spec_setup.redundant_trace_builds":
            len(trace_keys) - len(set(trace_keys)),
        "masking.busy_s": busy["masking"],
        "masking.segments": sums["masking", "segments"],
        "core.softarch.calls": calls["core.softarch"],
        "core.softarch.busy_s": busy["core.softarch"],
        "core.softarch.events": sums["softarch.timeline", "events"],
        "core.kernel.plan_calls": calls["core.kernel.plan"],
        "core.kernel.plan_compiles": calls["kernel.compile"],
        "core.kernel.plan_s": busy["core.kernel.plan"],
        "core.kernel.sample_calls": calls["core.kernel.sample"],
        "core.kernel.sample_busy_s": busy["core.kernel.sample"],
        "core.kernel.trials_per_s":
            rate(computed, busy["core.kernel.sample"]),
        "core.montecarlo.computed_trials": computed,
        "core.montecarlo.folded_trials": folded,
        "core.montecarlo.useful_trial_ratio":
            folded / computed if computed else 0.0,
        "core.firstprinciples.calls": calls["core.firstprinciples"],
        "core.firstprinciples.busy_s": busy["core.firstprinciples"],
        "methods.batch.calls": calls["methods.batch"],
        "methods.batch.points": sums["methods.batch", "points"],
        "methods.cache.hits": calls["cache.hit"],
        "methods.cache.misses": calls["cache.miss"],
        "methods.cache.writes": calls["cache.write"],
        "methods.cache.read_s": busy["cache.read"],
        "methods.cache.write_s": busy["cache.write"],
        "methods.cache.bytes_written": sums["methods.cache", "bytes"],
    }
    selfs = self_times(recorder.spans, window)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs[layer]
    metrics["trace.self_s_sum"] = sum(selfs.values())
    return metrics
