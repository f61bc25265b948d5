"""Batch evaluation engine over design spaces.

:func:`evaluate_design_space` runs a set of registered methods over many
systems — the Table-2 grid, a cluster-size sweep, a workload family —
with one uniform call, replacing the bespoke per-experiment loops. It

* memoizes per-component MTTFs *and* whole system-level estimates in a
  shared :class:`~repro.methods.base.ComponentCache`, keyed by content
  fingerprint (give the cache a
  :class:`~repro.methods.cache.DiskCache` and a warm rerun of a sweep
  performs zero re-estimations),
* fans out through a pluggable :class:`~repro.methods.executors.ChunkExecutor`
  backend — a thread pool (``executor="thread"``; the NumPy samplers
  release the GIL for the heavy draws), a process pool
  (``executor="process"``; true parallelism on one host), or a TCP
  worker fleet (``executor="remote"`` /
  :class:`~repro.methods.executors.RemoteExecutor`; paper-scale
  1e6-trial sweeps across machines),
* **streams** Monte-Carlo references at *chunk* granularity: chunk
  moments are folded into a per-point
  :class:`~repro.core.montecarlo.MomentAccumulator` the moment they
  complete (no gather-all barrier), each fold feeds the run's
  :class:`~repro.core.montecarlo.StoppingRule` so adaptive runs stop
  as soon as the target precision is reached, and every fold can emit a
  :class:`~repro.methods.progress.ProgressEvent`; chunks are dispatched
  on demand, a few in flight per open point (see :class:`_ChunkDispatch`),
  so a point that stops has computed little beyond what it folded,
* can run as one **fully-pipelined, work-conserving schedule**
  (``pipeline_methods=True`` / ``reallocate_budget=True``): method
  estimator tasks join the pool the moment their point's reference
  finalizes instead of waiting for a post-reference phase, and trial
  budget freed by early-stopping points is re-granted to the
  least-converged stragglers at deterministic quiescent barriers
  (see :class:`_PipelinedScheduler`),
* partitions deterministically across machines: ``shard=(i, n)``
  evaluates every n-th grid point starting at i, and
  :func:`~repro.methods.results.merge_result_sets` reassembles the
  shards into the exact :class:`~repro.methods.results.ResultSet` an
  unsharded run produces, and
* returns a serializable :class:`~repro.methods.results.ResultSet`
  whose record order always matches the input order, regardless of
  worker count, executor, or chunk completion order — at fixed chunking
  with the stopping rule disabled, ``workers=1`` and ``workers=N``
  produce bit-identical numbers, and even adaptive runs are a pure
  function of the configuration because chunks fold in index order.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    as_completed,
    wait,
)
from typing import Iterable, Sequence

from ..core import kernel as _kernel
from ..core.comparison import MethodComparison
from ..core.montecarlo import (
    MomentAccumulator,
    MonteCarloConfig,
    adaptive_chunk_configs,
    allocate_grants,
    extension_chunk_configs,
    grant_chunk_trials,
    system_chunk_moments,
)
from ..core.system import SystemModel
from ..errors import ConfigurationError
from ..reliability.metrics import MTTFEstimate
from . import registry
from .base import ComponentCache, MethodConfig
from .cache import mc_token
from .executors import (
    ChunkExecutor,
    estimate_task,
    get_executor,
    resolve_workers,
)
from .ledger import BudgetLedger, ShardDeparted
from .progress import (
    BUDGET_CLAIMED,
    BUDGET_REALLOCATED,
    CACHE_PREWARMED,
    CHUNK_MERGED,
    METHOD_DONE,
    METHOD_STARTED,
    POINT_DONE,
    POINT_START,
    SHARD_ADOPTED,
    SHARD_DEPARTED,
    ProgressCallback,
    ProgressEvent,
    relative_stderr,
)
from .results import ResultSet, validate_shard

#: A design space item: a system, optionally labeled.
SpaceItem = SystemModel | tuple[str, SystemModel]


def _plan_batches(
    jobs: Sequence[tuple[int, MonteCarloConfig]], workers: int
) -> list[list[tuple[int, MonteCarloConfig]]]:
    """Split ``(chunk_index, config)`` jobs into at most ``workers`` batches.

    One :func:`~repro.core.kernel.run_plan_chunks` pool task runs each
    batch, so a point's chunk slice costs ``min(workers, chunks)``
    submissions instead of ``chunks`` — the IPC/pickling amortization
    half of the compiled-kernel layer. Contiguous slicing keeps every
    batch's chunk indices ascending, so the parent folds each result
    list front to back and the :class:`MomentAccumulator` sees the
    exact per-chunk fold sequence the unbatched path produces.
    """
    if not jobs:
        return []
    size = -(-len(jobs) // max(1, workers))
    return [jobs[i : i + size] for i in range(0, len(jobs), size)]


def _normalize_space(
    space: Iterable[SpaceItem],
) -> list[tuple[str, SystemModel]]:
    normalized: list[tuple[str, SystemModel]] = []
    for index, item in enumerate(space):
        if isinstance(item, SystemModel):
            normalized.append((f"system[{index}]", item))
        else:
            label, system = item
            if not isinstance(system, SystemModel):
                raise ConfigurationError(
                    f"design-space item {index} is not a SystemModel"
                )
            normalized.append((str(label), system))
    if not normalized:
        raise ConfigurationError("the design space is empty")
    return normalized


def shard_select(sequence: Sequence, shard: tuple[int, int] | None):
    """The deterministic slice of ``sequence`` one shard evaluates.

    Round-robin by position: shard ``(i, n)`` takes elements ``i``,
    ``i + n``, ``i + 2n``, ... — a pure function of the *full* sequence
    order, so N machines enumerating the same space partition it without
    coordination, shard sizes differ by at most one, and
    :func:`~repro.methods.results.merge_result_sets` can reassemble the
    original order exactly. Experiments use the same helper to keep
    their per-point metadata aligned with a sharded engine result.
    """
    if shard is None:
        return sequence
    index, count = validate_shard(shard)
    return sequence[index::count]


def _emit(progress: ProgressCallback | None, event: ProgressEvent) -> None:
    if progress is not None:
        progress(event)


def _finish_item(
    item: tuple[str, SystemModel],
    ref: MTTFEstimate,
    method_names: Sequence[str],
    reference_name: str,
    config: MethodConfig,
    cache: ComponentCache | None,
    skip_unsupported: bool,
) -> MethodComparison:
    """Assemble one point's comparison, computing methods in the parent.

    This is the *phased* method step: every method estimate runs (or is
    replayed from the cache) after the point's reference landed. The
    pipelined scheduler uses the same support/skip/reference-reuse rules
    but farms the estimates out to its pool instead.
    """
    label, system = item
    estimates: dict[str, MTTFEstimate] = {}
    for name in method_names:
        estimator = registry.get(name)
        if not estimator.supports(system):
            if skip_unsupported:
                continue
            raise ConfigurationError(
                f"method {name!r} does not support system {label!r}"
            )
        # The reference estimate doubles as the method estimate when
        # the same method is also selected.
        if name == reference_name:
            estimates[name] = ref
            continue
        mc = config.mc if estimator.is_stochastic else None
        if cache is None:
            estimates[name] = estimator.estimate(system, config)
        else:
            estimates[name] = cache.get_or_compute_estimate(
                name,
                system,
                mc,
                reference_name,
                lambda: estimator.estimate(system, config),
            )
    return MethodComparison(
        system_label=label, reference=ref, estimates=estimates
    )


class _PointState:
    """Mutable per-point bookkeeping of the streaming reference paths."""

    __slots__ = (
        "index", "label", "system", "plan", "accumulator", "submitted",
        "in_flight", "sampling_plan", "reference", "ref_key", "estimates",
        "pending_methods", "methods_launched",
    )

    def __init__(self, index: int, label: str, system: SystemModel) -> None:
        self.index = index
        self.label = label
        self.system = system
        #: Chunk plan (mutable: budget grants append extension chunks).
        self.plan: list[MonteCarloConfig] | None = None
        self.accumulator: MomentAccumulator | None = None
        #: How many plan chunks have been submitted to the pool.
        self.submitted = 0
        #: This point's chunk tasks submitted and not yet collected.
        self.in_flight: set[Future] = set()
        #: The compiled sampling plan, resolved on first dispatch.
        self.sampling_plan: _kernel.SamplingPlan | None = None
        self.reference: MTTFEstimate | None = None
        self.ref_key: str | None = None
        self.estimates: dict[str, MTTFEstimate] = {}
        self.pending_methods: set[str] = set()
        self.methods_launched = False


class _ChunkDispatch:
    """The one chunk-dispatch rule of both streaming reference paths.

    Demand-driven: under a :class:`~repro.core.montecarlo.StoppingRule`
    (``windowed``) an *open* point — one whose accumulator is not done —
    keeps at most ``max(1, ceil(workers / open_points))`` single-chunk
    tasks in flight, and every fold refills that window from the point's
    plan. Many open points therefore speculate nothing (each computes
    exactly the chunk it folds next), while a lone straggler still fills
    the pool. Without a rule every chunk folds, so a point's whole
    remaining plan goes out at once, coalesced by :func:`_plan_batches`
    into at most ``workers`` compiled-plan tasks.

    Refills happen inside :meth:`complete`, before the caller looks at
    :attr:`live`, which gives the quiescent-barrier invariant: an open
    point always has a task in flight, so ``live == 0`` implies every
    open point has resolved its current plan (satisfied, exhausted or
    censored). Dispatch decides only *when* a chunk runs, never which
    chunks fold — the accumulator folds in chunk-index order — so no
    number depends on the window.

    New futures are added to the caller's ``waiting`` set; the caller
    hands every completed future it finds in :attr:`tasks` back to
    :meth:`complete`.
    """

    def __init__(
        self, pool, workers: int, waiting: set[Future], use_plans: bool,
        windowed: bool,
    ) -> None:
        self.pool = pool
        self.workers = workers
        self.waiting = waiting
        #: Compiled-kernel dispatch through fingerprint-keyed plan
        #: batches; ``legacy`` submits ``system_chunk_moments`` per chunk.
        self.use_plans = use_plans
        self.windowed = windowed
        #: Points whose accumulator is not done.
        self.open_points = 0
        #: Outstanding chunk tasks (straggler-inclusive) -> their point
        #: and ``(chunk_index, config)`` jobs.
        self.tasks: dict[Future, tuple[_PointState, list]] = {}
        #: Plan-carrying submissions so far, per plan cache key — after
        #: ``workers`` of them every pool worker holds the plan and
        #: later tasks ship a 64-byte key instead.
        self._shipped: dict[str, int] = {}

    @property
    def live(self) -> int:
        """Chunk tasks in flight anywhere; zero is a quiescent barrier."""
        return len(self.tasks)

    def open(self) -> None:
        """Count one more point (newly planned, or reopened by a grant).

        Open every point of a wave before filling any of them, so the
        first windows already see the whole wave.
        """
        self.open_points += 1

    def fill(self, state: _PointState) -> None:
        """Submit ``state``'s next chunks up to its window."""
        plan = state.plan
        stop = len(plan)
        if self.windowed:
            # ceil(workers / open_points); workers >= 1, so never zero.
            window = -(-self.workers // self.open_points)
            stop = min(stop, state.submitted + window - len(state.in_flight))
        if stop <= state.submitted:
            return
        jobs = [(index, plan[index]) for index in range(state.submitted, stop)]
        state.submitted = stop
        coalesce = self.use_plans and not self.windowed
        for batch in _plan_batches(
            jobs, self.workers if coalesce else len(jobs)
        ):
            self._submit(state, batch)

    def _submit(self, state: _PointState, jobs, ship_plan=False) -> None:
        if self.use_plans:
            plan = state.sampling_plan
            if plan is None:
                plan = state.sampling_plan = _kernel.plan_for_system(
                    state.system
                )
            key = plan.cache_key
            payload = None
            if ship_plan or self._shipped.get(key, 0) < self.workers:
                payload = plan
                self._shipped[key] = self._shipped.get(key, 0) + 1
            future = self.pool.submit(
                _kernel.run_plan_chunks, key, payload, jobs
            )
        else:
            future = self.pool.submit(
                system_chunk_moments, state.system, jobs[0][1]
            )
        self.tasks[future] = (state, jobs)
        state.in_flight.add(future)
        self.waiting.add(future)

    def complete(self, future: Future) -> tuple[_PointState, int] | None:
        """Collect one finished chunk task; fold it and refill the window.

        A point the fold satisfied has its queued stragglers cancelled.
        Returns ``(state, merged_before)`` when the task's moments were
        offered to an open point's accumulator, ``None`` for a straggler
        of an already-resolved point (never folded, never counted) or a
        ``PLAN_MISS`` resubmission.
        """
        state, jobs = self.tasks.pop(future)
        state.in_flight.discard(future)
        accumulator = state.accumulator
        if accumulator.done or future.cancelled():
            return None
        if self.use_plans:
            status, pairs = future.result()
            if status == _kernel.PLAN_MISS:
                # Cold worker without the plan (spawn start method or an
                # evicted cache entry): retry with the plan attached.
                # Chunk moments are a pure function of the chunk configs,
                # so nothing downstream moves.
                self._submit(state, jobs, ship_plan=True)
                return None
        else:
            pairs = [(jobs[0][0], future.result())]
        merged_before = accumulator.merged_chunks
        for chunk_index, moments in pairs:
            if accumulator.add(chunk_index, moments):
                # Later pairs of this batch are stragglers exactly like
                # late futures: never folded, never counted.
                break
        if not accumulator.done:
            self.fill(state)
            return state, merged_before
        self.open_points -= 1
        if accumulator.stopped_early:
            # Only a straggler still queued behind other work is saved
            # here; the window is what keeps stragglers rare.
            for leftover in state.in_flight:
                leftover.cancel()
        return state, merged_before


def _stream_chunked_references(
    items: Sequence[tuple[str, SystemModel]],
    pending: Sequence[int],
    references: list[MTTFEstimate | None],
    mc: MonteCarloConfig,
    pool,
    workers: int,
    progress: ProgressCallback | None,
) -> None:
    """Streaming reduction of chunked Monte-Carlo references.

    Every pending point's chunk plan is dispatched on demand by
    :class:`_ChunkDispatch`: under a stopping rule at most
    ``ceil(workers / open_points)`` chunks in flight per open point,
    refilled on every fold (the ``max_trials`` tail included); without
    one, the whole plan at once in coalesced batches. Chunk moments fold
    into the point's :class:`MomentAccumulator` as they complete — in
    chunk-index order, so the merged moments (and any early-stop
    decision) are identical to a serial run regardless of completion
    order. A point whose stopping rule is satisfied finalizes
    immediately; its stragglers are ignored (and cancelled if still
    queued).

    With a compiled kernel selected (``mc.kernel != "legacy"``) chunk
    tasks run :func:`~repro.core.kernel.run_plan_chunks` against the
    point's fingerprint-cached :class:`~repro.core.kernel.SamplingPlan`,
    which ships only until every worker has been hydrated (a key-only
    task that lands on a cold worker comes back as ``PLAN_MISS`` and is
    resubmitted with the plan attached).
    """
    plan = adaptive_chunk_configs(mc)
    label = f"monte_carlo[{mc.method}]"
    waiting: set[Future] = set()
    dispatch = _ChunkDispatch(
        pool, workers, waiting, mc.kernel != "legacy", mc.adaptive
    )
    states = []
    for index in pending:
        state = _PointState(index, *items[index])
        state.plan = plan
        state.accumulator = MomentAccumulator(len(plan), mc.stopping)
        states.append(state)
        _emit(
            progress,
            ProgressEvent(state.label, POINT_START, total_chunks=len(plan)),
        )
        dispatch.open()
    for state in states:
        dispatch.fill(state)
    while waiting:
        completed, _ = wait(waiting, return_when=FIRST_COMPLETED)
        waiting -= completed
        for future in completed:
            folded = dispatch.complete(future)
            if folded is None:
                continue
            state, merged_before = folded
            accumulator = state.accumulator
            if accumulator.done:
                references[state.index] = accumulator.estimate(label)
                _emit(
                    progress,
                    ProgressEvent(
                        state.label,
                        POINT_DONE,
                        merged_chunks=accumulator.merged_chunks,
                        total_chunks=len(plan),
                        trials=accumulator.moments.count,
                        rel_stderr=relative_stderr(accumulator.moments),
                        stopped_early=accumulator.stopped_early,
                    ),
                )
            elif accumulator.merged_chunks > merged_before:
                _emit(
                    progress,
                    ProgressEvent(
                        state.label,
                        CHUNK_MERGED,
                        merged_chunks=accumulator.merged_chunks,
                        total_chunks=len(plan),
                        trials=accumulator.moments.count,
                        rel_stderr=relative_stderr(accumulator.moments),
                    ),
                )


def _process_references(
    items: Sequence[tuple[str, SystemModel]],
    reference_name: str,
    reference_estimator,
    config: MethodConfig,
    cache: ComponentCache | None,
    workers: int,
    backend: ChunkExecutor,
    progress: ProgressCallback | None = None,
) -> list[MTTFEstimate]:
    """Reference estimates for every item via a memory-isolated backend.

    The pool comes from ``backend`` (a process pool or a remote worker
    fleet — any backend with ``shares_memory=False`` takes this path).
    Cache hits are resolved in the parent; only misses are farmed out.
    Monte-Carlo references with chunking (or a stopping rule) stream
    through :func:`_stream_chunked_references` so one expensive grid
    point spreads across cores and adaptive runs stop at their target
    precision; everything else fans out whole-estimate and is collected
    ``as_completed`` (order-independent — results land by index).
    """
    mc = config.mc if reference_estimator.is_stochastic else None
    references: list[MTTFEstimate | None] = [None] * len(items)
    keys: list[str | None] = [None] * len(items)
    pending: list[int] = []
    for index, (label, system) in enumerate(items):
        if cache is not None:
            keys[index] = cache.estimate_key(
                reference_name, system, mc, reference_name
            )
            found = cache.lookup_estimate(keys[index])
            if found is not None:
                references[index] = found
                # Cached points still get a start/done pair so progress
                # consumers see the same event shape on every path.
                _emit(progress, ProgressEvent(label, POINT_START))
                _emit(
                    progress,
                    ProgressEvent(
                        label, POINT_DONE, trials=found.trials,
                        cached=True,
                    ),
                )
                continue
        pending.append(index)
    if pending:
        chunked = reference_name == "monte_carlo" and (
            config.mc.chunks > 1 or config.mc.adaptive
        )
        with backend.pool(workers) as pool:
            if chunked:
                _stream_chunked_references(
                    items, pending, references, config.mc, pool,
                    workers, progress,
                )
            else:
                futures = {
                    pool.submit(
                        estimate_task,
                        reference_name,
                        items[index][1],
                        config.mc,
                        reference_name,
                    ): index
                    for index in pending
                }
                for index in pending:
                    _emit(
                        progress,
                        ProgressEvent(items[index][0], POINT_START),
                    )
                for future in as_completed(futures):
                    index = futures[future]
                    references[index] = future.result()
                    _emit(
                        progress,
                        ProgressEvent(
                            items[index][0],
                            POINT_DONE,
                            trials=references[index].trials,
                        ),
                    )
        if cache is not None:
            for index in pending:
                cache.store_estimate(keys[index], references[index])
    return references  # type: ignore[return-value]


class _PipelinedScheduler:
    """Work-conserving sweep scheduler: one pool, three work kinds.

    A single executor pool runs, with no phase barriers between them:

    * **reference chunks** — every pending point's Monte-Carlo chunk
      plan streams through a per-point :class:`MomentAccumulator`
      exactly as the classic process path does: the same
      :class:`_ChunkDispatch` rule (at most ``ceil(workers /
      open_points)`` chunks in flight per open point under a stopping
      rule, refilled on every fold) and the same in-order folds;
    * **method estimates** (``pipeline_methods``) — the moment a
      point's reference finalizes, its per-method estimator tasks join
      the same pool and :class:`MethodComparison` inputs are recorded
      as results land, in any order;
    * **budget extensions** (``reallocate_budget``) — trial budget
      freed by early-stopping points accumulates in a ledger and is
      re-granted to the least-converged open points as
      prefix-preserving extension chunks.

    Determinism: chunk moments fold strictly in chunk-index order per
    point (the PR-3 invariant), and re-allocation fires only at
    *quiescent barriers* — moments when no reference chunk is in flight
    anywhere. Every fold refills its point's window before the loop
    checks for a barrier, so an open point always has a chunk in
    flight and a barrier can only occur once every point has
    deterministically resolved its current plan (satisfied, exhausted,
    or censored). Grant and extension chunks go through the same
    window. The ledger total, the candidate set, the
    least-converged ordering, and the round-robin grants are therefore
    pure functions of the configuration, never of worker count,
    executor, or completion order. Extension chunk seeds are spawned by
    chunk index (:func:`~repro.core.montecarlo.extension_chunk_config`),
    so grants preserve every previously drawn sample. Within one
    invocation the budget is conserved.

    A plain sharded run redistributes within its own shard only. With
    a :class:`~repro.methods.ledger.BudgetLedger` attached
    (``budget_ledger=...``), the quiescent barriers become *fleet*
    barriers instead: the shard publishes its freed budget and open
    points to the shared ledger file, waits for its co-running
    siblings' rounds, and every shard computes the identical global
    allocation (worst deficit first across the whole fleet, ties by
    global point index) with the same
    :func:`~repro.core.montecarlo.allocate_grants` policy the local
    path uses — N shards behave as one work-conserving fleet, and the
    grant schedule is deterministic given the ledger contents (see
    :mod:`repro.methods.ledger` and docs/SCHEDULER.md).
    """

    def __init__(
        self,
        items: Sequence[tuple[str, SystemModel]],
        method_names: Sequence[str],
        reference_name: str,
        reference_estimator,
        config: MethodConfig,
        cache: ComponentCache | None,
        workers: int,
        backend: ChunkExecutor,
        progress: ProgressCallback | None,
        pipeline_methods: bool,
        reallocate_budget: bool,
        skip_unsupported: bool,
        shard: tuple[int, int] | None,
        budget_ledger: BudgetLedger | None = None,
        full_items: Sequence[tuple[str, SystemModel]] | None = None,
    ) -> None:
        self.method_names = method_names
        self.reference_name = reference_name
        self.reference_estimator = reference_estimator
        self.config = config
        self.cache = cache
        self.workers = workers
        self.backend = backend
        self.progress = progress
        self.pipeline_methods = pipeline_methods
        self.reallocate = reallocate_budget
        self.skip_unsupported = skip_unsupported
        self.shard = shard
        self.points = [
            _PointState(index, label, system)
            for index, (label, system) in enumerate(items)
        ]
        mc = config.mc
        self.chunked = reference_name == "monte_carlo" and (
            mc.chunks > 1 or mc.adaptive
        )
        #: A re-allocated reference depends on the whole sweep's ledger,
        #: not just (system, MC config) — so it must never enter the
        #: content-addressed cache, where a later run (or a co-running
        #: shard) would replay it as if it were the pure fixed-budget
        #: estimate. Method estimates stay pure and cacheable.
        self.reference_cacheable = not (
            reallocate_budget and self.chunked and mc.adaptive
        )
        self.mc_label = f"monte_carlo[{mc.method}]"
        self.grant_unit = grant_chunk_trials(mc)
        #: Freed trial budget awaiting re-allocation (or, with a
        #: cross-shard ledger, awaiting publication to the fleet pool).
        self.ledger = 0
        #: Cross-shard coordination (None: shard-local re-allocation).
        self.xledger = budget_ledger
        self.xshard_round = 0
        self.xshard_active = budget_ledger is not None
        #: Points finalized since the last ledger publication:
        #: ``(global index, trials)`` audit records.
        self._xshard_converged: list[tuple[int, int]] = []
        #: Elastic membership: the *unsharded* space, needed to re-run
        #: a departed sibling's slot; adopted slots' ResultSets; the
        #: adoption worker threads and their first error.
        self.full_items = full_items
        self.adopted: dict[int, "ResultSet"] = {}
        self._adoption_threads: list[threading.Thread] = []
        self._adoption_errors: list[BaseException] = []
        self._adoption_lock = threading.Lock()
        self.pool = None
        self.waiting: set[Future] = set()
        #: Reference and method futures; chunk tasks live in
        #: :attr:`dispatch`.
        self.future_meta: dict[Future, tuple] = {}
        #: Reference-chunk dispatch (set once the pool is open); its
        #: ``live`` count reaching zero is a quiescent barrier.
        self.dispatch: _ChunkDispatch | None = None

    # -- plumbing ----------------------------------------------------------

    def _emit(self, event: ProgressEvent) -> None:
        _emit(self.progress, event)

    def _reference_mc(self) -> MonteCarloConfig | None:
        if self.reference_estimator.is_stochastic:
            return self.config.mc
        return None

    def _method_mc(self, estimator) -> MonteCarloConfig | None:
        return self.config.mc if estimator.is_stochastic else None

    def _defer_exhausted(self) -> bool:
        """Whether exhausted-unsatisfied points wait for budget grants."""
        return self.reallocate and self.config.mc.adaptive

    # -- prewarm -----------------------------------------------------------

    def _prewarm(self) -> None:
        """Pre-touch every estimate key this run will need (disk cache).

        Co-running shards pointed at one ``--cache-dir`` publish their
        finished estimates as they land; pulling the shard's keys into
        memory up front means points a sibling already finished are
        skipped before any work is scheduled.
        """
        cache = self.cache
        if cache is None or cache.disk is None:
            return
        keys = []
        for state in self.points:
            if self.reference_cacheable:
                keys.append(
                    cache.estimate_key(
                        self.reference_name, state.system,
                        self._reference_mc(), self.reference_name,
                    )
                )
            for name in self.method_names:
                estimator = registry.get(name)
                keys.append(
                    cache.estimate_key(
                        name, state.system, self._method_mc(estimator),
                        self.reference_name,
                    )
                )
        warmed = cache.prewarm_estimates(keys)
        label = (
            "sweep"
            if self.shard is None
            else f"shard {self.shard[0]}/{self.shard[1]}"
        )
        self._emit(
            ProgressEvent(label, CACHE_PREWARMED, warmed_entries=warmed)
        )

    # -- work submission ---------------------------------------------------

    def _start_point(self, state: _PointState) -> None:
        if self.cache is not None and self.reference_cacheable:
            state.ref_key = self.cache.estimate_key(
                self.reference_name, state.system, self._reference_mc(),
                self.reference_name,
            )
            found = self.cache.lookup_estimate(state.ref_key)
            if found is not None:
                state.reference = found
                self._emit(ProgressEvent(state.label, POINT_START))
                self._emit(
                    ProgressEvent(
                        state.label, POINT_DONE, trials=found.trials,
                        cached=True,
                    )
                )
                self._launch_methods(state)
                return
        if self.chunked:
            state.plan = adaptive_chunk_configs(self.config.mc)
            state.accumulator = MomentAccumulator(
                len(state.plan), self.config.mc.stopping
            )
            self._emit(
                ProgressEvent(
                    state.label, POINT_START, total_chunks=len(state.plan)
                )
            )
            # Dispatched once every point is open (see _run_schedule).
            self.dispatch.open()
            return
        self._emit(ProgressEvent(state.label, POINT_START))
        if not self.backend.shares_memory:
            future = self.pool.submit(
                estimate_task, self.reference_name, state.system,
                self.config.mc, self.reference_name,
            )
        else:
            future = self.pool.submit(
                self.reference_estimator.estimate, state.system,
                self.config,
            )
        self.future_meta[future] = ("reference", state.index)
        self.waiting.add(future)

    def _launch_methods(self, state: _PointState) -> None:
        if not self.pipeline_methods or state.methods_launched:
            return
        state.methods_launched = True
        for name in self.method_names:
            estimator = registry.get(name)
            if not estimator.supports(state.system):
                if self.skip_unsupported:
                    continue
                raise ConfigurationError(
                    f"method {name!r} does not support system "
                    f"{state.label!r}"
                )
            # The reference estimate doubles as the method estimate
            # when the same method is also selected.
            if name == self.reference_name:
                state.estimates[name] = state.reference
                continue
            if self.cache is not None:
                key = self.cache.estimate_key(
                    name, state.system, self._method_mc(estimator),
                    self.reference_name,
                )
                found = self.cache.lookup_estimate(key)
                if found is not None:
                    state.estimates[name] = found
                    self._emit(
                        ProgressEvent(
                            state.label, METHOD_DONE, method=name,
                            trials=found.trials, cached=True,
                        )
                    )
                    continue
            if not self.backend.shares_memory:
                if estimator.per_component and self.cache is not None:
                    # A worker would rebuild a cache-free config and
                    # re-sample every component MTTF per point; for
                    # sweeps where hundreds of points share components
                    # (every C of one profile), parent-side memoization
                    # beats fan-out by orders of magnitude — keep these
                    # in the parent, exactly as the phased path does.
                    # Deliberate trade-off: the first point per distinct
                    # component runs its MC estimate inline and briefly
                    # stalls the completion loop — never worse than the
                    # phased schedule, which serialized all of them.
                    estimate = estimator.estimate(
                        state.system, self.config
                    )
                    state.estimates[name] = estimate
                    if key is not None:
                        self.cache.store_estimate(key, estimate)
                    self._emit(
                        ProgressEvent(
                            state.label, METHOD_DONE, method=name,
                            trials=estimate.trials,
                        )
                    )
                    continue
                # Workers rebuild a cache-free config; caching stays in
                # the parent so it needs no cross-process coordination.
                future = self.pool.submit(
                    estimate_task, name, state.system, self.config.mc,
                    self.reference_name,
                )
            else:
                future = self.pool.submit(
                    estimator.estimate, state.system, self.config
                )
            self.future_meta[future] = ("method", state.index, name)
            self.waiting.add(future)
            state.pending_methods.add(name)
            self._emit(
                ProgressEvent(state.label, METHOD_STARTED, method=name)
            )

    # -- completions -------------------------------------------------------

    def _on_chunks(self, future: Future) -> None:
        """Fold one chunk task's moments (see :meth:`_ChunkDispatch.complete`).

        The dispatcher has already refilled the point's window when this
        returns, so the barrier check that follows sees every open point
        with work in flight.
        """
        folded = self.dispatch.complete(future)
        if folded is None:
            # Straggler of an already-resolved point or a PLAN_MISS
            # resubmission: nothing folded, nothing to report.
            return
        state, merged_before = folded
        accumulator = state.accumulator
        if accumulator.done:
            if accumulator.satisfied or not self._defer_exhausted():
                self._finalize_reference(state)
            # else: exhausted without meeting the rule — stay open for
            # a budget grant; finalized at the final quiescent barrier
            # if none arrives.
            return
        if accumulator.merged_chunks > merged_before:
            self._emit(
                ProgressEvent(
                    state.label, CHUNK_MERGED,
                    merged_chunks=accumulator.merged_chunks,
                    total_chunks=accumulator.total_chunks,
                    trials=accumulator.moments.count,
                    rel_stderr=relative_stderr(accumulator.moments),
                )
            )

    def _on_reference(self, future: Future, index: int) -> None:
        state = self.points[index]
        state.reference = future.result()
        if self.cache is not None and state.ref_key is not None:
            self.cache.store_estimate(state.ref_key, state.reference)
        self._emit(
            ProgressEvent(
                state.label, POINT_DONE, trials=state.reference.trials
            )
        )
        self._launch_methods(state)

    def _on_method(self, future: Future, index: int, name: str) -> None:
        state = self.points[index]
        estimate = future.result()
        state.estimates[name] = estimate
        state.pending_methods.discard(name)
        if self.cache is not None:
            key = self.cache.estimate_key(
                name, state.system, self._method_mc(registry.get(name)),
                self.reference_name,
            )
            self.cache.store_estimate(key, estimate)
        self._emit(
            ProgressEvent(
                state.label, METHOD_DONE, method=name,
                trials=estimate.trials,
            )
        )

    def _finalize_reference(self, state: _PointState) -> None:
        accumulator = state.accumulator
        state.reference = accumulator.estimate(self.mc_label)
        if self.reallocate:
            # Unspent plan trials (never-dispatched chunks) return to
            # the shared ledger. A straggler chunk that was already in
            # flight when the rule fired is credited too: the ledger
            # tracks the *logical* budget, so the decision stays a pure
            # function of the configuration.
            planned = sum(chunk.trials for chunk in state.plan)
            self.ledger += max(0, planned - accumulator.moments.count)
        if self.xledger is not None:
            self._xshard_converged.append(
                (
                    self._global_index(state.index),
                    accumulator.moments.count,
                )
            )
        if self.cache is not None and state.ref_key is not None:
            self.cache.store_estimate(state.ref_key, state.reference)
        self._emit(
            ProgressEvent(
                state.label, POINT_DONE,
                merged_chunks=accumulator.merged_chunks,
                total_chunks=accumulator.total_chunks,
                trials=accumulator.moments.count,
                rel_stderr=relative_stderr(accumulator.moments),
                stopped_early=accumulator.stopped_early,
            )
        )
        self._launch_methods(state)

    # -- budget re-allocation ----------------------------------------------

    def _open_candidates(self) -> list[tuple[float, _PointState]]:
        """Open, unsatisfied points ranked least-converged first.

        "Least converged" means the largest
        :meth:`~repro.core.montecarlo.StoppingRule.deficit` — distance
        from the *configured* targets, so absolute CI-half-width rules
        rank by half-width, not relative error. Ties break by point
        index. Points without a measurable deficit (censored
        all-infinite moments — more trials cannot demonstrably help)
        are never candidates.
        """
        rule = self.config.mc.stopping
        if rule is None:
            return []
        ranked: list[tuple[float, _PointState]] = []
        for state in self.points:
            accumulator = state.accumulator
            if (
                state.reference is not None
                or accumulator is None
                or not accumulator.done
                or accumulator.satisfied
                or accumulator.moments is None
            ):
                continue
            deficit = rule.deficit(accumulator.moments)
            if deficit is not None:
                ranked.append((deficit, state))
        ranked.sort(key=lambda pair: (-pair[0], pair[1].index))
        return ranked

    def _apply_grants(
        self,
        grants: Sequence[tuple[_PointState, Sequence[int]]],
        kind: str,
    ) -> None:
        """Extend the granted points' plans, then dispatch the extensions.

        ``grants`` pairs each granted point with its chunk sizes, in
        ranking order. ``kind`` distinguishes the funding pool in the
        progress stream: ``budget-reallocated`` for shard-local grants,
        ``budget-claimed`` for cross-shard ledger grants. Every granted
        point reopens before any is filled, so the extension windows
        are sized for the whole granted set.
        """
        for state, sizes in grants:
            state.plan.extend(
                extension_chunk_configs(
                    self.config.mc, len(state.plan), sizes
                )
            )
            state.accumulator.extend_plan(len(sizes))
            self._emit(
                ProgressEvent(
                    state.label, kind,
                    merged_chunks=state.accumulator.merged_chunks,
                    total_chunks=state.accumulator.total_chunks,
                    trials=state.accumulator.moments.count,
                    rel_stderr=state.accumulator.moments.rel_stderr,
                    granted_trials=sum(sizes),
                    granted_chunks=len(sizes),
                )
            )
            self.dispatch.open()
        for state, _sizes in grants:
            self.dispatch.fill(state)

    def _grant_round(self) -> bool:
        """Distribute the local ledger to the least-converged points.

        Called only at quiescent barriers. Grants are computed by
        :func:`~repro.core.montecarlo.allocate_grants` — round-robin in
        :func:`grant_chunk_trials` units over the ranked candidates,
        spending the ledger exactly (the final grant may be a partial
        chunk).
        """
        if self.ledger < 1:
            return False
        ranked = self._open_candidates()
        if not ranked:
            return False
        grants = allocate_grants(
            self.ledger,
            [(deficit, state.index) for deficit, state in ranked],
            self.grant_unit,
        )
        self.ledger = 0
        self._apply_grants(
            [
                (state, grants[state.index])
                for _deficit, state in ranked
                if grants.get(state.index)
            ],
            BUDGET_REALLOCATED,
        )
        return True

    # -- cross-shard budget ledger -----------------------------------------

    def _global_index(self, local: int) -> int:
        """Map a local point index to its full-space (fleet) index.

        Round-robin sharding puts global point ``k`` at position
        ``k // n`` of shard ``k % n``, so local position ``p`` of shard
        ``(i, n)`` is global ``p * n + i`` — the key space the ledger's
        demand ranking and grant records use.
        """
        index, count = self.shard
        return local * count + index

    def _drain_converged(self) -> list[tuple[int, int]]:
        pending = self._xshard_converged
        self._xshard_converged = []
        return pending

    def _budget_round(self) -> bool:
        """One quiescent-barrier budget decision (local or fleet-wide)."""
        if self.xledger is not None:
            if not self.xshard_active:
                return False
            return self._xshard_rounds()
        return self._grant_round()

    def _xshard_rounds(self) -> bool:
        """Run ledger rounds until this shard gains work or leaves.

        Each iteration publishes one sealed round block (freed budget
        and open points), rendezvouses with the co-running shards, and
        computes the fleet-wide allocation every shard derives
        identically from the ledger. Returns True when this shard
        received grants (extension chunks were submitted); False when
        the protocol ended for this shard — in which case the
        remaining open points are finalized as budget-exhausted and
        the departure is recorded.
        """
        ledger = self.xledger
        while True:
            if (
                ledger.leave_after is not None
                and self.xshard_round >= ledger.leave_after
            ):
                self._leave_fleet(ledger)
            ranked = self._open_candidates()
            opens = [
                (
                    self._global_index(state.index),
                    deficit,
                    state.accumulator.moments.count,
                )
                for deficit, state in ranked
            ]
            number = self.xshard_round
            ledger.publish_round(
                number, self.ledger, opens, self._drain_converged()
            )
            self.ledger = 0
            grants = ledger.rendezvous(number, self.grant_unit)
            self.xshard_round += 1
            count = self.shard[1]
            mine = {
                index: sizes
                for index, sizes in grants.items()
                if index % count == self.shard[0]
            }
            if mine:
                ledger.record_claims(number, mine)
                self._apply_grants(
                    [
                        (state, mine[self._global_index(state.index)])
                        for _deficit, state in ranked
                        if mine.get(self._global_index(state.index))
                    ],
                    BUDGET_CLAIMED,
                )
                return True
            if not grants or not ranked:
                # Protocol over (no grants anywhere), or every grant
                # went elsewhere and this shard has nothing open:
                # leave the fleet. Finalize the still-open stragglers
                # first so their final trial counts land in the audit
                # trail.
                self.xshard_active = False
                self._finalize_stragglers()
                ledger.close(number, self._drain_converged())
                return False
            # Open points but no grants this round: the pool went to
            # worse-converged points elsewhere; wait for the next
            # round (new budget can still be freed by their grants
            # stopping early).

    # -- elastic membership ------------------------------------------------

    def _fleet_label(self) -> str:
        return f"shard {self.shard[0]}/{self.shard[1]}"

    def _leave_fleet(self, ledger: BudgetLedger) -> None:
        """Voluntary mid-run departure (``leave_after`` rounds).

        Writes the ``shard-depart`` record *before* going silent so
        survivors adopt immediately instead of waiting out a lease,
        then aborts this member's run with :class:`ShardDeparted`.
        """
        number = self.xshard_round
        ledger.depart(number, reason="leave")
        ledger.stop_heartbeat()
        self._emit(
            ProgressEvent(
                self._fleet_label(),
                SHARD_DEPARTED,
                shard=self.shard[0],
                round=number,
            )
        )
        raise ShardDeparted(
            f"shard {self.shard[0]}/{self.shard[1]} left the fleet "
            f"before round {number} (leave_after={ledger.leave_after}); "
            "its open points pass to the recorded adopter",
            slot=self.shard[0],
            round_number=number,
        )

    def _on_shard_depart(self, slot: int, number: int) -> None:
        self._emit(
            ProgressEvent(
                self._fleet_label(),
                SHARD_DEPARTED,
                shard=slot,
                round=number,
            )
        )

    def _adopt_slot(self, slot: int) -> None:
        """Adopt a departed sibling's slot (ledger ``on_adopt`` hook).

        Runs the vacant slot's *entire* deterministic schedule in a
        worker thread via a nested :func:`evaluate_design_space` on a
        takeover ledger handle: rounds the departed member already
        sealed verify like a replay, the rest seal live, and the
        slot's complete ResultSet lands in :attr:`adopted` — so this
        member's output can stand in for the lost one at merge time.
        The thread coordinates with this scheduler purely through the
        ledger file, exactly as a separate ``--join`` process would.
        """
        if self.full_items is None:  # pragma: no cover - defensive
            raise ConfigurationError(
                "cannot adopt a departed shard without the full design "
                "space (internal wiring error)"
            )
        self._emit(
            ProgressEvent(self._fleet_label(), SHARD_ADOPTED, shard=slot)
        )
        handle = self.xledger.takeover_handle(slot)

        def adopt() -> None:
            try:
                result = evaluate_design_space(
                    self.full_items,
                    self.method_names,
                    reference=self.reference_name,
                    mc_config=self.config.mc,
                    workers=self.workers,
                    executor=self.backend,
                    cache=self.cache if self.cache is not None else False,
                    skip_unsupported=self.skip_unsupported,
                    shard=(slot, self.shard[1]),
                    progress=self.progress,
                    pipeline_methods=self.pipeline_methods,
                    reallocate_budget=True,
                    budget_ledger=handle,
                )
            except BaseException as error:  # noqa: BLE001 - re-raised
                with self._adoption_lock:
                    self._adoption_errors.append(error)
            else:
                with self._adoption_lock:
                    self.adopted[slot] = result

        thread = threading.Thread(
            target=adopt, name=f"adopt-slot-{slot}", daemon=True
        )
        self._adoption_threads.append(thread)
        thread.start()

    def _finish_adoptions(self) -> None:
        for thread in self._adoption_threads:
            thread.join()
        if self._adoption_errors:
            raise self._adoption_errors[0]

    def _finalize_stragglers(self) -> bool:
        """Finalize open points no grant will ever reach."""
        finalized = False
        for state in self.points:
            if (
                state.reference is None
                and state.accumulator is not None
                and state.accumulator.done
            ):
                self._finalize_reference(state)
                finalized = True
        return finalized

    # -- main loop ---------------------------------------------------------

    def run(self) -> tuple[MethodComparison, ...]:
        self._prewarm()
        if self.xledger is not None:
            self.xledger.on_depart = self._on_shard_depart
            self.xledger.on_adopt = self._adopt_slot
            self.xledger.open_run(
                mc_token(self.config.mc),
                self.method_names,
                self.reference_name,
            )
        try:
            return self._run_schedule()
        finally:
            if self.xledger is not None:
                self.xledger.stop_heartbeat()

    def _run_schedule(self) -> tuple[MethodComparison, ...]:
        mc = self.config.mc
        with self.backend.pool(self.workers) as pool:
            self.pool = pool
            self.dispatch = _ChunkDispatch(
                pool, self.workers, self.waiting,
                mc.kernel != "legacy", mc.adaptive,
            )
            for state in self.points:
                self._start_point(state)
            for state in self.points:
                if state.accumulator is not None:
                    self.dispatch.fill(state)
            while True:
                if not self.waiting:
                    if self.chunked:
                        if self.reallocate and self._budget_round():
                            continue
                        if self._finalize_stragglers():
                            # Finalizing may pipeline method tasks.
                            continue
                    break
                completed, _ = wait(
                    self.waiting, return_when=FIRST_COMPLETED
                )
                self.waiting -= completed
                for future in completed:
                    if future in self.dispatch.tasks:
                        self._on_chunks(future)
                        continue
                    meta = self.future_meta.pop(future)
                    if meta[0] == "reference":
                        self._on_reference(future, meta[1])
                    else:
                        self._on_method(future, meta[1], meta[2])
                # Every fold above refilled its point's window, so no
                # chunk in flight means every open point has resolved
                # its current plan: a quiescent barrier.
                if self.dispatch.live == 0 and self.reallocate and (
                    self.chunked
                ):
                    if not self._budget_round():
                        # No grants possible now and the only budget
                        # source (chunked finalizations) is quiet:
                        # release any still-open points to the method
                        # stage instead of leaving them idle.
                        self._finalize_stragglers()
        # Adoptions this member picked up must land before the result
        # is assembled — their ResultSets ride along in `adopted`.
        self._finish_adoptions()
        comparisons = []
        for state in self.points:
            if state.reference is None or state.pending_methods:
                raise ConfigurationError(
                    f"scheduler finished with incomplete point "
                    f"{state.label!r}"
                )  # pragma: no cover - defensive invariant
            if self.pipeline_methods:
                comparisons.append(
                    MethodComparison(
                        system_label=state.label,
                        reference=state.reference,
                        estimates=state.estimates,
                    )
                )
            else:
                comparisons.append(
                    _finish_item(
                        (state.label, state.system),
                        state.reference,
                        self.method_names,
                        self.reference_name,
                        self.config,
                        self.cache,
                        self.skip_unsupported,
                    )
                )
        return tuple(comparisons)


def evaluate_design_space(
    space: Iterable[SpaceItem],
    methods: Sequence[str],
    reference: str = "monte_carlo",
    mc_config: MonteCarloConfig | None = None,
    workers: int | str = 1,
    executor: str | ChunkExecutor = "thread",
    cache: ComponentCache | bool | None = None,
    skip_unsupported: bool = False,
    shard: tuple[int, int] | None = None,
    progress: ProgressCallback | None = None,
    pipeline_methods: bool = False,
    reallocate_budget: bool = False,
    budget_ledger: BudgetLedger | None = None,
) -> ResultSet:
    """Run ``methods`` against ``reference`` on every system in ``space``.

    Parameters
    ----------
    space:
        Iterable of systems or ``(label, system)`` pairs; evaluated in
        order.
    methods:
        Registered method names (see :func:`repro.methods.available`).
    reference:
        Reference method name (``"monte_carlo"`` or ``"exact"``).
    mc_config:
        Monte-Carlo settings shared by every stochastic estimate. Set
        ``chunks > 1`` to split each estimate into seeded sub-runs —
        the unit of both parallelism and adaptivity. A
        :class:`~repro.core.montecarlo.StoppingRule` on the config makes
        runs precision-driven: chunks are scheduled until the target
        stderr is reached. Numbers depend on the chunking and the rule,
        never on the worker count or executor.
    workers:
        Fan-out width; 1 (default) runs serially, ``"auto"`` asks the
        backend (cpu count for local pools, fleet size for a remote
        executor). Results keep the input order either way.
    executor:
        A registered backend name — ``"thread"`` (default),
        ``"process"``, ``"remote"`` — or a
        :class:`~repro.methods.executors.ChunkExecutor` instance such
        as ``RemoteExecutor(["hostA:8421", "hostB:8421"])``. Threads
        suit the GIL-releasing NumPy samplers; processes buy true
        parallelism on one host; a remote fleet scales past it.
        Memory-isolated backends (``shares_memory=False``) stream
        reference chunks (the expensive part); method estimates and
        caching stay in the parent. The backend never affects the
        numbers.
    cache:
        ``None`` (default) uses a fresh per-call cache,
        ``False`` disables memoization, or pass a
        :class:`ComponentCache` to share across calls (optionally
        disk-backed for cross-invocation reuse).
    skip_unsupported:
        When True, methods whose ``supports(system)`` is False are
        silently omitted from that system's record instead of raising.
    shard:
        ``(i, n)`` evaluates only this machine's round-robin share of
        the space (see :func:`shard_select`); labels still come from
        the full-space enumeration. The returned set records the shard
        so :func:`~repro.methods.results.merge_result_sets` can verify
        completeness and restore the unsharded order. N machines
        pointing at one shared disk cache split one grid with no
        coordination beyond the shard index.
    progress:
        Optional callback receiving
        :class:`~repro.methods.progress.ProgressEvent` per grid point
        (and per merged chunk on the streaming process path).
    pipeline_methods:
        When True, method estimates are submitted to the pool the
        moment their point's reference finalizes instead of running in
        a post-reference phase — the sweep becomes one fully-pipelined
        stream with no phase barrier. Results are bit-identical to the
        phased run (method estimates are pure functions of the
        configuration); only the schedule changes.
    reallocate_budget:
        When True (and the Monte-Carlo config carries a
        :class:`~repro.core.montecarlo.StoppingRule`), trial budget
        freed by early-stopping points is returned to a shared ledger
        and re-granted to the least-converged points that exhausted
        their own budget without meeting the target. Grant decisions
        fire only at quiescent barriers on in-order fold state, so the
        numbers stay bit-identical across worker counts and executors —
        but they *differ* from a non-reallocating run (stragglers get
        more trials), and a sharded run redistributes within its own
        shard only unless a ``budget_ledger`` is attached. A no-op
        without a stopping rule.
    budget_ledger:
        A :class:`~repro.methods.ledger.BudgetLedger` handle on the
        fleet's shared ledger file (typically
        ``ledger_path(cache_dir, run_id)``), turning shard-local
        re-allocation into *cross-shard* coordination: freed budget is
        published to — and claimed from — a global pool shared by the
        co-running shards of one sweep, at deterministic fleet
        barriers. Requires ``shard=`` (matching the ledger's own
        coordinates), ``reallocate_budget=True``, and an adaptive
        ``monte_carlo`` reference. The result's ``mc_token`` is tagged
        ``+xshard`` so :func:`~repro.methods.results.merge_result_sets`
        only combines ledger-coordinated shards with each other.
    """
    items = _normalize_space(space)
    full_items = items
    if shard is not None:
        shard = validate_shard(shard)
        items = shard_select(items, shard)
    if not methods:
        raise ConfigurationError(
            f"methods must not be empty; available: {registry.available()}"
        )
    # The executor registry is the one source of truth: registering a
    # backend (see executors.register_executor) legalizes its spelling
    # here, on the CLI, and in repro-serve alike.
    backend = get_executor(executor)
    workers = resolve_workers(workers, backend)
    method_names = [registry.get(name).name for name in methods]
    reference_name = registry.canonical_name(reference)
    if cache is None or cache is True:
        cache = ComponentCache()
    elif cache is False:
        cache = None
    config = MethodConfig(
        mc=mc_config or MonteCarloConfig(),
        reference=reference_name,
        cache=cache,
    )
    reference_estimator = registry.get(reference_name)
    if budget_ledger is not None:
        if shard is None:
            raise ConfigurationError(
                "budget_ledger coordinates co-running shards; pass the "
                "matching shard=(i, n)"
            )
        if budget_ledger.shard != shard:
            raise ConfigurationError(
                f"budget_ledger belongs to shard "
                f"{budget_ledger.index}/{budget_ledger.count} but this "
                f"run is shard {shard[0]}/{shard[1]}"
            )
        if not reallocate_budget:
            raise ConfigurationError(
                "budget_ledger requires reallocate_budget=True (the "
                "ledger is the cross-shard extension of budget "
                "re-allocation)"
            )
        if reference_name != "monte_carlo" or not config.mc.adaptive:
            raise ConfigurationError(
                "budget_ledger needs an adaptive monte_carlo reference "
                "(a MonteCarloConfig with a StoppingRule); without a "
                "stopping rule no budget is ever freed or claimed"
            )

    def finish_item(
        item: tuple[str, SystemModel], ref: MTTFEstimate
    ) -> MethodComparison:
        return _finish_item(
            item, ref, method_names, reference_name, config, cache,
            skip_unsupported,
        )

    def evaluate_one(item: tuple[str, SystemModel]) -> MethodComparison:
        label, system = item
        _emit(progress, ProgressEvent(label, POINT_START))
        mc = config.mc if reference_estimator.is_stochastic else None
        compute = lambda: reference_estimator.estimate(system, config)
        if cache is not None:
            ref, cached_hit = cache.estimate_with_status(
                reference_name, system, mc, reference_name, compute
            )
        else:
            ref, cached_hit = compute(), False
        _emit(
            progress,
            ProgressEvent(
                label, POINT_DONE, trials=ref.trials, cached=cached_hit
            ),
        )
        return finish_item(item, ref)

    adopted: tuple[ResultSet, ...] = ()
    if pipeline_methods or reallocate_budget:
        scheduler = _PipelinedScheduler(
            items=items,
            method_names=method_names,
            reference_name=reference_name,
            reference_estimator=reference_estimator,
            config=config,
            cache=cache,
            workers=workers,
            backend=backend,
            progress=progress,
            pipeline_methods=pipeline_methods,
            reallocate_budget=reallocate_budget,
            skip_unsupported=skip_unsupported,
            shard=shard,
            budget_ledger=budget_ledger,
            full_items=full_items if budget_ledger is not None else None,
        )
        comparisons = scheduler.run()
        adopted = tuple(
            scheduler.adopted[slot]
            for slot in sorted(scheduler.adopted)
        )
    elif not backend.shares_memory:
        references = _process_references(
            items, reference_name, reference_estimator, config, cache,
            workers, backend, progress,
        )
        comparisons = tuple(
            finish_item(item, ref)
            for item, ref in zip(items, references)
        )
    elif workers > 1 and len(items) > 1:
        with backend.pool(workers) as pool:
            comparisons = tuple(pool.map(evaluate_one, items))
    else:
        comparisons = tuple(evaluate_one(item) for item in items)
    token = mc_token(config.mc)
    if (
        reallocate_budget
        and config.mc.adaptive
        and reference_name == "monte_carlo"
    ):
        # Re-allocated references depend on the whole sweep's budget
        # ledger, so these numbers are not interchangeable with a
        # non-reallocating run of the same MC configuration — tag the
        # token so merge_result_sets refuses to interleave the two.
        # Cross-shard-coordinated references additionally depend on the
        # *fleet's* ledger, so they get their own tag: merge combines
        # +xshard shards only with other +xshard shards.
        token += "+xshard" if budget_ledger is not None else "+realloc"
    return ResultSet(
        comparisons=comparisons,
        methods=tuple(method_names),
        reference_method=reference_name,
        shard=shard,
        mc_token=token,
        adopted=adopted,
    )
