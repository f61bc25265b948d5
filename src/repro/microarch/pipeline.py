"""The out-of-order pipeline timing model.

A trace-driven scheduler in the Turandot tradition: it walks the dynamic
instruction stream once, in program order, computing for every
instruction the cycle of each pipeline event (fetch, dispatch, issue,
complete, retire) subject to the machine's structural and data
constraints:

* fetch bandwidth, I-cache/iTLB misses, branch-mispredict redirects;
* POWER4-style dispatch groups (up to 5 instructions, broken at
  branches), one group retired per cycle (one group *dispatched* per
  cycle is intended but not enforced — a known defect kept for
  byte-identical masking traces, see DESIGN.md);
* reorder-buffer, issue-queue, and memory-queue occupancy;
* operand readiness through architectural register dependences;
* functional-unit pools (2 INT / 2 FP / 2 LS / 1 BR) with the paper's
  latencies; the integer divider is unpipelined;
* D-cache/dTLB hierarchy latencies for loads.

Two deliberate approximations versus an RTL-faithful core, both standard
for trace-driven timing models and both irrelevant to masking-trace
statistics: functional-unit slots are allocated in program order among
ready instructions (a younger instruction may still issue earlier if its
operands are ready earlier), and the issue-queue constraint uses FIFO
ordering. Wrong-path instructions after mispredicted branches are not
simulated; the redirect penalty models their cost (Turandot's own
default trace-driven mode does the same).

The scheduler is one sequential loop over the trace's integer columns
(:class:`~repro.microarch.isa.InstructionTrace`); per-op facts (unit
pool, latency, pipelining) come from tables indexed by the op code.

The scheduler's second product is the paper's masking trace: per-cycle
busy fractions for the unit pools, per-cycle dispatch (decode) activity,
and per-value register live intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from .branch import BimodalPredictor
from .caches import Cache, MemoryHierarchy, Tlb
from .config import MachineConfig
from .isa import (
    NUM_ARCH_REGS,
    OP_IS_MEMORY,
    OP_UNIT,
    UNIT_NAMES,
    InstructionRecord,
    InstructionTrace,
    OpClass,
)
from .stats import PipelineStats

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)


@dataclass
class ScheduleResult:
    """Per-instruction event cycles plus activity records."""

    fetch: list[int]
    dispatch: list[int]
    issue: list[int]
    complete: list[int]
    retire: list[int]
    #: (start_cycle, end_cycle, pool) busy intervals per executed op.
    unit_intervals: dict = field(default_factory=dict)
    #: cycles in which at least one instruction was dispatched (decode busy).
    dispatch_cycles: list[int] = field(default_factory=list)
    #: per-value register live intervals: (reg, start_cycle, end_cycle).
    live_intervals: list[tuple[int, int, int]] = field(default_factory=list)
    stats: PipelineStats = field(default_factory=PipelineStats)

    @property
    def total_cycles(self) -> int:
        return self.retire[-1] + 1 if self.retire else 0


class PipelineModel:
    """One simulation run over one instruction trace."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.icache = Cache(config.l1i)
        self.dcache = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        self.itlb = Tlb(config.itlb)
        self.dtlb = Tlb(config.dtlb)
        self.imem = MemoryHierarchy(
            self.icache, self.l2, self.itlb, config.memory_latency
        )
        self.dmem = MemoryHierarchy(
            self.dcache, self.l2, self.dtlb, config.memory_latency
        )
        self.predictor = BimodalPredictor(config.branch_predictor_entries)

    def run(
        self, trace: InstructionTrace | list[InstructionRecord]
    ) -> ScheduleResult:
        """Schedule ``trace`` (a list of records is packed into columns)."""
        if not trace:
            raise SimulationError("cannot simulate an empty trace")
        columns = InstructionTrace.coerce(trace)
        ops = columns.op
        dests = columns.dest
        srcs_col = columns.srcs
        pcs = columns.pc
        addrs = columns.mem_addr
        takens = columns.taken
        cfg = self.config
        n = len(ops)

        fetch = [0] * n
        dispatch = [0] * n
        issue = [0] * n
        complete = [0] * n
        retire = [0] * n

        # Per-op-code tables of this machine: base latency, and whether
        # the op blocks its unit instance for its whole latency.
        op_latency = [cfg.latency_of(op) for op in OpClass]
        op_unpipelined = [op in cfg.unpipelined_ops for op in OpClass]

        # Functional-unit pools, indexed like UNIT_NAMES: per-instance
        # availability, busy cycles, and (issue, end) busy intervals.
        unit_available = [
            [0] * cfg.unit_pool(name).count for name in UNIT_NAMES
        ]
        unit_busy = [0] * len(UNIT_NAMES)
        unit_spans: list[list[tuple[int, int]]] = [[] for _ in UNIT_NAMES]

        # Architectural register ready times (cycle the value is usable).
        reg_ready = [0] * NUM_ARCH_REGS

        # Register-file liveness bookkeeping: per register, the cycle its
        # current value became available and the latest read of it so far.
        def_cycle = [-1] * NUM_ARCH_REGS
        last_read = [-1] * NUM_ARCH_REGS
        live_intervals: list[tuple[int, int, int]] = []

        # Memory-queue occupancy: release cycle of each memory op, FIFO.
        memop_release: list[int] = []

        # Finish-width limiting: completions per cycle.
        completions_in_cycle: dict[int, int] = {}

        stats = PipelineStats()
        fetch_line = None  # current I-cache line; refetch on change
        next_fetch_cycle = 0
        fetched_this_cycle = 0
        redirect_after: int | None = None  # front end blocked until here

        group_first = 0  # index of the pending dispatch group's oldest op
        last_retire_cycle = -1
        dispatch_cycles: list[int] = []

        fetch_width = cfg.fetch_width
        group_size = cfg.dispatch_group_size
        rob_entries = cfg.rob_entries
        iq_entries = cfg.issue_queue_entries
        mq_entries = cfg.memory_queue_entries
        finish_width = cfg.finish_width
        redirect_penalty = cfg.mispredict_redirect_penalty
        l1i_latency = cfg.l1i.latency
        l1d_latency = self.dcache.spec.latency
        line_shift = (cfg.l1i.line_bytes - 1).bit_length()
        imem_access = self.imem.access
        dmem_access = self.dmem.access
        predict_and_update = self.predictor.predict_and_update
        last = n - 1

        for i in range(n):
            op = ops[i]
            pc = pcs[i]
            # ---------------- fetch ----------------
            if redirect_after is not None:
                if redirect_after > next_fetch_cycle:
                    next_fetch_cycle = redirect_after
                fetched_this_cycle = 0
                redirect_after = None
            line = pc >> line_shift
            if line != fetch_line:
                fetch_line = line
                miss_latency = imem_access(pc)
                if miss_latency > l1i_latency:
                    next_fetch_cycle += miss_latency - l1i_latency
                    fetched_this_cycle = 0
            if fetched_this_cycle >= fetch_width:
                next_fetch_cycle += 1
                fetched_this_cycle = 0
            fetch[i] = next_fetch_cycle
            fetched_this_cycle += 1

            # ---------------- group formation ----------------
            # POWER4-style groups of up to ``group_size`` ops, broken
            # after a branch; the trace's last op closes the last group.
            is_branch = op == _BRANCH
            if not (
                is_branch or i - group_first + 1 >= group_size or i == last
            ):
                continue

            # ---------------- dispatch ----------------
            # Decode pipe after fetch (fetch cycles never decrease, so
            # the group's newest op was fetched last), then ROB /
            # issue-queue / memory-queue occupancy. The one-group-per-
            # cycle dispatch limit is *not* enforced: see DESIGN.md,
            # "Known simulator defects".
            first = group_first
            members = range(first, i + 1)
            count = i + 1 - first
            earliest = fetch[i] + 1
            rob_blocker = first - rob_entries + count
            if rob_blocker >= 0 and retire[rob_blocker] + 1 > earliest:
                earliest = retire[rob_blocker] + 1
            iq_blocker = first - iq_entries + count
            if iq_blocker >= 0 and issue[iq_blocker] + 1 > earliest:
                earliest = issue[iq_blocker] + 1
            # Memory queue (FIFO-slot approximation, as for the ROB): the
            # memop that is mq_entries older than each memop in this
            # group must have released its slot.
            released = len(memop_release)
            ordinal = released
            for j in members:
                if OP_IS_MEMORY[ops[j]]:
                    blocker = ordinal - mq_entries
                    if 0 <= blocker < released:
                        if memop_release[blocker] > earliest:
                            earliest = memop_release[blocker]
                    elif blocker >= 0 and released:
                        # The blocking memop is in this same group (the
                        # group alone overflows the queue); approximate
                        # by waiting for the newest known release.
                        if memop_release[-1] > earliest:
                            earliest = memop_release[-1]
                    ordinal += 1
            dispatch_cycle = earliest
            dispatch_cycles.append(dispatch_cycle)
            stats.dispatch_groups += 1

            # ---------------- issue and execute ----------------
            group_complete = 0
            for j in members:
                dispatch[j] = dispatch_cycle
                op_j = ops[j]
                srcs = srcs_col[j]
                ready = dispatch_cycle + 1
                for src in srcs:
                    if reg_ready[src] > ready:
                        ready = reg_ready[src]

                base_latency = op_latency[op_j]
                if op_j == _LOAD:
                    stats.loads += 1
                    # The LS unit is occupied for address generation plus
                    # the L1 probe; a miss parks in the (modelled-
                    # unbounded) miss queue and only delays this load's
                    # completion, as in a non-blocking cache.
                    occupancy = base_latency + l1d_latency
                    total_latency = base_latency + dmem_access(addrs[j])
                elif op_j == _STORE:
                    stats.stores += 1
                    # Stores translate/probe at execute; data is written
                    # at retirement through the memory queue.
                    dmem_access(addrs[j])
                    occupancy = total_latency = base_latency
                else:
                    occupancy = total_latency = base_latency

                # Functional unit: the first instance free earliest.
                unit = OP_UNIT[op_j]
                available = unit_available[unit]
                free_at = min(available)
                slot = available.index(free_at)
                issue_cycle = ready if ready > free_at else free_at
                available[slot] = issue_cycle + (
                    occupancy if op_unpipelined[op_j] else 1
                )
                unit_busy[unit] += occupancy

                complete_cycle = issue_cycle + total_latency
                # Finish-width limit: at most finish_width completions
                # per cycle.
                finishing = completions_in_cycle.get(complete_cycle, 0)
                while finishing >= finish_width:
                    complete_cycle += 1
                    finishing = completions_in_cycle.get(complete_cycle, 0)
                completions_in_cycle[complete_cycle] = finishing + 1

                issue[j] = issue_cycle
                complete[j] = complete_cycle
                unit_spans[unit].append((issue_cycle, issue_cycle + occupancy))

                # Liveness: reads extend the current value's interval.
                for src in srcs:
                    if def_cycle[src] >= 0 and issue_cycle > last_read[src]:
                        last_read[src] = issue_cycle
                # A write finalises the previous value's interval.
                reg = dests[j]
                if reg >= 0:
                    reg_ready[reg] = complete_cycle
                    if def_cycle[reg] >= 0 and last_read[reg] > def_cycle[reg]:
                        live_intervals.append(
                            (reg, def_cycle[reg], last_read[reg])
                        )
                    def_cycle[reg] = complete_cycle
                    last_read[reg] = -1
                if complete_cycle > group_complete:
                    group_complete = complete_cycle

            # ---------------- retire ----------------
            retire_cycle = max(group_complete + 1, last_retire_cycle + 1)
            for j in members:
                retire[j] = retire_cycle
            last_retire_cycle = retire_cycle

            # Memory-queue release: loads free at completion, stores
            # drain after retirement.
            for j in members:
                if ops[j] == _LOAD:
                    memop_release.append(complete[j] + 1)
                elif ops[j] == _STORE:
                    memop_release.append(retire_cycle + 1)
            group_first = i + 1

            # ---------------- branch outcome ----------------
            if is_branch:
                stats.branches += 1
                taken = takens[i]
                if not predict_and_update(pc, taken):
                    stats.mispredictions += 1
                    redirect_after = complete[i] + redirect_penalty
                elif taken:
                    # Taken branches end the fetch group (redirect bubble
                    # is hidden by the predictor; next line fetch below).
                    fetched_this_cycle = fetch_width

        stats.instructions = n
        stats.cycles = retire[-1] + 1
        stats.l1i_misses = self.icache.misses
        stats.l1d_misses = self.dcache.misses
        stats.l2_misses = self.l2.misses
        stats.itlb_misses = self.itlb.misses
        stats.dtlb_misses = self.dtlb.misses
        stats.unit_busy_cycles = dict(zip(UNIT_NAMES, unit_busy))
        unit_intervals = dict(zip(UNIT_NAMES, unit_spans))

        # Finalise still-open liveness intervals at trace end.
        for reg in range(NUM_ARCH_REGS):
            if def_cycle[reg] >= 0 and last_read[reg] > def_cycle[reg]:
                live_intervals.append((reg, def_cycle[reg], last_read[reg]))

        return ScheduleResult(
            fetch=fetch,
            dispatch=dispatch,
            issue=issue,
            complete=complete,
            retire=retire,
            unit_intervals=unit_intervals,
            dispatch_cycles=dispatch_cycles,
            live_intervals=live_intervals,
            stats=stats,
        )
