"""Statistical instruction-trace synthesis.

Turns a :class:`~repro.workloads.spec.BenchmarkProfile` into a dynamic
instruction stream whose statistics match the profile:

* a static CFG skeleton of ``static_blocks`` basic blocks, each with a
  fixed op skeleton and a **branch personality** — most static branches
  are strongly biased one way (mispredicted rarely by a bimodal
  predictor), a profile-controlled minority are data-dependent coin
  flips — visited by a random walk, which yields realistic I-cache and
  branch-predictor behaviour;
* per-instruction operands drawn with geometric dependence distances
  over a recent-producer window, plus a set of long-lived "global"
  registers (stack/base pointers, loop invariants) that keep part of the
  register file live for long stretches;
* memory addresses split between sequential streams (one miss per cache
  line) and a three-tier locality model (hot 16KB / warm <=1MB / cold
  full working set) for the irregular component;
* optional two-phase modulation (compute-leaning vs memory-leaning),
  giving the within-benchmark time structure the masking traces need.

The generator is fully deterministic given a seed. It emits an
integer-coded :class:`~repro.microarch.isa.InstructionTrace` (op codes,
-1 for "no register/address"), reading per-op facts from tables indexed
by the op code and validating the columns once at the end.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..microarch.isa import (
    FP_REG_BASE,
    OP_IS_FP,
    OP_IS_MEMORY,
    InstructionTrace,
    OpClass,
)
from .spec import BenchmarkProfile

#: Long-lived integer registers (stack/frame/base pointers, globals):
#: written in a preamble, then read throughout, rarely rewritten.
_INT_GLOBALS = tuple(range(1, 9))
_FP_GLOBALS = tuple(range(FP_REG_BASE, FP_REG_BASE + 4))
#: Rotating destination pools for ordinary values.
_INT_DEST_POOL = tuple(range(9, 32))
_FP_DEST_POOL = tuple(range(FP_REG_BASE + 4, FP_REG_BASE + 32))

#: Probability a source operand reads a global instead of a recent value.
_GLOBAL_SRC_PROB = 0.20
#: Probability a biased branch deviates from its preferred direction.
_BRANCH_NOISE = 0.03
#: Control-flow locality: size of the hot loop set and the probability a
#: taken branch escapes it to a fresh code region.
_LOOP_SET_SIZE = 12
_LOOP_ESCAPE_PROB = 0.06
#: Three-tier locality of non-streaming memory accesses.
_HOT_BYTES = 16 * 1024
_WARM_BYTES = 1024 * 1024
_HOT_PROB = 0.75
_WARM_PROB = 0.18

#: Source-register count per op code (a branch reads one register).
_N_SRCS = tuple(
    {OpClass.LOAD: 1, OpClass.BRANCH: 1}.get(op, 2) for op in OpClass
)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)


class _BlockSkeleton:
    """One static basic block: op codes, pc, and branch personality."""

    __slots__ = ("ops", "base_pc", "taken_direction", "is_random")

    def __init__(self, ops, base_pc, taken_direction, is_random):
        self.ops = ops
        self.base_pc = base_pc
        self.taken_direction = taken_direction
        self.is_random = is_random


def _phase_mix(profile: BenchmarkProfile, phase: int) -> dict:
    """Mix for the given phase index (alternating modulation)."""
    if profile.phase_length <= 0 or profile.phase_intensity <= 0:
        return profile.mix
    # Even phases lean on memory, odd phases on compute.
    shift = profile.phase_intensity
    mix = dict(profile.mix)
    factor_mem = 1.0 + shift if phase % 2 == 0 else max(1.0 - shift, 0.05)
    for op in (OpClass.LOAD, OpClass.STORE):
        if op in mix:
            mix[op] = mix[op] * factor_mem
    return mix


def _mix_table(mix: dict) -> tuple[list[int], np.ndarray]:
    """Op codes of ``mix`` and the CDF ``rng.choice`` samples them from."""
    codes = [int(op) for op in mix]
    weights = np.asarray([mix[op] for op in mix], dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return codes, cdf


def _draw_ops(
    rng, table: tuple[list[int], np.ndarray], count: int
) -> list[int]:
    """``count`` op codes drawn from a :func:`_mix_table` table.

    Consumes the generator exactly as ``rng.choice(len(codes), size=count,
    p=weights)`` does (``count`` uniforms inverted through the CDF), minus
    ``choice``'s per-call argument checks.
    """
    codes, cdf = table
    picks = cdf.searchsorted(rng.random(count), side="right")
    return [codes[i] for i in picks.tolist()]


class _TraceBuilder:
    """Mutable state of one synthesis run: the trace columns so far."""

    def __init__(self, profile: BenchmarkProfile, rng: np.random.Generator):
        self.profile = profile
        # Bound generator methods: the hot loops call them per operand.
        self.random = rng.random
        self.integers = rng.integers
        self.geometric = rng.geometric
        self.op: list[int] = []
        self.dest: list[int] = []
        self.srcs: list[tuple[int, ...]] = []
        self.pc: list[int] = []
        self.mem_addr: list[int] = []
        self.taken: list[bool] = []
        self.recent_int: list[int] = list(_INT_GLOBALS)
        self.recent_fp: list[int] = list(_FP_GLOBALS)
        self.stream_addr = 0x4000_0000
        self.int_dest_cursor = 0
        self.fp_dest_cursor = 0
        self.dep_p = min(1.0 / profile.mean_dep_distance, 1.0)
        self.fp_load_prob = 0.5 if profile.suite == "fp" else 0.05
        working = max(profile.working_set_bytes, _HOT_BYTES)
        self.hot_span = min(working, _HOT_BYTES)
        self.warm_span = min(working, _WARM_BYTES)
        self.cold_span = working

    def __len__(self) -> int:
        return len(self.op)

    def append(self, op, dest, srcs, pc, mem_addr=-1, taken=False) -> None:
        self.op.append(op)
        self.dest.append(dest)
        self.srcs.append(srcs)
        self.pc.append(pc)
        self.mem_addr.append(mem_addr)
        self.taken.append(taken)

    def columns(self, n: int) -> InstructionTrace:
        return InstructionTrace(
            self.op[:n],
            self.dest[:n],
            self.srcs[:n],
            self.pc[:n],
            self.mem_addr[:n],
            self.taken[:n],
        )

    # -- operand helpers ------------------------------------------------

    def pick_src(self, is_fp: bool) -> int:
        if self.random() < _GLOBAL_SRC_PROB:
            pool = _FP_GLOBALS if is_fp else _INT_GLOBALS
            return pool[int(self.integers(len(pool)))]
        pool = self.recent_fp if is_fp else self.recent_int
        distance = min(int(self.geometric(self.dep_p)), len(pool))
        return pool[-distance]

    def next_dest(self, is_fp: bool) -> int:
        if is_fp:
            dest = _FP_DEST_POOL[self.fp_dest_cursor % len(_FP_DEST_POOL)]
            self.fp_dest_cursor += 1
            recent = self.recent_fp
        else:
            dest = _INT_DEST_POOL[self.int_dest_cursor % len(_INT_DEST_POOL)]
            self.int_dest_cursor += 1
            recent = self.recent_int
        recent.append(dest)
        if len(recent) > 64:
            del recent[:32]
        return dest

    def memory_address(self) -> int:
        if self.random() < self.profile.streaming_fraction:
            self.stream_addr = (self.stream_addr + 8) & 0x7FFF_FFFF
            return self.stream_addr
        roll = self.random()
        if roll < _HOT_PROB:
            span = self.hot_span
        elif roll < _HOT_PROB + _WARM_PROB:
            span = self.warm_span
        else:
            span = self.cold_span
        return 0x4000_0000 + (int(self.integers(0, span)) & ~7)

    # -- emission --------------------------------------------------------

    def emit_preamble(self) -> None:
        """Define the global registers so their long lives are real."""
        pc = 0x0FFF_0000
        for reg in (*_INT_GLOBALS, *_FP_GLOBALS):
            op = OpClass.INT_ALU if reg < FP_REG_BASE else OpClass.FP_ADD
            self.append(int(op), reg, (), pc)
            pc += 4

    def emit_ops(self, ops: list[int], pc: int, limit: int) -> int:
        """Emit a block's ops from ``pc`` until the trace holds ``limit``.

        Returns the pc after the last emitted op.
        """
        pick_src = self.pick_src
        next_dest = self.next_dest
        emitted = self.op
        for op in ops:
            if len(emitted) >= limit:
                break
            is_fp = OP_IS_FP[op]
            srcs = tuple([pick_src(is_fp) for _ in range(_N_SRCS[op])])
            dest = -1
            if op == _LOAD:
                dest = next_dest(self.random() < self.fp_load_prob)
            elif op != _STORE:
                dest = next_dest(is_fp)
            mem_addr = self.memory_address() if OP_IS_MEMORY[op] else -1
            self.append(op, dest, srcs, pc, mem_addr)
            pc += 4
        return pc

    def emit_branch(self, skeleton: _BlockSkeleton, pc: int) -> bool:
        if skeleton.is_random:
            taken = bool(self.random() < 0.5)
        else:
            flip = self.random() < _BRANCH_NOISE
            taken = skeleton.taken_direction != flip
        self.append(_BRANCH, -1, (self.pick_src(False),), pc, -1, taken)
        return taken


def synthesize_trace(
    profile: BenchmarkProfile,
    n_instructions: int,
    seed: int = 0,
) -> InstructionTrace:
    """Generate a dynamic trace with the profile's statistics.

    Parameters
    ----------
    profile:
        Benchmark description (see :class:`BenchmarkProfile`).
    n_instructions:
        Length of the dynamic stream (the paper uses 1e8; tests and
        benchmarks use shorter windows — see DESIGN.md on why this is
        conservative for the reproduced claims).
    seed:
        Generator seed; identical inputs yield identical traces.
    """
    if n_instructions < 1:
        raise ConfigurationError(
            f"need at least one instruction, got {n_instructions}"
        )
    rng = np.random.default_rng(seed)

    mean_block = max(1.0 / profile.branch_fraction - 1.0, 1.0)
    n_blocks = profile.static_blocks

    skeletons: list[_BlockSkeleton] = []
    pc = 0x1000_0000
    base_table = _mix_table(profile.mix)
    for _ in range(n_blocks):
        size = int(rng.geometric(1.0 / mean_block))
        size = max(1, min(size, 40))
        ops = _draw_ops(rng, base_table, size)
        is_random = rng.random() < profile.random_branch_fraction
        taken_direction = bool(rng.random() < profile.branch_taken_bias)
        skeletons.append(
            _BlockSkeleton(ops, pc, taken_direction, is_random)
        )
        pc += 4 * (size + 1)  # +1 for the terminating branch

    # Phased profiles resample every block visit's ops under the mix of
    # the current phase; the mix depends only on the phase's parity.
    phased = profile.phase_length > 0 and profile.phase_intensity > 0
    phase_tables = ()
    if phased:
        phase_tables = tuple(
            _mix_table(_phase_mix(profile, phase)) for phase in (0, 1)
        )

    builder = _TraceBuilder(profile, rng)
    builder.emit_preamble()

    # Control flow visits a slowly rotating hot set of blocks (loops),
    # occasionally escaping to a fresh region — real programs spend most
    # of their time in small loop nests, which is what gives branch
    # predictors and I-caches their hit rates.
    loop_set = rng.integers(0, n_blocks, size=_LOOP_SET_SIZE).tolist()
    block_index = loop_set[0]
    while len(builder) < n_instructions:
        skeleton = skeletons[block_index]
        ops = skeleton.ops
        if phased:
            # Resample this visit's ops under the phase mix, keeping the
            # block length (hence pcs and branch structure) fixed.
            phase = len(builder) // profile.phase_length
            ops = _draw_ops(rng, phase_tables[phase % 2], len(ops))
        pc = builder.emit_ops(ops, skeleton.base_pc, n_instructions)
        if len(builder) >= n_instructions:
            break
        taken = builder.emit_branch(skeleton, pc)
        if taken:
            if rng.random() < _LOOP_ESCAPE_PROB:
                fresh = int(rng.integers(n_blocks))
                loop_set[int(rng.integers(_LOOP_SET_SIZE))] = fresh
                block_index = fresh
            else:
                block_index = loop_set[int(rng.integers(_LOOP_SET_SIZE))]
        else:
            block_index = (block_index + 1) % n_blocks
    return builder.columns(n_instructions)
