"""Simplified POWER-like instruction set for trace-driven simulation.

A trace-driven timing model needs only the scheduling-relevant facts
about each instruction: its operation class (which functional unit and
latency it needs), register operands (for dependences and liveness),
memory address (for the cache hierarchy), and branch outcome (for the
predictor). That is what :class:`InstructionRecord` carries.

Traces are stored column-wise as an :class:`InstructionTrace`: one
integer column per field, validated in bulk, with per-op facts read from
tables indexed by the op code (:data:`OP_UNIT`, :data:`OP_IS_MEMORY`,
:data:`OP_IS_FP`). Iterating or indexing it yields
:class:`InstructionRecord` rows, so code written against a list of
records reads a column trace unchanged.

Registers are architectural: 0..31 integer, 32..63 floating point
(:data:`INT_REG_BASE`/:data:`FP_REG_BASE`). The machine's 256-entry
physical register file (Table 1: 80 integer + 72 FP + control) is
modelled in the pipeline's liveness accounting.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain

import numpy as np

from ..errors import TraceError

#: Architectural integer registers are 0..31.
INT_REG_BASE = 0
#: Architectural floating-point registers are 32..63.
FP_REG_BASE = 32
#: Total architectural registers carried in traces.
NUM_ARCH_REGS = 64


class OpClass(IntEnum):
    """Operation classes, each mapping to one functional-unit type."""

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    FP_ADD = 3
    FP_MUL = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_branch(self) -> bool:
        return self is OpClass.BRANCH

    @property
    def is_fp(self) -> bool:
        return self in (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV)

    @property
    def is_int(self) -> bool:
        return self in (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.INT_DIV)

    @property
    def unit(self) -> str:
        """The functional-unit pool this class issues to."""
        if self.is_int:
            return "int"
        if self.is_fp:
            return "fp"
        if self.is_memory:
            return "ls"
        return "br"


#: Functional-unit pools, in the order :data:`OP_UNIT` indexes them.
UNIT_NAMES: tuple[str, ...] = ("int", "fp", "ls", "br")
#: Per-op-code tables, indexed by ``int(OpClass)``.
OP_UNIT: tuple[int, ...] = tuple(UNIT_NAMES.index(op.unit) for op in OpClass)
OP_IS_MEMORY: tuple[bool, ...] = tuple(op.is_memory for op in OpClass)
OP_IS_FP: tuple[bool, ...] = tuple(op.is_fp for op in OpClass)


@dataclass(frozen=True)
class InstructionRecord:
    """One dynamic instruction of a trace.

    Attributes
    ----------
    op:
        Operation class.
    dest:
        Destination architectural register, or ``None`` (stores,
        branches).
    srcs:
        Source architectural registers (0-3 of them).
    pc:
        Instruction address (for the I-cache and branch predictor).
    mem_addr:
        Effective address for loads/stores, else ``None``.
    taken:
        Branch outcome for branches, else ``False``.
    """

    op: OpClass
    dest: int | None = None
    srcs: tuple[int, ...] = ()
    pc: int = 0
    mem_addr: int | None = None
    taken: bool = False

    def __post_init__(self) -> None:
        if self.dest is not None and not 0 <= self.dest < NUM_ARCH_REGS:
            raise TraceError(f"dest register {self.dest} out of range")
        for src in self.srcs:
            if not 0 <= src < NUM_ARCH_REGS:
                raise TraceError(f"src register {src} out of range")
        if self.op.is_memory and self.mem_addr is None:
            raise TraceError(f"{self.op.name} needs a memory address")
        if self.op is OpClass.STORE and self.dest is not None:
            raise TraceError("stores do not write registers")
        if len(self.srcs) > 3:
            raise TraceError("at most three source registers supported")


class InstructionTrace(Sequence):
    """A dynamic trace stored as parallel integer columns.

    Columns (all the same length):

    * ``op`` — op codes (``int(OpClass)``);
    * ``dest`` — destination register, ``-1`` for none;
    * ``srcs`` — tuples of 0-3 source registers;
    * ``pc`` — instruction addresses;
    * ``mem_addr`` — effective addresses, ``-1`` for none;
    * ``taken`` — branch outcomes.

    The columns are validated once, in bulk, against the same rules
    :class:`InstructionRecord` checks per record. Rows read back as
    records; a trace equals another trace, or a list of records, with
    the same rows.
    """

    __slots__ = ("op", "dest", "srcs", "pc", "mem_addr", "taken")

    def __init__(self, op, dest, srcs, pc, mem_addr, taken):
        self.op: list[int] = [int(code) for code in op]
        self.dest: list[int] = list(dest)
        self.srcs: list[tuple[int, ...]] = [tuple(s) for s in srcs]
        self.pc: list[int] = list(pc)
        self.mem_addr: list[int] = list(mem_addr)
        self.taken: list[bool] = [bool(t) for t in taken]
        self._validate()

    @classmethod
    def from_records(cls, records) -> "InstructionTrace":
        """Pack :class:`InstructionRecord` rows into columns."""
        records = list(records)
        return cls(
            [r.op for r in records],
            [-1 if r.dest is None else r.dest for r in records],
            [r.srcs for r in records],
            [r.pc for r in records],
            [-1 if r.mem_addr is None else r.mem_addr for r in records],
            [r.taken for r in records],
        )

    @classmethod
    def coerce(cls, trace) -> "InstructionTrace":
        """``trace`` itself if already columnar, else its packed columns."""
        return trace if isinstance(trace, cls) else cls.from_records(trace)

    def _validate(self) -> None:
        n = len(self.op)
        lengths = {
            len(column)
            for column in (
                self.dest, self.srcs, self.pc, self.mem_addr, self.taken
            )
        }
        if lengths - {n}:
            raise TraceError(f"column lengths {lengths | {n}} differ")
        if not n:
            return
        op = np.asarray(self.op, dtype=np.int64)
        if op.min() < 0 or op.max() >= len(OpClass):
            raise TraceError("op code out of range")
        dest = np.asarray(self.dest, dtype=np.int64)
        if np.any((dest < -1) | (dest >= NUM_ARCH_REGS)):
            raise TraceError("dest register out of range")
        if max(map(len, self.srcs)) > 3:
            raise TraceError("at most three source registers supported")
        srcs = np.fromiter(chain.from_iterable(self.srcs), dtype=np.int64)
        if np.any((srcs < 0) | (srcs >= NUM_ARCH_REGS)):
            raise TraceError("src register out of range")
        memory = np.asarray(OP_IS_MEMORY)[op]
        if np.any(memory & (np.asarray(self.mem_addr) == -1)):
            raise TraceError("memory ops need a memory address")
        if np.any((op == OpClass.STORE) & (dest != -1)):
            raise TraceError("stores do not write registers")

    def record(self, index: int) -> InstructionRecord:
        dest = self.dest[index]
        mem_addr = self.mem_addr[index]
        return InstructionRecord(
            op=OpClass(self.op[index]),
            dest=None if dest < 0 else dest,
            srcs=self.srcs[index],
            pc=self.pc[index],
            mem_addr=None if mem_addr == -1 else mem_addr,
            taken=self.taken[index],
        )

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return InstructionTrace(
                self.op[index],
                self.dest[index],
                self.srcs[index],
                self.pc[index],
                self.mem_addr[index],
                self.taken[index],
            )
        return self.record(range(len(self.op))[index])

    def __iter__(self):
        return map(self.record, range(len(self.op)))

    def _columns(self) -> tuple:
        return (
            self.op, self.dest, self.srcs, self.pc, self.mem_addr, self.taken
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, InstructionTrace):
            return self._columns() == other._columns()
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"InstructionTrace({len(self)} instructions)"


def validate_trace(trace: InstructionTrace | list[InstructionRecord]) -> None:
    """Validate a whole trace (cheap structural checks)."""
    if not trace:
        raise TraceError("empty instruction trace")
    if isinstance(trace, InstructionTrace):
        return  # validated in bulk on construction
    # InstructionRecord validates each record on construction; here we
    # only check the container type to catch accidental generators that
    # were already consumed.
    if not isinstance(trace[0], InstructionRecord):
        raise TraceError(
            f"trace elements must be InstructionRecord, got "
            f"{type(trace[0]).__name__}"
        )
