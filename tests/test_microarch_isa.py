"""Tests for the ISA definitions."""

import pytest

from repro.errors import TraceError
from repro.microarch import InstructionRecord, OpClass
from repro.microarch.isa import (
    NUM_ARCH_REGS,
    OP_IS_FP,
    OP_IS_MEMORY,
    OP_UNIT,
    UNIT_NAMES,
    InstructionTrace,
    validate_trace,
)


class TestOpClass:
    def test_unit_mapping(self):
        assert OpClass.INT_ALU.unit == "int"
        assert OpClass.INT_DIV.unit == "int"
        assert OpClass.FP_MUL.unit == "fp"
        assert OpClass.LOAD.unit == "ls"
        assert OpClass.STORE.unit == "ls"
        assert OpClass.BRANCH.unit == "br"

    def test_predicates(self):
        assert OpClass.LOAD.is_memory
        assert not OpClass.INT_ALU.is_memory
        assert OpClass.BRANCH.is_branch
        assert OpClass.FP_DIV.is_fp
        assert OpClass.INT_MUL.is_int


class TestInstructionRecord:
    def test_valid_alu(self):
        rec = InstructionRecord(OpClass.INT_ALU, dest=3, srcs=(1, 2), pc=0x100)
        assert rec.dest == 3

    def test_rejects_register_out_of_range(self):
        with pytest.raises(TraceError):
            InstructionRecord(OpClass.INT_ALU, dest=NUM_ARCH_REGS)
        with pytest.raises(TraceError):
            InstructionRecord(OpClass.INT_ALU, dest=1, srcs=(NUM_ARCH_REGS,))

    def test_memory_needs_address(self):
        with pytest.raises(TraceError):
            InstructionRecord(OpClass.LOAD, dest=1, srcs=(2,))

    def test_store_has_no_dest(self):
        with pytest.raises(TraceError):
            InstructionRecord(
                OpClass.STORE, dest=1, srcs=(2, 3), mem_addr=0x1000
            )

    def test_too_many_sources(self):
        with pytest.raises(TraceError):
            InstructionRecord(OpClass.INT_ALU, dest=1, srcs=(1, 2, 3, 4))


class TestValidateTrace:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            validate_trace([])

    def test_wrong_type_rejected(self):
        with pytest.raises(TraceError):
            validate_trace(["not an instruction"])

    def test_valid_trace_passes(self):
        validate_trace([InstructionRecord(OpClass.INT_ALU, dest=1)])


class TestOpTables:
    def test_tables_match_enum_properties(self):
        for op in OpClass:
            assert UNIT_NAMES[OP_UNIT[op]] == op.unit
            assert OP_IS_MEMORY[op] == op.is_memory
            assert OP_IS_FP[op] == op.is_fp


RECORDS = [
    InstructionRecord(OpClass.INT_ALU, dest=1, srcs=(2, 3), pc=0x10),
    InstructionRecord(
        OpClass.LOAD, dest=4, srcs=(1,), pc=0x14, mem_addr=0x4000_0000
    ),
    InstructionRecord(
        OpClass.STORE, srcs=(4, 1), pc=0x18, mem_addr=0x4000_0008
    ),
    InstructionRecord(OpClass.BRANCH, srcs=(4,), pc=0x1C, taken=True),
]


def columns(**overrides):
    """Valid one-instruction columns with some replaced."""
    fields = dict(
        op=[int(OpClass.INT_ALU)], dest=[1], srcs=[(2,)], pc=[0],
        mem_addr=[-1], taken=[False],
    )
    fields.update(overrides)
    return fields


class TestInstructionTrace:
    def test_packs_and_reads_back_records(self):
        trace = InstructionTrace.from_records(RECORDS)
        assert trace.dest == [1, 4, -1, -1]
        assert trace.mem_addr == [-1, 0x4000_0000, 0x4000_0008, -1]
        assert list(trace) == RECORDS
        assert trace[1] == RECORDS[1]
        assert trace[-1] == RECORDS[-1]
        assert trace[1:3] == RECORDS[1:3]
        assert len(trace) == 4

    def test_equals_lists_of_records_both_ways(self):
        trace = InstructionTrace.from_records(RECORDS)
        assert trace == RECORDS
        assert RECORDS == trace
        assert trace != RECORDS[:3]
        assert trace == InstructionTrace.from_records(RECORDS)

    def test_coerce_keeps_columns(self):
        trace = InstructionTrace.from_records(RECORDS)
        assert InstructionTrace.coerce(trace) is trace
        assert InstructionTrace.coerce(RECORDS) == trace

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            InstructionTrace.from_records(RECORDS)[4]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(op=[len(OpClass)]),
            dict(dest=[NUM_ARCH_REGS]),
            dict(dest=[-2]),
            dict(srcs=[(NUM_ARCH_REGS,)]),
            dict(srcs=[(1, 2, 3, 4)]),
            dict(op=[int(OpClass.LOAD)]),
            dict(op=[int(OpClass.STORE)], mem_addr=[0x1000]),
            dict(pc=[0, 4]),
        ],
    )
    def test_bulk_validation_rejects(self, overrides):
        with pytest.raises(TraceError):
            InstructionTrace(**columns(**overrides))

    def test_bulk_validation_accepts(self):
        assert len(InstructionTrace(**columns())) == 1
