"""Instruction-trace serialisation.

Lets users persist synthesized traces or bring their own (e.g. converted
from a binary-instrumentation tool) into the simulator. The format is a
compressed ``.npz`` of parallel arrays — compact and loadable without
any custom parsing:

* ``op``        — int8 op-class codes (:class:`~repro.microarch.isa.OpClass`);
* ``dest``      — int16 destination register, -1 for none;
* ``srcs``      — int16 array of shape ``(n, 3)``, -1 padding;
* ``pc``        — int64 instruction addresses;
* ``mem_addr``  — int64 effective addresses, -1 for non-memory ops;
* ``taken``     — bool branch outcomes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import TraceError
from .isa import InstructionRecord, InstructionTrace

_FORMAT_VERSION = 1


def save_trace(
    trace: InstructionTrace | list[InstructionRecord], path: "str | Path"
) -> None:
    """Serialise a trace to a compressed ``.npz`` file."""
    if not len(trace):
        raise TraceError("refusing to save an empty trace")
    columns = InstructionTrace.coerce(trace)
    srcs = np.full((len(columns), 3), -1, dtype=np.int16)
    for i, sources in enumerate(columns.srcs):
        srcs[i, : len(sources)] = sources
    np.savez_compressed(
        Path(path),
        version=np.asarray(_FORMAT_VERSION),
        op=np.asarray(columns.op, dtype=np.int8),
        dest=np.asarray(columns.dest, dtype=np.int16),
        srcs=srcs,
        pc=np.asarray(columns.pc, dtype=np.int64),
        mem_addr=np.asarray(columns.mem_addr, dtype=np.int64),
        taken=np.asarray(columns.taken, dtype=bool),
    )


def load_trace(path: "str | Path") -> InstructionTrace:
    """Load a trace saved by :func:`save_trace` (validated in bulk)."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        try:
            version = int(data["version"])
            op = data["op"]
            dest = data["dest"]
            srcs = data["srcs"]
            pc = data["pc"]
            mem_addr = data["mem_addr"]
            taken = data["taken"]
        except KeyError as exc:
            raise TraceError(f"{path}: missing field {exc}") from exc
    if version != _FORMAT_VERSION:
        raise TraceError(
            f"{path}: unsupported trace format version {version}"
        )
    lengths = {arr.shape[0] for arr in (op, dest, srcs, pc, mem_addr, taken)}
    if len(lengths) != 1:
        raise TraceError(f"{path}: inconsistent array lengths {lengths}")
    return InstructionTrace(
        op.tolist(),
        dest.tolist(),
        [tuple(s for s in row if s >= 0) for row in srcs.tolist()],
        pc.tolist(),
        mem_addr.tolist(),
        taken.tolist(),
    )
