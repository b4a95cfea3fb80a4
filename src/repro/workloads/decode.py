"""Batch decode of a workload into array form.

The per-uop timing path (:class:`repro.sim.processor.Processor`) reads one
:class:`~repro.isa.microops.MicroOp` object at a time and re-derives the same
per-uop facts — execution class, latency, register indices — every time it
touches the uop.  The fast timing path
(:class:`repro.sim.fast_timing.FastTimingStage`) instead takes the whole
workload as one :class:`DecodedWorkload`: dense per-uop numpy arrays, handed
to the compiled timing core as they are (the core segments them into
trace-cache lines itself); the core never sees a ``MicroOp``.

A decoded workload comes from one of two producers, equal byte for byte:

* :func:`decode_workload` — the reference: decodes a materialized
  ``MicroOp`` sequence (any source, e.g. the Python
  :class:`~repro.workloads.generator.TraceGenerator`);
* :func:`repro.sim.native.generate_decoded` — the native workload front end,
  which generates a :class:`~repro.workloads.generator.WorkloadSpec` and
  decodes it in the same pass, reading the class-code and latency tables
  defined here.

The decode is purely static: nothing here depends on simulated time, cache
state or steering decisions, so a decoded workload can be reused across
intervals, engines and timing modes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.isa.microops import OP_LATENCY, MicroOp, UopClass
from repro.isa.registers import RegisterClass, RegisterSpace

#: Dense integer codes for :class:`UopClass`, in enum declaration order.
UOP_CLASS_CODES: Dict[UopClass, int] = {cls: i for i, cls in enumerate(UopClass)}

#: Execution latency indexed by class code (same order as the codes above).
OP_LATENCY_BY_CODE: Tuple[int, ...] = tuple(OP_LATENCY[cls] for cls in UopClass)

CODE_FPADD = UOP_CLASS_CODES[UopClass.FPADD]
CODE_FPMUL = UOP_CLASS_CODES[UopClass.FPMUL]
CODE_FPDIV = UOP_CLASS_CODES[UopClass.FPDIV]
CODE_LOAD = UOP_CLASS_CODES[UopClass.LOAD]
CODE_STORE = UOP_CLASS_CODES[UopClass.STORE]
CODE_COPY = UOP_CLASS_CODES[UopClass.COPY]

FP_CODES = frozenset({CODE_FPADD, CODE_FPMUL, CODE_FPDIV})

# Bulk extractor: one C-level call per uop instead of seven attribute reads.
_FIELDS = attrgetter(
    "pc", "uop_class", "dest", "sources", "mem_addr", "is_branch", "mispredicted"
)
_FP = RegisterClass.FP


#: The per-uop arrays of a :class:`DecodedWorkload`, with their dtypes.
ARRAY_FIELDS = (
    ("pc", np.int64),
    ("op_class", np.int64),
    ("latency", np.int64),
    ("mem_addr", np.int64),
    ("is_branch", np.bool_),
    ("mispredicted", np.bool_),
    ("dest_flat", np.int64),
    ("source_flats", np.int64),
    ("int_needed", np.int64),
    ("fp_needed", np.int64),
)


class DecodedWorkload:
    """A micro-op sequence decoded into parallel numpy arrays.

    ``pc``, ``op_class`` (:class:`UopClass` code, enum declaration order),
    ``latency`` (base execution latency; cache-hit latency for memory ops),
    ``mem_addr`` (``-1`` for non-memory uops), ``is_branch`` and
    ``mispredicted`` (bool), ``dest_flat`` (destination register flat index,
    ``-1`` when none), ``source_flats`` (``(n, 2)``, ``-1``-padded) and the
    ``int_needed`` / ``fp_needed`` register counts per uop.
    """

    def __init__(self, **arrays: np.ndarray) -> None:
        if set(arrays) != {name for name, _ in ARRAY_FIELDS}:
            raise ValueError(f"DecodedWorkload needs exactly {[n for n, _ in ARRAY_FIELDS]}")
        for name, dtype in ARRAY_FIELDS:
            setattr(self, name, np.ascontiguousarray(arrays[name], dtype=dtype))
        self.n = len(self.pc)

    @classmethod
    def empty(cls, n: int) -> "DecodedWorkload":
        """Uninitialized arrays for ``n`` uops (a producer fills them in)."""
        return cls(
            **{
                name: np.empty((n, 2) if name == "source_flats" else n, dtype=dtype)
                for name, dtype in ARRAY_FIELDS
            }
        )


def decode_workload(
    uops: Sequence[MicroOp], num_int_registers: int = None
) -> DecodedWorkload:
    """Decode a materialized uop sequence (see :class:`DecodedWorkload`)."""
    if num_int_registers is None:
        num_int_registers = RegisterSpace.DEFAULT_INT
    codes = UOP_CLASS_CODES
    pc_l: List[int] = []
    cls_l: List[int] = []
    addr_l: List[int] = []
    isbr_l: List[bool] = []
    mp_l: List[bool] = []
    dest_l: List[int] = []
    srcs_l: List[List[int]] = []
    ineed_l: List[int] = []
    fneed_l: List[int] = []

    for pc, cls, dest, sources, mem_addr, is_branch, mispredicted in map(
        _FIELDS, uops
    ):
        pc_l.append(pc)
        cls_l.append(codes[cls])
        addr_l.append(-1 if mem_addr is None else mem_addr)
        isbr_l.append(is_branch)
        mp_l.append(mispredicted)
        int_needed = 0
        fp_needed = 0
        if dest is None:
            dest_l.append(-1)
        elif dest.reg_class is _FP:
            dest_l.append(num_int_registers + dest.index)
            fp_needed = 1
        else:
            dest_l.append(dest.index)
            int_needed = 1
        flats = [-1, -1]
        for j, reg in enumerate(sources):
            if reg.reg_class is _FP:
                flats[j] = num_int_registers + reg.index
                fp_needed += 1
            else:
                flats[j] = reg.index
                int_needed += 1
        srcs_l.append(flats)
        ineed_l.append(int_needed)
        fneed_l.append(fp_needed)

    op_class = np.array(cls_l, dtype=np.int64)
    return DecodedWorkload(
        pc=pc_l,
        op_class=op_class,
        latency=np.array(OP_LATENCY_BY_CODE, dtype=np.int64)[op_class],
        mem_addr=addr_l,
        is_branch=isbr_l,
        mispredicted=mp_l,
        dest_flat=dest_l,
        source_flats=np.array(srcs_l, dtype=np.int64).reshape(len(srcs_l), 2),
        int_needed=ineed_l,
        fp_needed=fneed_l,
    )
