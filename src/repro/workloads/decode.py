"""Batch decode of a materialized micro-op stream into array form.

The per-uop timing path (:class:`repro.sim.processor.Processor`) reads one
:class:`~repro.isa.microops.MicroOp` object at a time and re-derives the same
per-uop facts — execution class, latency, register indices, trace-line
membership — every time it touches the uop.  The fast timing path
(:class:`repro.sim.fast_timing.FastTimingStage`) instead decodes the whole
workload once up front: :class:`DecodedWorkload` extracts every field into
dense arrays and pre-segments the stream into trace-cache lines (the
16-uop / 3-branch assembly rule of the fetch unit), which are handed to the
compiled timing core as int64 buffers; the core never sees a ``MicroOp``.

The decode is purely static: nothing here depends on simulated time, cache
state or steering decisions, so a decoded workload can be reused across
intervals, engines and timing modes.
"""

from __future__ import annotations

from functools import cached_property
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


class DecodedWorkload:
    """A micro-op sequence decoded into parallel arrays plus trace lines.

    Per-uop fields are exposed both as plain Python lists (``*_list``, the
    form the decode loop builds and the line segmentation scans) and as
    numpy arrays (cached properties).
    """

    def __init__(self, uops: Sequence[MicroOp], num_int_registers: int = None) -> None:
        if num_int_registers is None:
            num_int_registers = RegisterSpace.DEFAULT_INT
        self.num_int_registers = num_int_registers
        codes = UOP_CLASS_CODES
        lat_by_code = OP_LATENCY_BY_CODE
        fp_codes = FP_CODES

        n = len(uops)
        self.n = n
        pc_l: List[int] = []
        cls_l: List[int] = []
        lat_l: List[int] = []
        addr_l: List[int] = []
        isbr_l: List[bool] = []
        mp_l: List[bool] = []
        dest_l: List[int] = []
        srcs_l: List[Tuple[int, ...]] = []
        ineed_l: List[int] = []
        fneed_l: List[int] = []

        for pc, cls, dest, sources, mem_addr, is_branch, mispredicted in map(
            _FIELDS, uops
        ):
            code = codes[cls]
            pc_l.append(pc)
            cls_l.append(code)
            lat_l.append(lat_by_code[code])
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
            if sources:
                flats = []
                for reg in sources:
                    if reg.reg_class is _FP:
                        flats.append(num_int_registers + reg.index)
                        fp_needed += 1
                    else:
                        flats.append(reg.index)
                        int_needed += 1
                srcs_l.append(tuple(flats))
            else:
                srcs_l.append(())
            ineed_l.append(int_needed)
            fneed_l.append(fp_needed)

        self.pc_list = pc_l
        self.cls_list = cls_l
        self.latency_list = lat_l
        self.mem_addr_list = addr_l
        self.is_branch_list = isbr_l
        self.mispredicted_list = mp_l
        self.dest_flat_list = dest_l
        self.src_flats_list = srcs_l
        self.int_needed_list = ineed_l
        self.fp_needed_list = fneed_l
        self._lines_cache: Dict[Tuple[int, int], list] = {}

    # ------------------------------------------------------------------
    # Array views (derived once, on demand)
    # ------------------------------------------------------------------
    @cached_property
    def op_class(self) -> np.ndarray:
        """Per-uop :class:`UopClass` code (enum declaration order)."""
        return np.asarray(self.cls_list, dtype=np.int64)

    @cached_property
    def latency(self) -> np.ndarray:
        """Per-uop base execution latency (cache-hit latency for memory ops)."""
        return np.asarray(self.latency_list, dtype=np.int64)

    @cached_property
    def mem_addr(self) -> np.ndarray:
        """Per-uop effective address (``-1`` for non-memory uops)."""
        return np.asarray(self.mem_addr_list, dtype=np.int64)

    @cached_property
    def is_branch(self) -> np.ndarray:
        return np.asarray(self.is_branch_list, dtype=bool)

    @cached_property
    def mispredicted(self) -> np.ndarray:
        return np.asarray(self.mispredicted_list, dtype=bool)

    @cached_property
    def dest_flat(self) -> np.ndarray:
        """Per-uop destination register flat index (``-1`` when none)."""
        return np.asarray(self.dest_flat_list, dtype=np.int64)

    @cached_property
    def source_flats(self) -> np.ndarray:
        """``(n, 2)`` source register flat indices, ``-1``-padded."""
        out = np.full((self.n, 2), -1, dtype=np.int64)
        for i, flats in enumerate(self.src_flats_list):
            for j, flat in enumerate(flats):
                out[i, j] = flat
        return out

    @cached_property
    def pc(self) -> np.ndarray:
        return np.asarray(self.pc_list, dtype=np.int64)

    # ------------------------------------------------------------------
    # Trace-line segmentation
    # ------------------------------------------------------------------
    def lines(self, line_uops: int, fetch_width: int) -> list:
        """Pre-segmented trace lines for a fetch configuration.

        Returns a list of tuples ``(start, end, head_pc, fetch_cycles,
        sets_exhausted)`` mirroring exactly how
        :meth:`repro.frontend.fetch.FetchUnit._assemble_line` chops the
        stream: up to ``line_uops`` uops, ending early after the third
        branch.  ``sets_exhausted`` marks the line whose assembly hit the end
        of the stream mid-pull (the cycle at which the reference fetch unit
        latches its ``_exhausted`` flag).
        """
        key = (line_uops, fetch_width)
        cached = self._lines_cache.get(key)
        if cached is not None:
            return cached
        isbr = self.is_branch_list
        pc = self.pc_list
        n = self.n
        lines = []
        i = 0
        while i < n:
            start = i
            limit = i + line_uops
            if limit > n:
                limit = n
            branches = 0
            stopped_by_branch = False
            j = start
            while j < limit:
                hit_branch = isbr[j]
                j += 1
                if hit_branch:
                    branches += 1
                    if branches >= 3:
                        stopped_by_branch = True
                        break
            length = j - start
            # The reference fetch unit only learns the stream is exhausted
            # when an assembly pull raises StopIteration: a line cut short by
            # the stream end (not by the uop cap or the branch rule) is the
            # one that sets the flag.
            sets_exhausted = j == n and length < line_uops and not stopped_by_branch
            fetch_cycles = -(-length // fetch_width)
            if fetch_cycles < 1:
                fetch_cycles = 1
            lines.append((start, j, pc[start], fetch_cycles, sets_exhausted))
            i = j
        self._lines_cache[key] = lines
        return lines


def decode_workload(
    uops: Sequence[MicroOp], num_int_registers: int = None
) -> DecodedWorkload:
    """Decode a materialized uop sequence (see :class:`DecodedWorkload`)."""
    return DecodedWorkload(uops, num_int_registers)
