"""The fast timing path: the compiled core over a batch-decoded workload.

:class:`FastProcessor` runs the exact microarchitecture the per-uop
:class:`~repro.sim.processor.Processor` models, but in the native core that
:mod:`repro.sim.native` compiles from ``_native_core.c``.  The workload is
decoded once up front (:class:`~repro.workloads.decode.DecodedWorkload`:
dense per-uop arrays, which the core segments into trace-cache lines),
handed to the C side with the configuration's block-id tables, and advanced
one interval at a time.  A :class:`~repro.workloads.generator.WorkloadSpec`
is generated and decoded natively in one pass
(:func:`~repro.sim.native.generate_decoded`); an explicit ``MicroOp``
sequence goes through :func:`~repro.workloads.decode.decode_workload`.  The
Python shell owns only what the engines read or steer: the activity
accumulator, :class:`~repro.sim.stats.SimulationStats`, the fetch
gate and thin views over the C-side trace cache and UL2.

The contract is strict: for any materialized workload and any
configuration the core accepts (every preset, centralized or distributed
frontends alike), the fast path produces byte-identical
:class:`~repro.sim.activity_trace.ActivityTrace` serializations and equal
:class:`~repro.sim.stats.SimulationStats` payloads to the reference
``Processor``, which stays the golden reference and the path taken when the
core cannot be built; ``tests/test_fast_timing_equivalence.py`` locks the
contract.

What the core deliberately does **not** model are the reference's
write-only internals, proven unobservable in the emitted payloads: the
branch predictor's gshare tables (predictions never alter timing — only the
decode-time ``mispredicted`` flag does), the disambiguation buses, register
file port counters, and the steering/queue bookkeeping counters.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.thermal_mapping import BankMappingTable
from repro.frontend.trace_cache import TraceCache
from repro.isa.microops import MicroOp
from repro.isa.registers import RegisterSpace
from repro.sim import blocks, native
from repro.sim.config import MemoryConfig, ProcessorConfig, TraceCacheConfig
from repro.sim.stages import TimingStage
from repro.sim.processor import Processor, SimulationDeadlockError
from repro.sim.stats import SimulationStats
from repro.sim.warmcache import layout_key, warm_cache
from repro.workloads.decode import (
    ARRAY_FIELDS,
    CODE_COPY,
    CODE_LOAD,
    CODE_STORE,
    FP_CODES,
    UOP_CLASS_CODES,
    DecodedWorkload,
    decode_workload,
)
from repro.workloads.generator import WorkloadSpec


def _i64(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.int64))


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


def _decoded_workload(
    workload: Union[Sequence[MicroOp], WorkloadSpec],
) -> Tuple[DecodedWorkload, Tuple[ctypes.c_void_p, ...]]:
    """A workload's decoded arrays and their pointers, in ``fp_create`` order.

    A :class:`WorkloadSpec` is generated natively once per warm cache
    (:meth:`~repro.sim.warmcache.WarmCache.get_workload`): its arrays are
    made read-only and shared by every processor run over it.
    """
    if not isinstance(workload, WorkloadSpec):
        decoded = decode_workload(workload, RegisterSpace.DEFAULT_INT)
        return decoded, tuple(_ptr(getattr(decoded, name)) for name, _ in ARRAY_FIELDS)
    cache = warm_cache()
    entry = cache.get_workload(workload)
    if entry is None:
        decoded = native.generate_decoded(workload.benchmark, workload.seed, workload.uops)
        arrays = [getattr(decoded, name) for name, _ in ARRAY_FIELDS]
        for array in arrays:
            array.flags.writeable = False
        entry = (decoded, tuple(_ptr(array) for array in arrays))
        cache.put_workload(workload, entry, sum(array.nbytes for array in arrays))
    return entry


class NativeLayout(NamedTuple):
    """What the native core is told about a configuration, workload aside."""

    #: The activity accumulator's block order.
    block_names: Tuple[str, ...]
    #: The parameter vector (``native.PARAM_NAMES`` order) with ``n`` = 0.
    params: np.ndarray
    #: The 13 block-id tables, in ``fp_create`` order, and their pointers.
    tables: Tuple[np.ndarray, ...]
    pointers: Tuple[ctypes.c_void_p, ...]


#: Position of the workload length in the parameter vector.
_PARAM_N = native.PARAM_NAMES.index("n")


def native_layout(config: ProcessorConfig) -> NativeLayout:
    """``config``'s :class:`NativeLayout`, built once per warm cache.

    Keyed like :func:`~repro.sim.warmcache.core_layout`: no table reads the
    configuration's name, power or thermal section.
    """
    return warm_cache().native_layout(
        layout_key(config), lambda: _build_native_layout(config)
    )


def _build_native_layout(config: ProcessorConfig) -> NativeLayout:
    block_names = tuple(blocks.all_blocks(config))
    pos = {name: i for i, name in enumerate(block_names)}
    num_int, num_fp = RegisterSpace.DEFAULT_INT, RegisterSpace.DEFAULT_FP
    fe, be, ic, mem = config.frontend, config.backend, config.interconnect, config.memory
    tc = fe.trace_cache
    ncl = be.num_clusters
    nf = fe.num_frontends
    n_codes = len(UOP_CLASS_CODES)
    params = dict(
        n=0,
        line_uops=tc.line_uops,
        ncl=ncl,
        nf=nf,
        n_blocks=len(block_names),
        fwidth=fe.fetch_width,
        dwidth=fe.dispatch_width,
        cwidth=fe.commit_width,
        iwidth=be.issue_width_per_queue,
        displat=be.dispatch_latency,
        presched_cap=be.prescheduler_entries * 4,
        mp_penalty=fe.misprediction_penalty,
        fbuf=Processor._FRONTEND_BUFFER_LIMIT,
        deadlock=Processor._DEADLOCK_THRESHOLD,
        # Delay from fetch to the first cycle an entry can be renamed.
        ready_off=tc.fetch_to_dispatch_latency + fe.decode_rename_steer_latency + 1,
        ul2_hit=mem.ul2_hit_latency,
        ul2_miss=mem.ul2_miss_latency,
        dc_hit=be.dcache_hit_latency,
        # Cycles from completion to commit: one, or the partitioned ROB's
        # cross-partition commit latency when that is longer.
        commit_lag=max(1, fe.distributed_commit_extra_latency) if fe.is_distributed else 1,
        rob_cap=fe.rob_entries_per_frontend,
        qcap0=be.int_queue_entries,
        qcap1=be.fp_queue_entries,
        qcap2=be.mem_queue_entries,
        qcap3=be.copy_queue_entries,
        mob_cap=be.mem_queue_entries,
        int_regs=be.int_registers,
        fp_regs=be.fp_registers,
        reg_bits=(max(be.int_registers, be.fp_registers) - 1).bit_length(),
        policy=native.POLICY_CODES[config.steering_policy],
        n_buses=ic.num_memory_buses,
        bus_arb=ic.bus_arbitration_latency,
        bus_xfer=ic.bus_latency,
        n_links=ic.num_p2p_links,
        p2p_hop=ic.p2p_hop_latency,
        tc_banks=tc.physical_banks,
        tc_sets=tc.sets_per_bank,
        tc_assoc=tc.associativity,
        tc_map_entries=tc.mapping_table_entries,
        tc_build_ovh=TraceCache.TRACE_BUILD_OVERHEAD,
        ul2_sets=max(1, mem.ul2_kb * 1024 // (mem.line_bytes * mem.ul2_associativity)),
        ul2_assoc=mem.ul2_associativity,
        ul2_line_bytes=mem.line_bytes,
        dl1_sets=max(
            1, be.dcache_kb * 1024 // (be.dcache_line_bytes * be.dcache_associativity)
        ),
        dl1_assoc=be.dcache_associativity,
        dl1_line_bytes=be.dcache_line_bytes,
        num_int_arch=num_int,
        arch_total=num_int + num_fp,
        n_codes=n_codes,
        code_copy=CODE_COPY,
        code_load=CODE_LOAD,
        code_store=CODE_STORE,
    )

    # Block-id tables: indexes into the activity accumulator.
    params.update(
        itlb_b=pos[blocks.ITLB],
        deco_b=pos[blocks.DECODER],
        bp_b=pos[blocks.BRANCH_PREDICTOR],
        ul2_b=pos[blocks.UL2],
    )
    front_of = [config.frontend_of_cluster(c) for c in range(ncl)]
    clusters = range(ncl)

    def per_cluster(suffix: str) -> List[int]:
        return [pos[blocks.cluster_block(c, suffix)] for c in clusters]

    int_fu = per_cluster(blocks.CLUSTER_INT_FU)
    fp_fu = per_cluster(blocks.CLUSTER_FP_FU)
    # Register-file block per bank, ``bank = cluster * 2 + reg_class``.
    rf_of_bank = [
        b
        for pair in zip(
            per_cluster(blocks.CLUSTER_INT_RF), per_cluster(blocks.CLUSTER_FP_RF)
        )
        for b in pair
    ]
    # Scheduler block per queue, ``queue = cluster * 4 + kind`` (int, fp,
    # mem, copy); the memory queue is the MOB.
    sched_of_queue = [
        b for quad in zip(
            per_cluster(blocks.CLUSTER_INT_SCHED),
            per_cluster(blocks.CLUSTER_FP_SCHED),
            per_cluster(blocks.CLUSTER_MOB),
            per_cluster(blocks.CLUSTER_COPY_SCHED),
        )
        for b in quad
    ]
    queue_kind = [
        3 if code == CODE_COPY
        else 2 if code in (CODE_LOAD, CODE_STORE)
        else 1 if code in FP_CODES
        else 0
        for code in range(n_codes)
    ]
    fu_of = [
        fp_fu[c] if code in FP_CODES else int_fu[c]
        for c in clusters
        for code in range(n_codes)
    ]
    tables = (
        _i64([pos[blocks.rob_block(f, nf)] for f in range(nf)]),
        _i64(front_of),
        _i64([pos[blocks.rat_block(front_of[c], nf)] for c in clusters]),
        _i64([pos[blocks.trace_cache_bank_block(b)] for b in range(tc.physical_banks)]),
        _i64(per_cluster(blocks.CLUSTER_DCACHE)),
        _i64(per_cluster(blocks.CLUSTER_DTLB)),
        _i64(int_fu),
        _i64(fp_fu),
        _i64(per_cluster(blocks.CLUSTER_MOB)),
        _i64(rf_of_bank),
        _i64(sched_of_queue),
        _i64(queue_kind),
        _i64(fu_of),
    )
    for table in tables:
        table.flags.writeable = False
    return NativeLayout(
        block_names,
        _i64([params[name] for name in native.PARAM_NAMES]),
        tables,
        tuple(_ptr(table) for table in tables),
    )


class FastActivity:
    """Per-block activity counters over the native core's accumulator.

    ``acc`` is the int64 buffer the C core bumps directly, in the
    processor's own block order.  The drains behave exactly like the
    reference :class:`~repro.sim.stats.ActivityCounters`.
    """

    __slots__ = ("_blocks", "_pos", "acc", "_totals", "_perm_cache")

    def __init__(self, block_names: Sequence[str]) -> None:
        self._blocks: Tuple[str, ...] = tuple(block_names)
        if len(set(self._blocks)) != len(self._blocks):
            raise ValueError("duplicate block names in activity counters")
        self._pos: Dict[str, int] = {n: i for i, n in enumerate(self._blocks)}
        self.acc = np.zeros(len(self._blocks), dtype=np.int64)
        self._totals = np.zeros(len(self._blocks), dtype=np.int64)
        self._perm_cache: Dict[Tuple[str, ...], np.ndarray] = {}

    @property
    def block_names(self) -> Tuple[str, ...]:
        return self._blocks

    def total_counts(self) -> Dict[str, int]:
        return dict(zip(self._blocks, (self._totals + self.acc).tolist()))

    def _flush(self) -> None:
        self._totals += self.acc
        self.acc[:] = 0

    def end_interval(self) -> Dict[str, int]:
        snapshot = dict(zip(self._blocks, self.acc.tolist()))
        self._flush()
        return snapshot

    def end_interval_array(self, index=None) -> np.ndarray:
        if index is None:
            out = self.acc.copy()
        else:
            names = tuple(index.names)
            perm = self._perm_cache.get(names)
            if perm is None:
                perm = np.array([self._pos.get(n, -1) for n in names], dtype=np.int64)
                self._perm_cache[names] = perm
            out = np.where(perm >= 0, self.acc[perm], 0)
        self._flush()
        return out


class FastProcessor:
    """One native-core processor state, mirrored into a Python shell.

    Exposes the slice of the reference :class:`~repro.sim.processor.Processor`
    surface the engines consume: ``config``, ``cycle``, ``stats``,
    ``activity``, ``trace_cache``, ``ul2``, ``finished``, ``run``,
    ``run_cycles`` and the fetch-gate controls.  After every ``run_cycles``
    chunk the C-side lifetime counters are copied into ``stats`` (absolute
    assignment), so everything downstream — interval drains, payloads,
    serialization — is the normal path.  Construction raises
    :class:`RuntimeError` when the core is unavailable for ``config``
    (:func:`~repro.sim.native.native_unavailable_reason` says why).
    """

    #: This processor always runs the compiled core (the reference
    #: ``Processor`` is the only other timing core).
    uses_native_core = True

    def __init__(
        self,
        config: ProcessorConfig,
        workload: Union[Sequence[MicroOp], WorkloadSpec],
    ) -> None:
        reason = native.native_unavailable_reason(config)
        if reason is not None:
            raise RuntimeError(f"the native timing core is unavailable: {reason}")
        self._lib = lib = native.load_library()
        self.config = config
        decoded, decoded_pointers = _decoded_workload(workload)
        self.decoded: DecodedWorkload = decoded
        layout = native_layout(config)
        self.cycle = 0
        self.stats = SimulationStats()
        self.activity = FastActivity(layout.block_names)
        self.fetch_gate: Optional[Tuple[int, int]] = None
        self.finished = False
        self._ncl = ncl = config.backend.num_clusters

        # The parameter vector is the layout's with this workload's length;
        # the C side copies it and the block-id tables, and borrows the
        # decoded arrays and the accumulator.
        params = layout.params.copy()
        params[_PARAM_N] = decoded.n
        self._keep = (decoded, self.activity.acc)
        self._state = lib.fp_create(
            _ptr(params), *layout.pointers, *decoded_pointers, _ptr(self.activity.acc)
        )
        if not self._state:
            raise MemoryError("native core state allocation failed")
        self._snap = np.zeros(native.S_DISP0 + ncl, dtype=np.int64)

        # The views reach back through weak proxies, so no reference cycle
        # keeps the C state (megabytes of cache tags) alive until the next
        # cyclic collection: a dropped processor frees it at once.
        mem = config.memory
        self.trace_cache = NativeTraceCache(
            self, config.frontend.trace_cache, mem.ul2_hit_latency
        )
        self.ul2 = NativeUL2(self, mem)

    def close(self) -> None:
        state, self._state = self._state, None
        if state:
            self._lib.fp_destroy(state)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Reference-compatible control surface
    # ------------------------------------------------------------------
    def prewarm_ul2(self) -> None:
        """Functionally warm the UL2 with the workload's data footprint.

        Touches every memory address of the decoded workload, then resets
        the UL2 hit/miss counters — the warm-up is functional only.  The
        engine calls this instead of its generic per-uop loop.
        """
        mem_addr = self.decoded.mem_addr
        arr = mem_addr[mem_addr >= 0]
        if len(arr):
            self._lib.fp_ul2_warm(self._state, _ptr(arr), len(arr))
        self._lib.fp_ul2_reset_stats(self._state)

    def set_fetch_gate(self, on_cycles: int, period: int) -> None:
        if period <= 0 or not 1 <= on_cycles <= period:
            raise ValueError("fetch gate needs 1 <= on_cycles <= period")
        self.fetch_gate = (on_cycles, period) if on_cycles < period else None

    def clear_fetch_gate(self) -> None:
        self.fetch_gate = None

    def run_cycles(self, cycles: int) -> bool:
        self._run_to(self.cycle + cycles)
        return self.finished

    def run(self, max_cycles: Optional[int] = None) -> int:
        while not self.finished:
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            self._run_to(
                max_cycles if max_cycles is not None else self.cycle + 1_000_000
            )
        return self.cycle

    # ------------------------------------------------------------------
    def _run_to(self, target: int) -> None:
        on, period = self.fetch_gate or (0, 0)
        rc = self._lib.fp_run_to(self._state, target, on, period)
        snap = self._sync()
        if rc == 1:
            old_cycle = int(snap[native.S_CYCLE]) - 1
            raise SimulationDeadlockError(
                f"no commit for {old_cycle - int(snap[native.S_LAST_COMMIT])} cycles "
                f"at cycle {old_cycle}; ROB occupancy {int(snap[native.S_DL_OCC])}, "
                f"rename queue {int(snap[native.S_DL_RQ])}"
            )
        if rc == 2:  # pragma: no cover - internal invariant violation
            raise RuntimeError("native core exhausted an internal pool")

    def counter(self, slot: int) -> int:
        """One C-side counter (a :mod:`repro.sim.native` ``S_*`` slot)."""
        self._lib.fp_stats(self._state, _ptr(self._snap))
        return int(self._snap[slot])

    def _sync(self) -> np.ndarray:
        snap = self._snap
        self._lib.fp_stats(self._state, _ptr(snap))
        values = snap.tolist()
        st = self.stats
        for field, slot in native.STAT_SLOTS:
            setattr(st, field, values[slot])
        disp = st.dispatched_per_cluster
        for c in range(self._ncl):
            if values[native.S_DISP0 + c]:
                disp[c] = values[native.S_DISP0 + c]
        self.cycle = values[native.S_CYCLE]
        self.finished = bool(values[native.S_FINISHED])
        return snap


class NativeTraceCache:
    """Control/introspection view over the C-side trace cache.

    Gating and remap *decisions* (validation, share layout, the mapping
    table itself) stay in Python — this class reuses the reference
    :class:`~repro.core.thermal_mapping.BankMappingTable` verbatim and
    pushes the resulting entry array down; the C side only stores lines and
    counts hits, misses and hop flushes.
    """

    TRACE_BUILD_OVERHEAD = TraceCache.TRACE_BUILD_OVERHEAD

    def __init__(
        self, core: FastProcessor, config: TraceCacheConfig, ul2_hit_latency: int
    ) -> None:
        self._core = weakref.proxy(core)
        self.config = config
        self.ul2_hit_latency = ul2_hit_latency
        self._gated = [False] * config.physical_banks
        self.mapping = BankMappingTable(
            config.mapping_table_entries, list(range(config.physical_banks))
        )
        self._push_map()

    def _push_map(self) -> None:
        arr = _i64(self.mapping.entries)
        self._core._lib.fp_tc_set_map(self._core._state, _ptr(arr), len(arr))

    # -- gating / mapping control --------------------------------------
    def set_enabled_banks(self, enabled_banks: Sequence[int]) -> None:
        enabled = set(enabled_banks)
        if not enabled:
            raise ValueError("at least one bank must stay enabled")
        gated = [i not in enabled for i in range(self.config.physical_banks)]
        arr = _i64(gated)
        self._core._lib.fp_tc_set_gated(self._core._state, _ptr(arr), len(arr))
        self._gated = gated

    def enabled_banks(self) -> List[int]:
        return [i for i, g in enumerate(self._gated) if not g]

    def gated_banks(self) -> List[int]:
        return [i for i, g in enumerate(self._gated) if g]

    def set_mapping_shares(self, shares: Dict[int, int]) -> None:
        for bank in shares:
            if not 0 <= bank < self.config.physical_banks:
                raise ValueError(f"bank {bank} out of range")
            if self._gated[bank] and shares[bank] > 0:
                raise ValueError(f"cannot map accesses to gated bank {bank}")
        self.mapping.set_assignment(shares)
        self._push_map()

    def set_balanced_mapping(self) -> None:
        self.mapping.set_balanced(self.enabled_banks())
        self._push_map()

    def bank_for(self, head_pc: int) -> int:
        return self.mapping.bank_for(head_pc)

    def accesses_per_bank_share(self) -> Dict[int, float]:
        """Fraction of mapping-table entries pointing at each bank."""
        return self.mapping.bank_shares(self.config.physical_banks)

    # -- counters -------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._core.counter(native.S_TC_HITS)

    @property
    def misses(self) -> int:
        return self._core.counter(native.S_TC_MISSES)

    @property
    def insertions(self) -> int:
        return self._core.counter(native.S_TC_INSERTIONS)

    @property
    def hop_flushes(self) -> int:
        return self._core.counter(native.S_TC_HOPFLUSH)

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0


class NativeUL2:
    """Access/counter view over the C-side UL2 model."""

    def __init__(self, core: FastProcessor, config: MemoryConfig) -> None:
        self._core = weakref.proxy(core)
        self.config = config
        self.line_bytes = config.line_bytes
        self.associativity = config.ul2_associativity
        capacity_bytes = config.ul2_kb * 1024
        self.num_sets = max(1, capacity_bytes // (self.line_bytes * self.associativity))
        # Counter setters (the engine resets stats after pre-warming) are
        # implemented as offsets against the monotonic C-side counters.
        self._hits_base = 0
        self._misses_base = 0
        self._extra_miss_latency = 0

    def access(self, address: int) -> int:
        return int(self._core._lib.fp_ul2_access(self._core._state, address))

    @property
    def extra_miss_latency(self) -> int:
        """Cycles added to every miss (the chip contention actuator)."""
        return self._extra_miss_latency

    @extra_miss_latency.setter
    def extra_miss_latency(self, cycles: int) -> None:
        self._core._lib.fp_ul2_set_extra_miss(self._core._state, cycles)
        self._extra_miss_latency = cycles

    @property
    def hits(self) -> int:
        return self._core.counter(native.S_UL2C_HITS) - self._hits_base

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits_base = self._core.counter(native.S_UL2C_HITS) - value

    @property
    def misses(self) -> int:
        return self._core.counter(native.S_UL2C_MISSES) - self._misses_base

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses_base = self._core.counter(native.S_UL2C_MISSES) - value

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0


class FastTimingStage(TimingStage):
    """:class:`~repro.sim.engine.TimingStage` running a :class:`FastProcessor`.

    Only constructible over a whole workload — a
    :class:`~repro.workloads.generator.WorkloadSpec`, decoded natively, or a
    materialized uop sequence, batch-decoded — since the core takes every
    uop up front.  Streaming sources must use the reference stage (the
    engine's ``timing_mode="auto"`` does this automatically).
    """

    def _build_processor(self, config: ProcessorConfig, uop_source) -> FastProcessor:
        if not isinstance(uop_source, (Sequence, WorkloadSpec)):
            raise ValueError(
                "FastTimingStage needs a materialized uop sequence or a "
                "WorkloadSpec; streaming sources must use the reference TimingStage"
            )
        processor = FastProcessor(config, uop_source)
        self._prewarm_source = processor.decoded
        return processor
