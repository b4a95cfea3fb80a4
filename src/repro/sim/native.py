"""Runtime-compiled native backend for the fast timing path.

The fast interval loop in :mod:`repro.sim.fast_timing` is CPython-bound:
profiling shows its per-cycle sections sit within a small factor of the
interpreter's bytecode floor.  To push the throughput an order of magnitude
further, this module compiles :file:`_native_core.c` — a transcription of
that loop, including the cache models — with the system C compiler at first
use, caches the shared object keyed by the source hash, and drives it
through :mod:`ctypes`.

The backend is strictly optional and strictly equivalent:

* if no C compiler is available, compilation fails, or ``REPRO_NATIVE=0``
  is set, :class:`~repro.sim.fast_timing.FastProcessor` silently keeps its
  pure-Python loop — same results, slower;
* the byte-equivalence suite runs the same scenarios with the backend
  enabled and disabled, so the C core is held to the identical contract as
  the Python loop: byte-identical activity traces and equal stats payloads
  against the reference per-uop processor.

Scope: non-distributed frontends (the Python loop serves distributed
configurations), open- and closed-loop alike.  All steering policies are
supported, and so is every control the engines apply between intervals:
fetch gates (DTM duty, DVFS), trace-cache bank gating and remapping
(thermal-aware included) and the UL2's extra miss latency (the chip
contention actuator).  Bank-mapping *control* (share validation, entry
layout) stays in Python and pushes plain entry arrays down.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.thermal_mapping import BankMappingTable
from repro.frontend.trace_cache import TraceCache
from repro.sim.config import (
    MemoryConfig,
    ProcessorConfig,
    SteeringPolicy,
    TraceCacheConfig,
)
from repro.sim.processor import SimulationDeadlockError

#: Must match FP_ABI in ``_native_core.c``; a mismatched cached .so is
#: recompiled, never used.
NATIVE_ABI = 6

_SOURCE = Path(__file__).with_name("_native_core.c")

_POLICY_CODES = {
    SteeringPolicy.DEPENDENCE: 0,
    SteeringPolicy.ROUND_ROBIN: 1,
    SteeringPolicy.LOAD_BALANCE: 2,
}

# Parameter-vector slots, in the exact order of the C enum.
_PARAM_NAMES = (
    "n", "n_lines", "ncl", "nf", "n_blocks",
    "fwidth", "dwidth", "cwidth", "iwidth", "displat",
    "presched_cap", "mp_penalty", "fbuf", "deadlock", "ready_off",
    "ul2_hit", "ul2_miss", "dc_hit", "commit_lag", "rob_cap",
    "qcap0", "qcap1", "qcap2", "qcap3", "mob_cap",
    "int_regs", "fp_regs", "reg_bits", "policy",
    "n_buses", "bus_arb", "bus_xfer", "n_links", "p2p_hop",
    "tc_banks", "tc_sets", "tc_assoc", "tc_map_entries", "tc_build_ovh",
    "ul2_sets", "ul2_assoc", "ul2_line_bytes",
    "dl1_sets", "dl1_assoc", "dl1_line_bytes",
    "num_int_arch", "arch_total", "n_codes",
    "code_copy", "code_load", "code_store",
    "itlb_b", "deco_b", "bp_b", "ul2_b",
)

# Stats-snapshot slots, in the exact order of the C enum; the per-cluster
# dispatch counts follow "disp0".
(
    S_CYCLE, S_FETCHED, S_COMMITTED, S_CCOPIES, S_COPYG, S_COPYREQ,
    S_BRANCHES, S_MISPRED, S_DHITS, S_DMISS, S_UL2H, S_UL2M,
    S_RSTALL, S_ROBSTALL, S_FSTALL,
    S_TC_HITS, S_TC_MISSES, S_TC_INSERTIONS, S_TC_HOPFLUSH,
    S_UL2C_HITS, S_UL2C_MISSES,
    S_FINISHED, S_LAST_COMMIT, S_DL_OCC, S_DL_RQ,
    S_DISP0,
) = range(26)


def native_disabled() -> bool:
    """True when the ``REPRO_NATIVE`` environment kill-switch is set."""
    return os.environ.get("REPRO_NATIVE", "").strip().lower() in (
        "0", "off", "no", "false",
    )


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-native"


_lib: object = False  # False = not tried, None = unavailable, else CDLL


def _configure(lib: ctypes.CDLL) -> None:
    ptr = ctypes.c_void_p
    i64 = ctypes.c_longlong
    lib.fp_abi.restype = i64
    lib.fp_abi.argtypes = []
    lib.fp_param_count.restype = i64
    lib.fp_param_count.argtypes = []
    lib.fp_create.restype = ptr
    lib.fp_create.argtypes = [ptr] * 29
    lib.fp_destroy.restype = None
    lib.fp_destroy.argtypes = [ptr]
    lib.fp_run_to.restype = i64
    lib.fp_run_to.argtypes = [ptr, i64, i64, i64]
    lib.fp_stats.restype = None
    lib.fp_stats.argtypes = [ptr, ptr]
    lib.fp_tc_set_gated.restype = None
    lib.fp_tc_set_gated.argtypes = [ptr, ptr, i64]
    lib.fp_tc_set_map.restype = None
    lib.fp_tc_set_map.argtypes = [ptr, ptr, i64]
    lib.fp_ul2_access.restype = i64
    lib.fp_ul2_access.argtypes = [ptr, i64]
    lib.fp_ul2_warm.restype = None
    lib.fp_ul2_warm.argtypes = [ptr, ptr, i64]
    lib.fp_ul2_reset_stats.restype = None
    lib.fp_ul2_reset_stats.argtypes = [ptr]
    lib.fp_ul2_set_extra_miss.restype = None
    lib.fp_ul2_set_extra_miss.argtypes = [ptr, i64]


def load_library() -> Optional[ctypes.CDLL]:
    """Compile (once, cached) and load the native core; None if unavailable."""
    global _lib
    if _lib is not False:
        return _lib  # type: ignore[return-value]
    _lib = None
    if native_disabled():
        return None
    cc = _compiler()
    if cc is None or not _SOURCE.exists():
        return None
    try:
        source = _SOURCE.read_bytes()
        tag = hashlib.sha256(
            source + f"|abi={NATIVE_ABI}".encode()
        ).hexdigest()[:16]
        cache = _cache_dir()
        so_path = cache / f"repro_core_{tag}.so"
        if not so_path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
            os.close(fd)
            try:
                subprocess.run(
                    [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(_SOURCE)],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp, so_path)  # atomic: racing builders converge
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(so_path))
        _configure(lib)
        if lib.fp_abi() != NATIVE_ABI or lib.fp_param_count() != len(_PARAM_NAMES):
            return None
        _lib = lib
        return lib
    except (OSError, subprocess.SubprocessError):
        return None


def native_unavailable_reason(config: ProcessorConfig) -> Optional[str]:
    """Why this configuration cannot use the native core (None = it can)."""
    if native_disabled():
        return "native core disabled via REPRO_NATIVE"
    if config.frontend.is_distributed:
        return "distributed frontends use the Python fast loop"
    if config.backend.num_clusters > 8:
        return "native core supports at most 8 clusters"
    if config.steering_policy not in _POLICY_CODES:
        return f"unsupported steering policy {config.steering_policy!r}"
    return None


def try_create_backend(processor) -> Optional["NativeBackend"]:
    """Backend for a :class:`FastProcessor`, or None (ineligible/unbuildable)."""
    if native_unavailable_reason(processor.config) is not None:
        return None
    lib = load_library()
    if lib is None:
        return None
    return NativeBackend(lib, processor)


def _i64(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.int64))


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


class NativeBackend:
    """Owns one C-side processor state and mirrors it into the Python shell.

    After every ``run_to`` chunk the C counters are drained into the
    processor's :class:`~repro.sim.fast_timing.FastActivity` accumulator and
    its :class:`~repro.sim.stats.SimulationStats` (absolute assignment: the
    C side holds the lifetime totals), so everything downstream — interval
    drains, payloads, serialization — is byte-for-byte the normal path.
    """

    def __init__(self, lib: ctypes.CDLL, processor) -> None:
        self._lib = lib
        self._proc = processor
        config = processor.config
        fe = config.frontend
        be = config.backend
        ic = config.interconnect
        mem = config.memory
        tc = fe.trace_cache
        decoded = processor.decoded
        self._ncl = ncl = be.num_clusters
        n_blocks = len(processor.activity.block_names)
        lines = decoded.lines(tc.line_uops, fe.fetch_width)
        reg_bits = (max(be.int_registers, be.fp_registers) - 1).bit_length()
        ul2_sets = max(1, mem.ul2_kb * 1024 // (mem.line_bytes * mem.ul2_associativity))
        dl1_sets = max(
            1, be.dcache_kb * 1024 // (be.dcache_line_bytes * be.dcache_associativity)
        )
        from repro.workloads.decode import (
            CODE_COPY,
            CODE_LOAD,
            CODE_STORE,
            UOP_CLASS_CODES,
        )

        n_codes = len(UOP_CLASS_CODES)
        params = dict(
            n=decoded.n,
            n_lines=len(lines),
            ncl=ncl,
            nf=fe.num_frontends,
            n_blocks=n_blocks,
            fwidth=fe.fetch_width,
            dwidth=fe.dispatch_width,
            cwidth=fe.commit_width,
            iwidth=be.issue_width_per_queue,
            displat=be.dispatch_latency,
            presched_cap=be.prescheduler_entries * 4,
            mp_penalty=fe.misprediction_penalty,
            fbuf=processor._FRONTEND_BUFFER_LIMIT,
            deadlock=processor._DEADLOCK_THRESHOLD,
            ready_off=processor._ready_offset,
            ul2_hit=mem.ul2_hit_latency,
            ul2_miss=mem.ul2_miss_latency,
            dc_hit=be.dcache_hit_latency,
            commit_lag=1,
            rob_cap=fe.rob_entries,
            qcap0=be.int_queue_entries,
            qcap1=be.fp_queue_entries,
            qcap2=be.mem_queue_entries,
            qcap3=be.copy_queue_entries,
            mob_cap=be.mem_queue_entries,
            int_regs=be.int_registers,
            fp_regs=be.fp_registers,
            reg_bits=reg_bits,
            policy=_POLICY_CODES[config.steering_policy],
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
            ul2_sets=ul2_sets,
            ul2_assoc=mem.ul2_associativity,
            ul2_line_bytes=mem.line_bytes,
            dl1_sets=dl1_sets,
            dl1_assoc=be.dcache_associativity,
            dl1_line_bytes=be.dcache_line_bytes,
            num_int_arch=processor.registers.num_int,
            arch_total=processor.registers.total,
            n_codes=n_codes,
            code_copy=CODE_COPY,
            code_load=CODE_LOAD,
            code_store=CODE_STORE,
            itlb_b=processor._ITLB_B,
            deco_b=processor._DECO_B,
            bp_b=processor._BP_B,
            ul2_b=processor._UL2_B,
        )
        param_arr = _i64([params[name] for name in _PARAM_NAMES])

        fu_flat = [
            processor._FU_B[c][code] for c in range(ncl) for code in range(n_codes)
        ]
        arrays = [
            param_arr,
            _i64(processor._ROB_B),
            _i64(processor._FRONT_OF),
            _i64(processor._RAT_B),
            _i64(processor._TC_B),
            _i64(processor._DL1_B),
            _i64(processor._DTLB_B),
            _i64(processor._IFU_B),
            _i64(processor._FPFU_B),
            _i64(processor._MOB_B),
            _i64(processor._RFB_OF),
            _i64(processor._SCHED_FLAT),
            _i64(processor._QSEL),
            _i64(fu_flat),
            _i64(decoded.cls_list),
            _i64(decoded.latency_list),
            _i64(decoded.mem_addr_list),
            _i64(decoded.is_branch_list),
            _i64(decoded.mispredicted_list),
            _i64(decoded.dest_flat_list),
            _i64(decoded.source_flats),
            _i64(decoded.int_needed_list),
            _i64(decoded.fp_needed_list),
            _i64([line[0] for line in lines]),
            _i64([line[1] for line in lines]),
            _i64([line[2] for line in lines]),
            _i64([line[3] for line in lines]),
            _i64([1 if line[4] else 0 for line in lines]),
        ]
        self._acc_buf = np.zeros(n_blocks, dtype=np.int64)
        arrays.append(self._acc_buf)
        self._keep = arrays  # the C side borrows these buffers
        self._state = lib.fp_create(*[_ptr(a) for a in arrays])
        if not self._state:
            raise MemoryError("native core state allocation failed")
        self._snap = np.zeros(S_DISP0 + ncl, dtype=np.int64)
        self.finished = False

        self.trace_cache = NativeTraceCache(self, tc, mem.ul2_hit_latency)
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
    def run_to(self, target: int) -> None:
        gate = self._proc.fetch_gate
        on, period = gate if gate is not None else (0, 0)
        rc = self._lib.fp_run_to(self._state, target, on, period)
        self._sync()
        if rc == 1:
            snap = self._snap
            old_cycle = int(snap[S_CYCLE]) - 1
            raise SimulationDeadlockError(
                f"no commit for {old_cycle - int(snap[S_LAST_COMMIT])} cycles "
                f"at cycle {old_cycle}; ROB occupancy {int(snap[S_DL_OCC])}, "
                f"rename queue {int(snap[S_DL_RQ])}"
            )
        if rc == 2:  # pragma: no cover - internal invariant violation
            raise RuntimeError("native core exhausted an internal pool")

    def _refresh_snapshot(self) -> np.ndarray:
        self._lib.fp_stats(self._state, _ptr(self._snap))
        return self._snap

    def counter(self, slot: int) -> int:
        return int(self._refresh_snapshot()[slot])

    def _sync(self) -> None:
        snap = self._refresh_snapshot()
        proc = self._proc
        buf = self._acc_buf
        if buf.any():
            acc = proc.activity.acc
            for i, value in enumerate(buf.tolist()):
                if value:
                    acc[i] += value
            buf[:] = 0
        st = proc.stats
        st.cycles = int(snap[S_CYCLE])
        st.fetched_uops = int(snap[S_FETCHED])
        st.committed_uops = int(snap[S_COMMITTED])
        st.committed_copies = int(snap[S_CCOPIES])
        st.copy_uops_generated = int(snap[S_COPYG])
        st.copy_requests_between_frontends = int(snap[S_COPYREQ])
        st.branches = int(snap[S_BRANCHES])
        st.mispredicted_branches = int(snap[S_MISPRED])
        st.dcache_hits = int(snap[S_DHITS])
        st.dcache_misses = int(snap[S_DMISS])
        st.ul2_hits = int(snap[S_UL2H])
        st.ul2_misses = int(snap[S_UL2M])
        st.rename_stall_cycles = int(snap[S_RSTALL])
        st.rob_full_stall_cycles = int(snap[S_ROBSTALL])
        st.fetch_stall_cycles = int(snap[S_FSTALL])
        st.trace_cache_hits = int(snap[S_TC_HITS])
        st.trace_cache_misses = int(snap[S_TC_MISSES])
        disp = st.dispatched_per_cluster
        for c in range(self._ncl):
            value = int(snap[S_DISP0 + c])
            if value:
                disp[c] = value
        proc.cycle = int(snap[S_CYCLE])
        self.finished = bool(snap[S_FINISHED])

    # ------------------------------------------------------------------
    # Cache control plumbing (called by the views)
    # ------------------------------------------------------------------
    def tc_set_gated(self, gated: Sequence[bool]) -> None:
        arr = _i64([1 if g else 0 for g in gated])
        self._lib.fp_tc_set_gated(self._state, _ptr(arr), len(gated))

    def tc_set_map(self, entries: Sequence[int]) -> None:
        arr = _i64(entries)
        self._lib.fp_tc_set_map(self._state, _ptr(arr), len(arr))

    def ul2_access(self, address: int) -> int:
        return int(self._lib.fp_ul2_access(self._state, address))

    def ul2_set_extra_miss(self, cycles: int) -> None:
        self._lib.fp_ul2_set_extra_miss(self._state, cycles)

    def warm_ul2(self, addresses: Sequence[int]) -> None:
        arr = _i64(addresses)
        if len(arr):
            self._lib.fp_ul2_warm(self._state, _ptr(arr), len(arr))
        self._lib.fp_ul2_reset_stats(self._state)


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
        self, backend: NativeBackend, config: TraceCacheConfig, ul2_hit_latency: int
    ) -> None:
        self._backend = backend
        self.config = config
        self.ul2_hit_latency = ul2_hit_latency
        self._gated = [False] * config.physical_banks
        self.mapping = BankMappingTable(
            config.mapping_table_entries, list(range(config.physical_banks))
        )
        backend.tc_set_map(self.mapping.entries)

    # -- gating / mapping control --------------------------------------
    def set_enabled_banks(self, enabled_banks: Sequence[int]) -> None:
        enabled = set(enabled_banks)
        if not enabled:
            raise ValueError("at least one bank must stay enabled")
        gated = [i not in enabled for i in range(self.config.physical_banks)]
        self._backend.tc_set_gated(gated)
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
        self._backend.tc_set_map(self.mapping.entries)

    def set_balanced_mapping(self) -> None:
        self.mapping.set_balanced(self.enabled_banks())
        self._backend.tc_set_map(self.mapping.entries)

    def bank_for(self, head_pc: int) -> int:
        return self.mapping.bank_for(head_pc)

    def accesses_per_bank_share(self) -> Dict[int, float]:
        """Fraction of mapping-table entries pointing at each bank."""
        return self.mapping.bank_shares(self.config.physical_banks)

    # -- counters -------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._backend.counter(S_TC_HITS)

    @property
    def misses(self) -> int:
        return self._backend.counter(S_TC_MISSES)

    @property
    def insertions(self) -> int:
        return self._backend.counter(S_TC_INSERTIONS)

    @property
    def hop_flushes(self) -> int:
        return self._backend.counter(S_TC_HOPFLUSH)

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0


class NativeUL2:
    """Access/counter view over the C-side UL2 model."""

    def __init__(self, backend: NativeBackend, config: MemoryConfig) -> None:
        self._backend = backend
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
        return self._backend.ul2_access(address)

    @property
    def extra_miss_latency(self) -> int:
        """Cycles added to every miss (the chip contention actuator)."""
        return self._extra_miss_latency

    @extra_miss_latency.setter
    def extra_miss_latency(self, cycles: int) -> None:
        self._backend.ul2_set_extra_miss(cycles)
        self._extra_miss_latency = cycles

    @property
    def hits(self) -> int:
        return self._backend.counter(S_UL2C_HITS) - self._hits_base

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits_base = self._backend.counter(S_UL2C_HITS) - value

    @property
    def misses(self) -> int:
        return self._backend.counter(S_UL2C_MISSES) - self._misses_base

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses_base = self._backend.counter(S_UL2C_MISSES) - value

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0
