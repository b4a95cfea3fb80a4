"""Runtime-compiled native timing core.

This module compiles :file:`_native_core.c` with the system C compiler at
first use, caches the shared object keyed by the source hash and ABI
version, and loads it through :mod:`ctypes`.
:class:`~repro.sim.fast_timing.FastProcessor` drives the loaded core; the
parameter-vector and stats-snapshot layouts below mirror the C enums.

The core covers every configuration the engines build — every preset,
centralized or distributed frontends, all steering policies, open- and
closed-loop alike — except dies of more than 8 clusters.  It is optional,
never required: when ``REPRO_NATIVE=0`` is set, no C compiler is found, the
build or load fails, or the die is too wide,
:func:`native_unavailable_reason` says why, and the engines'
``timing_mode="auto"`` runs the per-uop reference
:class:`~repro.sim.processor.Processor` instead, recording that reason in
``timing_fallback_reason``.  The outputs are identical; only the speed
differs (about 14k uops/s on the reference loop against about 290k on the
native core).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

from repro.sim.config import ProcessorConfig, SteeringPolicy

#: Must match FP_ABI in ``_native_core.c``; a mismatched cached .so is
#: recompiled, never used.
NATIVE_ABI = 7

_SOURCE = Path(__file__).with_name("_native_core.c")

POLICY_CODES = {
    SteeringPolicy.DEPENDENCE: 0,
    SteeringPolicy.ROUND_ROBIN: 1,
    SteeringPolicy.LOAD_BALANCE: 2,
}

# Parameter-vector slots, in the exact order of the C enum.
PARAM_NAMES = (
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

#: ``SimulationStats`` fields copied from the snapshot after every run chunk.
STAT_SLOTS = (
    ("cycles", S_CYCLE),
    ("fetched_uops", S_FETCHED),
    ("committed_uops", S_COMMITTED),
    ("committed_copies", S_CCOPIES),
    ("copy_uops_generated", S_COPYG),
    ("copy_requests_between_frontends", S_COPYREQ),
    ("branches", S_BRANCHES),
    ("mispredicted_branches", S_MISPRED),
    ("dcache_hits", S_DHITS),
    ("dcache_misses", S_DMISS),
    ("ul2_hits", S_UL2H),
    ("ul2_misses", S_UL2M),
    ("rename_stall_cycles", S_RSTALL),
    ("rob_full_stall_cycles", S_ROBSTALL),
    ("fetch_stall_cycles", S_FSTALL),
    ("trace_cache_hits", S_TC_HITS),
    ("trace_cache_misses", S_TC_MISSES),
)


def native_disabled() -> bool:
    """True when ``REPRO_NATIVE`` asks for the reference timing path."""
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
    if native_disabled():
        return None
    if _lib is not False:
        return _lib  # type: ignore[return-value]
    _lib = None
    cc = _compiler()
    if cc is None:
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
        if lib.fp_abi() != NATIVE_ABI or lib.fp_param_count() != len(PARAM_NAMES):
            return None
        _lib = lib
        return lib
    except (OSError, subprocess.SubprocessError):
        return None


def native_unavailable_reason(config: ProcessorConfig) -> Optional[str]:
    """Why this configuration cannot run on the native core (None = it can).

    Checks, in order: the ``REPRO_NATIVE`` switch, the core's cluster limit
    and whether the library builds and loads on this host.
    """
    if native_disabled():
        return "REPRO_NATIVE requests the reference timing path"
    if config.backend.num_clusters > 8:
        return "the native core supports at most 8 clusters"
    if load_library() is None:
        if _compiler() is None:
            return "no C compiler found to build the native core"
        return "the native core failed to build or load"
    return None
