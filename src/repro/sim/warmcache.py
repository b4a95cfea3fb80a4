"""Worker-resident warm cache: prepare once, replay many.

A physics replay spends a surprising share of its wall clock *before* the
first interval is solved: building the RC network, LU-factorizing the
:class:`~repro.thermal.solver.ThermalSolver`, and decoding the captured
:class:`~repro.sim.activity_trace.ActivityTrace` from its compressed binary
form.  All three are pure functions of immutable inputs, so a long-lived
worker (a persistent :class:`~repro.service.pool.WorkerPool` child, a
:class:`~repro.campaign.executors.ParallelExecutor` pool process, or the
serial path itself) can pay them once and reuse the products across every
task it runs.  This module is that reuse point:

* **Solver bundles** — ``(ThermalRCNetwork, ThermalSolver)`` pairs in a
  bounded LRU keyed by the floorplan geometry + thermal config + solver
  backend/ordering (a strict refinement of
  :func:`~repro.sim.group_replay.thermal_group_key`, which keys on block
  areas only).  The solver's own ``_propagator_cache`` / ``_affine_cache``
  ride along, so a warm hit also skips the per-``dt`` propagator work.
* **Die layouts** — :func:`core_layout`, each single-core die's block
  power parameters, floorplan and block groups, memoized on the
  configuration without the name, power and thermal sections none of them
  reads, so the cells of a physics sweep lay out their die once.
* **Decoded traces** — ``ActivityTrace`` objects in a bounded LRU keyed by
  the trace cache key (the :meth:`~repro.campaign.spec.RunSpec.timing_key`),
  so sibling replay tasks over the same trace decode it once per worker.
* **Zero-copy transport** — :class:`TraceRef`, a tiny picklable handle that
  ships *where the bytes live* (a ``*.trace.bin`` cache artifact to mmap, or
  a ``multiprocessing.shared_memory`` segment) instead of the bytes
  themselves, feeding the registry above on first resolve.

Reuse never changes results: a cached solver holds factorizations and
propagators, not run state, and an identical factorization produces an
identical solve — the replay outputs stay byte-identical to a cold run
(locked by the service equivalence tests).  The whole cache can be disabled
with ``REPRO_WARM_CACHE=0``; like the timing/replay mode knobs it is an
*execution* knob and deliberately not part of any cache key.

Layering: this lives in :mod:`repro.sim` (below the campaign and service
layers) so :class:`~repro.sim.engine.PhysicsStage` and
:mod:`~repro.sim.group_replay` can consult it without upward imports;
:mod:`repro.service.warmcache` re-exports it for the service runtime.
"""

from __future__ import annotations

import dataclasses
import functools
import mmap
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.power.energy import build_block_parameters
from repro.sim import blocks
from repro.sim.activity_trace import ActivityTrace
from repro.sim.config import PowerConfig, ProcessorConfig, ThermalConfig
from repro.sim.serialization import content_key
from repro.thermal.floorplan import build_floorplan
from repro.thermal.rc_model import ThermalRCNetwork
from repro.thermal.solver import ThermalSolver

#: Execution knob: set to ``0``/``false``/``off`` to disable all warm reuse
#: (every stage build factorizes fresh, every TraceRef decode is cold).
#: Deliberately NOT part of any cache key — it cannot change results.
WARM_CACHE_ENV = "REPRO_WARM_CACHE"

#: Bounds for the two LRUs (overridable via environment for experiments).
WARM_SOLVER_ENTRIES_ENV = "REPRO_WARM_SOLVERS"
WARM_TRACE_ENTRIES_ENV = "REPRO_WARM_TRACES"
DEFAULT_SOLVER_ENTRIES = 8
DEFAULT_TRACE_ENTRIES = 4

_FALSE_VALUES = ("0", "false", "off", "no")


def warm_cache_enabled() -> bool:
    """Whether warm reuse is on (default) — reads ``REPRO_WARM_CACHE``."""
    return os.environ.get(WARM_CACHE_ENV, "1").strip().lower() not in _FALSE_VALUES


def _env_bound(name: str, default: int) -> int:
    try:
        value = int(os.environ.get(name, ""))
    except ValueError:
        return default
    return max(1, value)


def solver_key(floorplan, thermal_config, backend: str, ordering: str) -> str:
    """Content key of one solver bundle.

    Everything :class:`~repro.thermal.rc_model.ThermalRCNetwork` and
    :class:`~repro.thermal.solver.ThermalSolver` read participates: the full
    block geometry (names, positions, dimensions, in node order), every
    thermal-config field, and the requested backend/ordering.  Two cells
    that differ only on the power side therefore share one bundle — the
    same sharing unit as
    :func:`~repro.sim.group_replay.thermal_group_key`, refined from block
    areas to exact geometry.  The encoding and hash are memoized on that
    content, so a sweep pays them once per distinct die, not once per cell.
    """
    geometry = tuple(
        (block.name, block.x, block.y, block.width, block.height)
        for block in floorplan.blocks()
    )
    return _solver_key(geometry, thermal_config, backend, ordering)


@functools.lru_cache(maxsize=64)
def _solver_key(geometry, thermal_config, backend: str, ordering: str) -> str:
    material = {
        "thermal": dataclasses.asdict(thermal_config),
        "blocks": geometry,
        "backend": backend,
        "ordering": ordering,
    }
    return content_key(material)


def core_layout(config: ProcessorConfig):
    """``(block parameters, floorplan, block groups)`` of a single-core die.

    None of the three reads the configuration's name, power or thermal
    section, so they are memoized per process on the rest of it: every cell
    of a physics sweep shares one layout.  The returned mappings are shared;
    callers copy what they keep.  ``REPRO_WARM_CACHE=0`` builds fresh.
    """
    if not warm_cache_enabled():
        return _build_core_layout(config)
    return _core_layout(
        dataclasses.replace(config, name="", power=_LAYOUT_POWER, thermal=_LAYOUT_THERMAL)
    )


_LAYOUT_POWER = PowerConfig()
_LAYOUT_THERMAL = ThermalConfig()


def _build_core_layout(config: ProcessorConfig):
    parameters = build_block_parameters(config)
    areas = {name: params.area_mm2 for name, params in parameters.items()}
    return parameters, build_floorplan(config, areas), blocks.block_groups(config)


_core_layout = functools.lru_cache(maxsize=32)(_build_core_layout)


class WarmCache:
    """Two bounded LRUs (solver bundles, decoded traces) with hit counters.

    Thread-safe: the service's thread-mode pool replays concurrently from
    several threads, so every structure mutation happens under one lock.
    The cached objects themselves are safe to share — solvers hold
    factorizations (read-only at solve time) and traces are frozen.
    """

    def __init__(
        self,
        max_solvers: Optional[int] = None,
        max_traces: Optional[int] = None,
    ) -> None:
        self.max_solvers = max_solvers or _env_bound(
            WARM_SOLVER_ENTRIES_ENV, DEFAULT_SOLVER_ENTRIES
        )
        self.max_traces = max_traces or _env_bound(
            WARM_TRACE_ENTRIES_ENV, DEFAULT_TRACE_ENTRIES
        )
        self._lock = threading.Lock()
        self._solvers: "OrderedDict[str, Tuple[ThermalRCNetwork, ThermalSolver]]" = (
            OrderedDict()
        )
        self._traces: "OrderedDict[str, ActivityTrace]" = OrderedDict()
        self.solver_hits = 0
        self.solver_misses = 0
        self.trace_hits = 0
        self.trace_misses = 0

    # -- solver bundles ------------------------------------------------
    def get_solver(self, key: str):
        with self._lock:
            bundle = self._solvers.get(key)
            if bundle is not None:
                self._solvers.move_to_end(key)
                self.solver_hits += 1
            return bundle

    def put_solver(self, key: str, bundle) -> None:
        with self._lock:
            self.solver_misses += 1
            self._solvers[key] = bundle
            self._solvers.move_to_end(key)
            while len(self._solvers) > self.max_solvers:
                self._solvers.popitem(last=False)

    # -- decoded traces ------------------------------------------------
    def get_trace(self, key: str) -> Optional[ActivityTrace]:
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                self._traces.move_to_end(key)
                self.trace_hits += 1
            return trace

    def put_trace(self, key: str, trace: ActivityTrace) -> None:
        with self._lock:
            self.trace_misses += 1
            self._traces[key] = trace
            self._traces.move_to_end(key)
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)

    # -- observability -------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Cumulative counters only — summable across workers by the pool."""
        with self._lock:
            return {
                "solver_hits": self.solver_hits,
                "solver_misses": self.solver_misses,
                "trace_hits": self.trace_hits,
                "trace_misses": self.trace_misses,
            }

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "solvers_cached": len(self._solvers),
                "traces_cached": len(self._traces),
                "max_solvers": self.max_solvers,
                "max_traces": self.max_traces,
            }

    def clear(self) -> None:
        with self._lock:
            self._solvers.clear()
            self._traces.clear()
            self.solver_hits = 0
            self.solver_misses = 0
            self.trace_hits = 0
            self.trace_misses = 0


_CACHE = WarmCache()


def warm_cache() -> WarmCache:
    """The process-global warm cache (one per worker process)."""
    return _CACHE


def warm_snapshot() -> Dict[str, int]:
    """Counter snapshot of the process-global cache (for pool piggyback)."""
    return _CACHE.snapshot()


def solver_bundle(
    floorplan,
    thermal_config,
    *,
    backend: str = "auto",
    ordering: str = "colamd",
) -> Tuple[ThermalRCNetwork, ThermalSolver]:
    """A ``(network, solver)`` pair for this die, warm when possible.

    The single construction point the physics stage and the batched group
    replay share: on a warm hit the LU factorization (and any propagators
    the solver already derived) are reused; on a miss — or with
    ``REPRO_WARM_CACHE=0`` — the pair is built fresh, exactly as the
    direct constructors would.
    """
    if not warm_cache_enabled():
        network = ThermalRCNetwork(floorplan, thermal_config)
        return network, ThermalSolver(network, backend=backend, ordering=ordering)
    cache = warm_cache()
    key = solver_key(floorplan, thermal_config, backend, ordering)
    bundle = cache.get_solver(key)
    if bundle is None:
        network = ThermalRCNetwork(floorplan, thermal_config)
        solver = ThermalSolver(network, backend=backend, ordering=ordering)
        bundle = (network, solver)
        cache.put_solver(key, bundle)
    return bundle


# ----------------------------------------------------------------------
# Zero-copy trace transport
# ----------------------------------------------------------------------

#: Attribute stamped (via ``object.__setattr__`` — the dataclass is frozen)
#: on traces the campaign cache loads or stores, recording the on-disk
#: ``*.trace.bin`` artifact they correspond to.  Never serialized.
TRACE_SOURCE_ATTR = "_warm_source_path"


def stamp_trace_source(trace: ActivityTrace, path) -> None:
    """Record the cache artifact ``trace`` was loaded from / stored to."""
    object.__setattr__(trace, TRACE_SOURCE_ATTR, str(path))


def _attach_shm(name: str):
    """Attach to an existing shared-memory segment without adopting it.

    Python < 3.13 registers attached segments with the resource tracker
    exactly like created ones (bpo-39959).  On 3.13+ ``track=False`` opts
    out cleanly.  On older versions the forked workers share the parent's
    tracker process, where the attach-side registration is an idempotent
    no-op against the creator's own entry — unregistering here would strip
    that entry and make the creator's eventual ``unlink()`` complain, so
    the duplicate registration is deliberately left alone (the parent
    starts the tracker before any worker forks; see
    :class:`~repro.service.pool.WorkerPool`).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def ensure_shm_tracker() -> None:
    """Start the resource tracker in this process (call before forking).

    Guarantees that worker processes forked later share the parent's
    tracker, which is what makes attach-side registrations harmless on
    Python < 3.13 (see :func:`_attach_shm`).
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platform-dependent
        pass


class ShmHandle:
    """Creator-side handle of one shared-memory trace segment.

    The publisher keeps it until every consumer task has finished, then
    calls :meth:`close` — which closes the mapping *and unlinks the
    segment* so nothing leaks in ``/dev/shm``.  Idempotent.
    """

    def __init__(self, segment) -> None:
        self._segment = segment
        self.name = segment.name

    def close(self) -> None:
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            segment.close()
        except Exception:  # pragma: no cover - defensive cleanup
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - defensive cleanup
            pass


@dataclass(frozen=True)
class TraceRef:
    """A picklable pointer to trace bytes living outside the task payload.

    ``kind="path"`` names a ``*.trace.bin`` cache artifact (the worker
    mmaps it and decodes over a memoryview — no intermediate ``bytes``
    copy of the file); ``kind="shm"`` names a
    ``multiprocessing.shared_memory`` segment of ``nbytes`` of
    :meth:`~repro.sim.activity_trace.ActivityTrace.to_bytes` content.
    ``key`` is the trace cache key (timing key) under which the decoded
    trace lands in the worker's warm registry, so sibling tasks skip the
    decode entirely.
    """

    key: str
    kind: str
    locator: str
    nbytes: int

    def resolve(self) -> ActivityTrace:
        cache = warm_cache()
        if warm_cache_enabled():
            trace = cache.get_trace(self.key)
            if trace is not None:
                return trace
        if self.kind == "path":
            with open(self.locator, "rb") as handle:
                with mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                ) as mapped:
                    buffer = memoryview(mapped)
                    try:
                        trace = ActivityTrace.from_bytes(buffer)
                    finally:
                        buffer.release()
        elif self.kind == "shm":
            segment = _attach_shm(self.locator)
            try:
                buffer = segment.buf[: self.nbytes]
                try:
                    trace = ActivityTrace.from_bytes(buffer)
                finally:
                    buffer.release()
            finally:
                segment.close()
        else:
            raise ValueError(f"unknown trace ref kind {self.kind!r}")
        if warm_cache_enabled():
            cache.put_trace(self.key, trace)
        return trace


def publish_trace(trace: ActivityTrace, key: str):
    """Prepare one trace for zero-copy shipment to worker processes.

    Returns ``(payload, handle)``: ``payload`` is a :class:`TraceRef` when
    zero-copy transport is possible — the trace's cache artifact path when
    the campaign cache stamped one (and the file still exists), else a
    freshly created shared-memory segment — and falls back to the trace
    itself (pickled compressed, the pre-warm behavior) when neither works,
    e.g. with no cache configured and no ``/dev/shm``.  ``handle`` is the
    :class:`ShmHandle` the caller must ``close()`` once consumers are done
    (``None`` for the path and fallback cases).
    """
    source = getattr(trace, TRACE_SOURCE_ATTR, None)
    if source:
        path = Path(source)
        try:
            nbytes = path.stat().st_size
        except OSError:
            nbytes = 0
        if nbytes > 0:
            return TraceRef(key=key, kind="path", locator=str(path), nbytes=nbytes), None
    try:
        from multiprocessing import shared_memory

        data = trace.to_bytes()
        segment = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
        segment.buf[: len(data)] = data
        ref = TraceRef(key=key, kind="shm", locator=segment.name, nbytes=len(data))
        return ref, ShmHandle(segment)
    except Exception:
        return trace, None


def resolve_trace(payload) -> ActivityTrace:
    """Accept either a real trace (thread mode / fallback) or a TraceRef."""
    if isinstance(payload, TraceRef):
        return payload.resolve()
    return payload
