"""Pluggable execution backends for campaign cells.

An :class:`Executor` fans campaign tasks out and returns their results in
order.  Because every cell is self-contained (scaled config, trace length,
interval and seed all live in the spec), the backends are interchangeable:

* :class:`SerialExecutor` — the in-process loop;
* :class:`ParallelExecutor` — a fan-out over a private, persistent
  :class:`~repro.campaign.pool.WorkerPool` of worker processes, kept across
  every fan-out and campaign it runs until :meth:`Executor.close`.  Seeding
  is deterministic per cell (the seed is part of the spec, not of execution
  order), so a parallel run is metric-identical to a serial one.

Each executor holds the :class:`~repro.campaign.spec.ExecutionOptions`
(timing and replay mode) its campaigns run under;
:func:`~repro.campaign.core.run_campaign` stamps them onto the cells it
dispatches, so they reach worker processes inside the tasks themselves.

The campaign plan (:func:`repro.campaign.core.run_campaign`) sends two
kinds of task, both to module-level functions that pickle cleanly into
worker processes, and both alike for single-core
(:class:`~repro.campaign.spec.RunSpec`) and chip
(:class:`~repro.chip.ChipRunSpec`) cells:

* :func:`execute_campaign_task` — one timing run, ``(mode, spec)``: a
  coupled timing+physics simulation (:func:`execute_cell`), or one that
  also records its :class:`~repro.sim.activity_trace.ActivityTrace`
  (:func:`execute_cell_capture`);
* :func:`execute_replay_group` — a physics-only replay of every cell of one
  group over the traces of its core timing runs, ``(traces, specs)``
  (orders of magnitude cheaper than a coupled run).

The generic :meth:`Executor.run_tasks` is the single fan-out primitive
underneath.  ``cells_executed`` counts the timing runs (coupled or
capture) — replays are accounted separately by the campaign outcome —
which the result cache's hit/miss accounting and the tests rely on.
"""

from __future__ import annotations

import os
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

# ExecutorTaskError is re-exported: callers import it from this module.
from repro.campaign.pool import ExecutorTaskError, WorkerPool  # noqa: F401
from repro.campaign.spec import ExecutionOptions, RunSpec
from repro.sim.activity_trace import ActivityTrace
from repro.sim.results import SimulationResult
from repro.sim.warmcache import publish_trace, resolve_trace, warm_snapshot
from repro.workloads.generator import WorkloadSpec

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def _build_engine(spec):
    """The engine that simulates one cell coupled: one core or one chip."""
    if not isinstance(spec, RunSpec):
        from repro.chip import ChipEngine

        return ChipEngine(
            spec.config,
            [
                WorkloadSpec(benchmark, spec.seed, uops)
                for benchmark, uops in zip(spec.benchmarks, spec.trace_uops)
            ],
            spec.benchmarks,
            cores=spec.cores,
            interval_cycles=spec.interval_cycles,
            chip_policy=spec.chip_policy,
            contention=spec.contention,
            timing_mode=spec.options.timing_mode,
        )
    # Imported lazily: ``repro.core.presets`` imports this package to get the
    # ConfigBuilder, so pulling the engine (and through it the processor and
    # ``repro.core``) in at module-import time would be circular.
    from repro.sim.engine import SimulationEngine

    dtm_policy = None
    if spec.dtm_policy is not None:
        from repro.dtm import make_policy

        dtm_policy = make_policy(spec.dtm_policy)
    # The engine takes the workload by name: the native timing path
    # generates and decodes it in one pass, the reference path expands it
    # through the Python generator.
    return SimulationEngine(
        spec.config,
        WorkloadSpec(spec.benchmark, spec.seed, spec.trace_uops),
        spec.benchmark,
        interval_cycles=spec.interval_cycles,
        dtm_policy=dtm_policy,
        timing_mode=spec.options.timing_mode,
    )


def execute_cell(spec) -> SimulationResult:
    """Simulate one campaign cell coupled (timing + physics, one interval loop).

    ``spec`` is a :class:`RunSpec` or a :class:`~repro.chip.ChipRunSpec`
    (N timing stages, one composite physics).  Module-level (rather than a
    method) so it pickles cleanly into worker processes regardless of the
    multiprocessing start method.  The cell's DTM policy (if any) is
    instantiated *here*, from its spec string, so policy controller state
    is always fresh per cell and never needs to cross a process boundary.
    """
    result = _build_engine(spec).run()
    result.provenance.update(spec.provenance())
    return result


def execute_cell_capture(spec: RunSpec) -> Tuple[SimulationResult, ActivityTrace]:
    """Simulate one single-core cell coupled *and* capture its activity trace.

    The result is exactly what :func:`execute_cell` produces (recording only
    observes the timing stage); the trace can replay every other cell that
    shares this spec's :meth:`~repro.campaign.spec.RunSpec.timing_key`.
    """
    result, trace = _build_engine(spec).run_with_trace(
        trace_provenance={"seed": spec.seed, "trace_uops": spec.trace_uops}
    )
    result.provenance.update(spec.provenance())
    return result, trace


def execute_replay_group(task) -> List[SimulationResult]:
    """Replay every cell of one group over the traces it shares.

    ``task`` is ``((trace, ...), (spec, ...))``: one single-core
    :class:`~repro.sim.activity_trace.ActivityTrace` per core timing run of
    the specs (:meth:`~repro.campaign.spec.RunSpec.core_specs`, in core
    order) and the group's cells.  Single-core groups replay through
    :func:`repro.sim.group_replay.replay_group`, chip groups through
    :func:`repro.chip.engine.replay_chip_group`.  The campaign layer fans
    replays out one *group* per task, so the traces cross the process
    boundary once per group instead of once per cell (within one task,
    pickle memoizes a homogeneous mix's repeated trace).  How the physics
    is computed is the specs' ``options.replay_mode``: ``"exact"`` replays
    each cell alone (bit-identical to the coupled run), ``"batched"``
    advances whole thermally-identical sub-groups per interval in one
    multi-RHS solve.
    """
    traces, specs = task
    specs = list(specs)
    if not specs:
        return []
    # A trace may arrive as a zero-copy TraceRef (mmap'd cache artifact or
    # shared-memory segment) instead of a pickled payload; resolving it
    # consults the worker's warm registry first, so sibling groups over the
    # same trace decode it once per worker.
    traces = tuple(resolve_trace(trace) for trace in traces)
    mode = specs[0].options.replay_mode
    if isinstance(specs[0], RunSpec):
        from repro.sim.group_replay import replay_group

        (trace,) = traces
        results = replay_group(
            trace,
            [spec.config for spec in specs],
            interval_cycles=specs[0].interval_cycles,
            dtm_policies=[spec.dtm_policy for spec in specs],
            replay_mode=mode,
        )
    else:
        from repro.chip.engine import replay_chip_group

        results = replay_chip_group(traces, specs, replay_mode=mode)
    for spec, result in zip(specs, results):
        result.provenance.update(spec.provenance())
        result.provenance["replayed"] = True
    return results


def execute_campaign_task(task) -> Tuple[SimulationResult, Optional[ActivityTrace]]:
    """Dispatch one phase-1 campaign task: ``(mode, spec)``.

    ``"run"`` simulates the cell coupled; ``"capture"`` (a cell that also
    records its trace) and ``"trace"`` (a chip thread's single-core timing
    run, recorded for its trace) return the trace as well.  One uniform
    function lets a single executor pass mix every kind of timing run.
    """
    mode, spec = task
    if mode == "run":
        return execute_cell(spec), None
    return execute_cell_capture(spec)


class Executor:
    """Base class of campaign execution backends.

    :meth:`run_tasks` is the one fan-out primitive: subclasses implement it
    and every phase of :func:`repro.campaign.core.run_campaign` (coupled
    runs, captures, replay groups) rides on top.  ``options`` are the
    :class:`~repro.campaign.spec.ExecutionOptions` the campaigns of this
    executor run under.  Executors are context managers; :meth:`close`
    releases whatever runtime a backend holds.
    """

    def __init__(self, options: Optional[ExecutionOptions] = None) -> None:
        self.options = options if options is not None else ExecutionOptions()
        #: Total number of cells this executor has simulated *coupled*
        #: (including trace captures); physics-only replays do not count.
        self.cells_executed = 0

    def run_tasks(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        """Apply ``fn`` to every task, returning results in task order."""
        raise NotImplementedError

    def record_derived(self, cells: int) -> None:
        """Note ``cells`` campaign cells the plan derived without a task
        (from a nominal twin); a backend reporting progress counts them."""

    def runtime_info(self) -> Dict[str, object]:
        """Execution-runtime facts recorded on ``CampaignOutcome.runtime``.

        Backends report their mode and warm-cache counters here.
        """
        return {}

    def describe(self) -> str:
        return type(self).__name__

    def close(self) -> None:
        """Release the backend's runtime (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Blocking in-process execution, one task at a time."""

    def run_tasks(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        return [fn(task) for task in tasks]

    def runtime_info(self) -> Dict[str, object]:
        # Serial cells run in this process, so the process-global warm
        # cache counters are exactly this executor's warm/cold history.
        return {"mode": "serial", "warm_cache": warm_snapshot()}


class ParallelExecutor(Executor):
    """Fan-out over a private, persistent pool of ``jobs`` worker processes.

    The :class:`~repro.campaign.pool.WorkerPool` lives as long as the
    executor: its workers keep their warm solver/trace caches across every
    fan-out and campaign, and each replay task's trace travels zero-copy.
    Tasks are submitted one at a time and collected in order, so a dead
    worker is attributed to the task it took down.  :meth:`close` (or
    leaving a ``with`` block) stops the workers; an executor nobody closed
    stops them when it is garbage-collected.
    """

    def __init__(
        self, jobs: int = 0, options: Optional[ExecutionOptions] = None
    ) -> None:
        super().__init__(options)
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        self.pool = WorkerPool(workers=jobs, mode="process")
        # Queued-but-unstarted tasks only outlive a fan-out that failed or
        # was interrupted; nobody waits for their results.
        self._finalizer = weakref.finalize(self, self.pool.shutdown, drain=False)

    def describe(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"

    def runtime_info(self) -> Dict[str, object]:
        return self.pool.runtime_info()

    def close(self) -> None:
        self._finalizer()

    def _prepare_tasks(self, fn, tasks: Sequence) -> Tuple[List, List]:
        """Swap replay-task trace payloads for zero-copy TraceRefs.

        Only meaningful for process pools (thread workers share this
        process's memory, so shipping the object is already free).  Each
        trace travels as its cache artifact path when the campaign cache
        stamped one, else as a freshly created shared-memory segment —
        tracked with the pool so shutdown can unlink leftovers.  Returns
        ``(prepared_tasks, handles)``; the caller must release every handle
        once the fan-out is done.
        """
        if self.pool.mode != "process" or fn is not execute_replay_group:
            return list(tasks), []
        handles: List = []
        published: Dict[int, object] = {}

        def _publish(trace, key: str):
            # Homogeneous mixes and sibling groups repeat the same trace
            # object; publish each distinct object once.
            payload = published.get(id(trace))
            if payload is None:
                payload, handle = publish_trace(trace, key)
                if handle is not None:
                    handles.append(handle)
                    self.pool.track_segment(handle)
                published[id(trace)] = payload
            return payload

        prepared: List = []
        for traces, specs in tasks:
            specs = tuple(specs)
            keys = [core.timing_key() for core in specs[0].core_specs()]
            prepared.append(
                (tuple(_publish(t, key) for t, key in zip(traces, keys)), specs)
            )
        return prepared, handles

    def _submit(self, fn, task):
        """Enqueue one task on the pool (a hook for the service's executor)."""
        return self.pool.submit(fn, task)

    def _collect(self, fn, task, future):
        """Wait for one task's result (a hook for the service's executor)."""
        return future.result()

    def run_tasks(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        tasks, handles = self._prepare_tasks(fn, tasks)
        try:
            futures = [self._submit(fn, task) for task in tasks]
            return [
                self._collect(fn, task, future)
                for task, future in zip(tasks, futures)
            ]
        finally:
            # Unlink this fan-out's shared-memory segments.  After a failed
            # or cancelled fan-out, a queued task that attaches after the
            # unlink fails as an ordinary task error nobody waits for.
            for handle in handles:
                self.pool.release_segment(handle)


def make_executor(
    jobs: int = 1, options: Optional[ExecutionOptions] = None
) -> Executor:
    """Executor for a requested parallelism level (1 = serial)."""
    if jobs == 1:
        return SerialExecutor(options)
    return ParallelExecutor(jobs, options)
