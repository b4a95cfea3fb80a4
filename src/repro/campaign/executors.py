"""Pluggable execution backends for campaign cells.

An :class:`Executor` turns a sequence of :class:`~repro.campaign.spec.RunSpec`
cells into :class:`~repro.sim.results.SimulationResult` objects, in order.
Because every cell is self-contained (scaled config, trace length, interval
and seed all live in the spec), the backends are interchangeable:

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

Since the two-stage simulation core landed, an executor actually runs three
kinds of work, all module-level functions so they pickle cleanly into worker
processes:

* :func:`execute_cell` — the classic coupled timing+physics simulation;
* :func:`execute_cell_capture` — a coupled run that also records the
  timing stage's :class:`~repro.sim.activity_trace.ActivityTrace`;
* :func:`execute_replay_group` — a physics-only replay of a previously
  captured trace under every cell of its timing-key group (orders of
  magnitude cheaper than a coupled run).

The campaign layer routes cells between them (see
:func:`repro.campaign.core.run_campaign`); the generic :meth:`Executor.run_tasks`
is the single fan-out primitive underneath.  ``cells_executed`` counts the
cells that ran a *timing* simulation (coupled or capture) — replays are
accounted separately by the campaign outcome — which the result cache's
hit/miss accounting and the tests rely on.
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

#: Task functions whose ``(traces, specs)`` tasks carry activity traces,
#: which a process pool ships zero-copy (see ``ParallelExecutor``).
_REPLAY_FUNCTIONS = ("execute_replay_group", "execute_chip_replay_group")


def _build_engine(spec: RunSpec):
    """The shared front half of the coupled execution paths."""
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


def execute_cell(spec: RunSpec) -> SimulationResult:
    """Simulate one campaign cell coupled (timing + physics, one interval loop).

    Module-level (rather than a method) so it pickles cleanly into worker
    processes regardless of the multiprocessing start method.  The cell's
    DTM policy (if any) is instantiated *here*, from its spec string, so
    policy controller state is always fresh per cell and never needs to
    cross a process boundary.
    """
    result = _build_engine(spec).run()
    result.provenance.update(spec.provenance())
    return result


def execute_cell_capture(spec: RunSpec) -> Tuple[SimulationResult, ActivityTrace]:
    """Simulate one cell coupled *and* capture its activity trace.

    The result is exactly what :func:`execute_cell` produces (recording only
    observes the timing stage); the trace can replay every other cell that
    shares this spec's :meth:`~repro.campaign.spec.RunSpec.timing_key`.
    """
    result, trace = _build_engine(spec).run_with_trace(
        trace_provenance={"seed": spec.seed, "trace_uops": spec.trace_uops}
    )
    result.provenance.update(spec.provenance())
    return result, trace


def _stamp_replayed(specs, results: List[SimulationResult]) -> List[SimulationResult]:
    """Record each spec's settings provenance on its replayed result."""
    for spec, result in zip(specs, results):
        result.provenance.update(spec.provenance())
        result.provenance["replayed"] = True
    return results


def execute_replay_group(
    task: Tuple[ActivityTrace, Sequence[RunSpec]],
) -> List[SimulationResult]:
    """Replay every cell of one timing-key group over its shared trace.

    The campaign layer fans replays out one *group* per task rather than
    one cell per task, so the (potentially large) trace crosses the process
    boundary once per group instead of once per cell.  How the group's
    physics is computed is the specs' ``options.replay_mode``, see
    :func:`repro.sim.group_replay.replay_group`:
    ``"exact"`` replays each cell alone (bit-identical to the coupled run),
    ``"batched"``/``"auto"`` advance whole thermally-identical sub-groups
    per interval in one multi-RHS solve.
    """
    trace, specs = task
    specs = list(specs)
    if not specs:
        return []
    from repro.sim.group_replay import replay_group

    # The trace may arrive as a zero-copy TraceRef (mmap'd cache artifact
    # or shared-memory segment) instead of a pickled payload; resolving it
    # consults the worker's warm registry first, so sibling groups over the
    # same trace decode it once per worker.
    results = replay_group(
        resolve_trace(trace),
        [spec.config for spec in specs],
        interval_cycles=specs[0].interval_cycles,
        dtm_policies=[spec.dtm_policy for spec in specs],
        replay_mode=specs[0].options.replay_mode,
    )
    return _stamp_replayed(specs, results)


def execute_chip_cell(spec) -> SimulationResult:
    """Simulate one chip cell coupled: N timing stages, one composite physics.

    ``spec`` is a :class:`~repro.chip.ChipRunSpec`; like every executor
    function, this builds everything (workloads, engines, the chip policy)
    inside the executing process so tasks stay picklable.
    """
    from repro.chip import ChipEngine

    sources = [
        WorkloadSpec(benchmark, spec.seed, uops)
        for benchmark, uops in zip(spec.benchmarks, spec.trace_uops)
    ]
    engine = ChipEngine(
        spec.config,
        sources,
        spec.benchmarks,
        cores=spec.cores,
        interval_cycles=spec.interval_cycles,
        chip_policy=spec.chip_policy,
        contention=spec.contention,
        solver_backend=spec.solver_backend,
        timing_mode=spec.options.timing_mode,
    )
    result = engine.run()
    result.provenance.update(spec.provenance())
    return result


def execute_chip_replay_group(task) -> List[SimulationResult]:
    """Replay every chip cell of one trace-set group over its shared traces.

    Mirrors :func:`execute_replay_group` one level up: ``task`` is a
    ``((trace, ...), (ChipRunSpec, ...))`` pair — one single-core
    :class:`~repro.sim.activity_trace.ActivityTrace` per thread, in core
    order, shared with any single-core campaign of the same settings — and
    the group replays through :func:`repro.chip.engine.replay_chip_group`,
    bit-identical to :func:`execute_chip_cell` in ``"exact"`` mode.  (Within
    one task, pickle memoizes the shared trace objects, so a homogeneous
    mix's repeated trace crosses the boundary once.)
    """
    traces, specs = task
    specs = list(specs)
    if not specs:
        return []
    from repro.chip.engine import replay_chip_group

    results = replay_chip_group(
        tuple(resolve_trace(trace) for trace in traces),
        specs,
        replay_mode=specs[0].options.replay_mode,
    )
    return _stamp_replayed(specs, results)


def execute_campaign_task(
    task: Tuple[str, RunSpec],
) -> Tuple[SimulationResult, Optional[ActivityTrace]]:
    """Dispatch one phase-1 campaign task: ``("run" | "capture", spec)``.

    One uniform function lets a single executor pass mix plain coupled
    cells with trace-capturing ones.
    """
    mode, spec = task
    if mode == "capture":
        return execute_cell_capture(spec)
    return execute_cell(spec), None


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
        name = getattr(fn, "__name__", "")
        if self.pool.mode != "process" or name not in _REPLAY_FUNCTIONS:
            return list(tasks), []
        handles: List = []
        published: Dict[int, object] = {}

        def _publish(trace, key: str):
            # Chip groups repeat the same trace object across cores and
            # tasks; publish each distinct object once.
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
            if name == "execute_replay_group":
                prepared.append((_publish(traces, specs[0].timing_key()), specs))
            else:
                keys = [core.timing_key() for core in specs[0].core_specs()]
                published_traces = tuple(
                    _publish(trace, key) for trace, key in zip(traces, keys)
                )
                prepared.append((published_traces, specs))
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
