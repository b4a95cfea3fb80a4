"""Pluggable execution backends for campaign cells.

An :class:`Executor` turns a sequence of :class:`~repro.campaign.spec.RunSpec`
cells into :class:`~repro.sim.results.SimulationResult` objects, in order.
Because every cell is self-contained (scaled config, trace length, interval
and seed all live in the spec), the backends are interchangeable:

* :class:`SerialExecutor` — the legacy in-process loop;
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out.  Seeding is deterministic per cell (the seed is part of the spec,
  not of execution order), so a parallel run is metric-identical to a serial
  one.

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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.campaign.spec import RunSpec
from repro.sim.activity_trace import ActivityTrace
from repro.sim.results import SimulationResult
from repro.sim.warmcache import resolve_trace, warm_snapshot
from repro.workloads.generator import TraceGenerator

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def resolved_timing_mode() -> str:
    """Engine timing mode for campaign cells (``REPRO_TIMING_MODE``).

    Campaign cells are identified by *content* (config, workload, seed), and
    the fast timing path is byte-identical to the per-uop reference, so the
    timing mode is deliberately **not** part of a cell's spec or cache key —
    it is an execution knob, carried in the environment so it survives the
    pickle boundary into pool workers (child processes inherit the
    environment under both fork and spawn).  Unset means ``auto``.
    """
    from repro.sim.engine import TIMING_MODES

    mode = os.environ.get("REPRO_TIMING_MODE", "auto").strip().lower() or "auto"
    if mode not in TIMING_MODES:
        raise ValueError(
            f"REPRO_TIMING_MODE must be one of {', '.join(TIMING_MODES)}, "
            f"not {mode!r}"
        )
    return mode


def resolved_replay_mode(spec_mode: str = "exact") -> str:
    """Replay mode for a replay group (``REPRO_REPLAY_MODE`` wins).

    The mode normally rides on the specs (stamped by
    :class:`~repro.campaign.spec.Campaign` from its ``replay_mode``
    parameter / the CLI's ``--replay-mode``); the environment variable is an
    override with the same role as ``REPRO_TIMING_MODE`` — an execution
    knob, never part of any cache key, inherited by pool workers.
    """
    from repro.sim.group_replay import validate_replay_mode

    mode = os.environ.get("REPRO_REPLAY_MODE", "").strip().lower()
    return validate_replay_mode(mode or spec_mode)


class ExecutorTaskError(RuntimeError):
    """A task could not be completed by its execution backend.

    Raised instead of backend-internal exceptions (most notably
    :class:`concurrent.futures.process.BrokenProcessPool` when a worker
    process dies mid-task) so callers get a typed error carrying the task
    that was being executed.  ``task`` is the first task whose result could
    not be retrieved — with a broken pool every in-flight task fails at
    once, so the attribution is the earliest casualty in submission order.
    """

    def __init__(self, message: str, task: object = None) -> None:
        super().__init__(message)
        self.task = task


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
    generator = TraceGenerator(spec.benchmark, seed=spec.seed)
    trace = generator.generate(spec.trace_uops)
    return SimulationEngine(
        spec.config,
        trace.uops,
        spec.benchmark,
        interval_cycles=spec.interval_cycles,
        dtm_policy=dtm_policy,
        timing_mode=resolved_timing_mode(),
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
    physics is computed is the specs' ``replay_mode`` (overridable via
    ``REPRO_REPLAY_MODE``), see :func:`repro.sim.group_replay.replay_group`:
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
        replay_mode=resolved_replay_mode(specs[0].replay_mode),
    )
    return _stamp_replayed(specs, results)


def execute_chip_cell(spec) -> SimulationResult:
    """Simulate one chip cell coupled: N timing stages, one composite physics.

    ``spec`` is a :class:`~repro.chip.ChipRunSpec`; like every executor
    function, this builds everything (trace generators, engines, the chip
    policy) inside the executing process so tasks stay picklable.
    """
    from repro.chip import ChipEngine

    sources = [
        TraceGenerator(benchmark, seed=spec.seed).generate(uops).uops
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
        timing_mode=resolved_timing_mode(),
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
        replay_mode=resolved_replay_mode(specs[0].replay_mode),
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


def _describe_task(task: object) -> str:
    """A compact human-readable identity of a failed task.

    Tasks take several shapes — a bare :class:`RunSpec`, a ``(mode, spec)``
    phase-1 tuple, a ``(trace, specs)`` replay group — so this digs out the
    spec(s) rather than dumping a full configuration repr into the error.
    """

    def _spec_name(spec: object) -> str:
        config = getattr(spec, "config", None)
        name = getattr(config, "name", "?")
        benchmark = getattr(spec, "benchmark", "?")
        return f"{name}/{benchmark}"

    if isinstance(task, tuple) and len(task) == 2:
        first, second = task
        if isinstance(first, str):
            return f"{first} cell {_spec_name(second)}"
        if isinstance(second, (tuple, list)):
            names = ", ".join(_spec_name(spec) for spec in second)
            return f"replay group [{names}]"
    return _spec_name(task)


class Executor:
    """Base class of campaign execution backends.

    :meth:`run_tasks` is the one fan-out primitive: subclasses implement it
    and every phase of :func:`repro.campaign.core.run_campaign` (coupled
    runs, captures, replay groups) rides on top.
    """

    def __init__(self) -> None:
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

        Subclasses with an observable warm runtime (the serial in-process
        path, the service's persistent worker pool) report their mode and
        warm-cache counters here; backends whose workers die with the
        fan-out (:class:`ParallelExecutor`) report what they can.
        """
        return {}

    def describe(self) -> str:
        return type(self).__name__


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
    """Process-pool execution with ``jobs`` worker processes.

    Tasks are distributed one at a time (``chunksize=1``) because individual
    simulations are long relative to the dispatch overhead and their
    durations vary widely across benchmarks.
    """

    def __init__(self, jobs: int = 0) -> None:
        super().__init__()
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs

    def describe(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"

    def runtime_info(self) -> Dict[str, object]:
        # Pool workers persist across the tasks of one fan-out (so the
        # worker-resident warm cache speeds them up), but they die with the
        # pool before their counters can be read back cheaply.
        return {"mode": "parallel", "jobs": self.jobs}

    def run_tasks(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        if not tasks:
            return []
        # A single worker (or a single task) gains nothing from a pool;
        # degrade gracefully to the serial path.
        if self.jobs == 1 or len(tasks) == 1:
            return [fn(task) for task in tasks]
        workers = min(self.jobs, len(tasks))
        # Tasks are submitted individually (the chunksize=1 distribution the
        # docstring describes) and collected in order, so a dead worker can
        # be attributed to the task it took down rather than surfacing as a
        # raw BrokenProcessPool from an anonymous map().
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, task) for task in tasks]
            results: List[_Result] = []
            for task, future in zip(tasks, futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as error:
                    raise ExecutorTaskError(
                        "a worker process died while executing "
                        f"{_describe_task(task)}",
                        task=task,
                    ) from error
            return results


def make_executor(jobs: int = 1) -> Executor:
    """Executor for a requested parallelism level (1 = serial)."""
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
