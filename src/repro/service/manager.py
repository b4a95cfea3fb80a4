"""Campaign-as-a-service: the dispatcher between jobs and the worker pool.

:class:`CampaignService` owns the whole serving pipeline:

* a :class:`~repro.service.jobs.JobStore` of submitted jobs;
* a bounded set of *job slots* (``max_concurrent_jobs``) — submissions
  beyond the bound queue as PENDING in FIFO order;
* one shared :class:`~repro.campaign.pool.WorkerPool` every running job
  fans its cells into; and
* an optional shared :class:`~repro.service.cache.ShardedResultCache`,
  viewed per tenant.

Each job executes through the REAL campaign path — a running job calls
:func:`repro.campaign.run_campaign` with a :class:`PoolBackedExecutor`
(a :class:`~repro.campaign.executors.ParallelExecutor` over the shared
pool, under the execution options of the job's payload) — so a campaign
submitted over HTTP takes
*exactly* the code path of a local run: same cache lookups, same
timing-key grouping, same capture-once/replay-rest planning, bit-identical
results.  Two things are layered on top:

* **progress**: every completed task appends a progress event (cells
  simulated/replayed, running ETA) to the job, which the HTTP layer
  streams as NDJSON;
* **cross-job trace sharing**: a :class:`_TraceGate` around the cache
  serializes concurrent captures of the same timing key — the first job
  to miss becomes the *leader* and captures; followers block until the
  leader's trace artifact lands in the shared cache, then replay it.
  (Sequentially, sharing already falls out of the content-keyed cache;
  the gate closes the concurrent-miss window where N jobs would all pay
  for the same per-uop timing simulation.)

Cancellation is cooperative at task granularity: ``DELETE /jobs/<id>``
sets the job's cancel flag, the executor adapter raises between tasks,
in-flight work drains in the pool, and the job lands in CANCELLED without
touching the server's health.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.campaign.core import CampaignOutcome, run_campaign
from repro.campaign.executors import (
    Executor,
    ParallelExecutor,
    execute_campaign_task,
    execute_replay_group,
)
from repro.campaign.pool import WorkerPool
from repro.campaign.spec import ExecutionOptions
from repro.service.cache import ShardedResultCache
from repro.service.codec import campaign_from_payload, options_from_payload
from repro.service.jobs import Job, JobState, JobStore
from repro.sim.serialization import result_to_dict


class JobCancelled(Exception):
    """Internal control-flow: the job's cancel flag was observed."""


def _progress_of(fn, task) -> (str, int):
    """(kind, campaign cells) one completed task contributes to job progress.

    A timing run's kind is its mode; a ``"trace"`` run captures a chip
    thread's trace and completes no campaign cell by itself.
    """
    if fn is execute_replay_group:
        return "replay", len(task[1])
    mode = task[0] if fn is execute_campaign_task else "run"
    return mode, int(mode != "trace")


class PoolBackedExecutor(ParallelExecutor):
    """A :class:`ParallelExecutor` over the service's shared WorkerPool.

    One instance per running job (``cells_executed`` accounting in
    :func:`run_campaign` is per-executor), all instances feeding the same
    pool, which belongs to the service: :meth:`close` leaves it running.
    Task completions report progress to the job; the job's cancel flag is
    checked before each submission and while waiting, turning a ``DELETE``
    into a :class:`JobCancelled` at the next task boundary.
    """

    #: How often the result wait wakes up to re-check the cancel flag.
    _POLL_SECONDS = 0.1

    def __init__(
        self,
        pool: WorkerPool,
        job: Optional[Job] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        # Not ParallelExecutor.__init__: the pool is shared, not private.
        Executor.__init__(self, options)
        self.pool = pool
        self.jobs = pool.workers
        self.job = job

    def describe(self) -> str:
        return (
            f"PoolBackedExecutor({self.pool.workers} {self.pool.mode} workers)"
        )

    def close(self) -> None:
        """The shared pool outlives every job; the service shuts it down."""

    def _check_cancelled(self) -> None:
        if self.job is not None and self.job.cancelled:
            raise JobCancelled()

    def _submit(self, fn, task):
        self._check_cancelled()
        return super()._submit(fn, task)

    def _collect(self, fn, task, future):
        while True:
            try:
                result = future.result(timeout=self._POLL_SECONDS)
                break
            except TimeoutError:
                # Abandoning the futures on cancel is safe: the pool
                # finishes in-flight tasks and discards the results.
                self._check_cancelled()
        if self.job is not None:
            kind, cells = _progress_of(fn, task)
            self.job.record_progress(kind, cells)
        return result


class _TraceRegistry:
    """Service-wide registry of in-flight trace captures, by timing key."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: timing key -> Event set when the capture lands (or is abandoned).
        self.in_flight: Dict[str, threading.Event] = {}


class _TraceGate:
    """Cache wrapper that dedupes concurrent captures of one timing key.

    ``load_trace`` on a miss either *claims* the key (this job becomes the
    leader and will capture) or *waits* for the current leader, then
    re-reads the shared cache.  A leader that fails or is cancelled
    releases its claims on the way out (see :meth:`release`), and each
    waiter then contends to claim the key itself — nobody deadlocks on an
    abandoned capture.  Everything else delegates to the wrapped cache.
    """

    #: Upper bound on waiting for another job's capture; a capture that
    #: takes longer than this has almost certainly died non-cleanly, and
    #: the waiter falls back to capturing itself.
    _WAIT_SECONDS = 600.0

    def __init__(self, inner, registry: _TraceRegistry, job: Optional[Job]) -> None:
        self._inner = inner
        self._registry = registry
        self._job = job
        self._claims: List[str] = []

    # Pass-through result interface; a hit completes a cell of the job.
    def load(self, spec):
        result = self._inner.load(spec)
        if result is not None and self._job is not None:
            self._job.record_cache_hits(1)
        return result

    def store(self, spec, result):
        return self._inner.store(spec, result)

    def load_trace(self, timing_key: str):
        while True:
            trace = self._inner.load_trace(timing_key)
            if trace is not None:
                return trace
            with self._registry.lock:
                event = self._registry.in_flight.get(timing_key)
                if event is None:
                    # Claim the key: this job captures for everyone.
                    self._registry.in_flight[timing_key] = threading.Event()
                    self._claims.append(timing_key)
                    return None
            # Another job is capturing this key; wait it out, then loop
            # (hit its stored trace, or claim the abandoned key ourselves).
            if self._job is not None and self._job.cancelled:
                raise JobCancelled()
            event.wait(self._WAIT_SECONDS)

    def store_trace(self, timing_key: str, trace):
        path = self._inner.store_trace(timing_key, trace)
        self._resolve(timing_key)
        return path

    def _resolve(self, timing_key: str) -> None:
        with self._registry.lock:
            event = self._registry.in_flight.pop(timing_key, None)
        if event is not None:
            event.set()
        if timing_key in self._claims:
            self._claims.remove(timing_key)

    def release(self) -> None:
        """Abandon every unresolved claim (job failed or was cancelled)."""
        for timing_key in list(self._claims):
            self._resolve(timing_key)


class CampaignService:
    """The long-running campaign server: jobs in, summaries + metrics out."""

    def __init__(
        self,
        pool: Optional[WorkerPool] = None,
        cache: Optional[ShardedResultCache] = None,
        max_concurrent_jobs: int = 4,
        replay: bool = True,
    ) -> None:
        if max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be at least 1")
        self.store = JobStore()
        self.pool = pool if pool is not None else WorkerPool(workers=2)
        self.cache = cache
        self.replay = replay
        self.started_at = time.time()
        self._registry = _TraceRegistry()
        self._slots = threading.Semaphore(max_concurrent_jobs)
        self.max_concurrent_jobs = max_concurrent_jobs
        self._accepting = True
        self._threads_lock = threading.Lock()
        self._job_threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------
    def submit(self, payload: Dict, tenant: str = "default") -> Job:
        """Validate a campaign spec payload and enqueue it as a job.

        Raises ``ValueError``/``KeyError`` on an invalid spec (mapped to a
        400 by the HTTP layer) and ``RuntimeError`` once shut down.
        """
        if not self._accepting:
            raise RuntimeError("service is shutting down")
        campaign = campaign_from_payload(payload)
        options = options_from_payload(payload)
        job = self.store.create(campaign, payload=payload, tenant=tenant)
        thread = threading.Thread(
            target=self._run_job,
            args=(job, options),
            name=f"repro-job-{job.id}",
            daemon=True,
        )
        with self._threads_lock:
            self._job_threads.append(thread)
        thread.start()
        return job

    def job(self, job_id: int) -> Optional[Job]:
        return self.store.get(job_id)

    def cancel(self, job_id: int) -> bool:
        job = self.store.get(job_id)
        return job.cancel() if job is not None else False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _job_cache(self, job: Job):
        if self.cache is None:
            return None
        view = (
            self.cache.for_tenant(job.tenant)
            if isinstance(self.cache, ShardedResultCache)
            else self.cache
        )
        return _TraceGate(view, self._registry, job)

    def _run_job(self, job: Job, options: ExecutionOptions) -> None:
        # PENDING jobs wait for a slot, staying responsive to cancellation.
        while not self._slots.acquire(timeout=0.1):
            if job.cancelled:
                job.mark_cancelled()
                return
        try:
            if job.cancelled:
                job.mark_cancelled()
                return
            job.mark_running()
            executor = PoolBackedExecutor(self.pool, job, options)
            gate = self._job_cache(job)
            try:
                outcome = run_campaign(
                    job.campaign, executor=executor, cache=gate, replay=self.replay
                )
            except JobCancelled:
                job.mark_cancelled()
            except Exception as error:  # noqa: BLE001 - job carries it
                job.mark_failed(f"{type(error).__name__}: {error}")
            else:
                job.mark_done(
                    results_payload(outcome),
                    outcome.describe(),
                    {
                        "cells_executed": outcome.cells_executed,
                        "cells_replayed": outcome.cells_replayed,
                        "cache_hits": outcome.cache_hits,
                        "traces_captured": outcome.traces_captured,
                    },
                )
            finally:
                if gate is not None:
                    gate.release()
        finally:
            self._slots.release()

    # ------------------------------------------------------------------
    # Observability + lifecycle
    # ------------------------------------------------------------------
    def metrics(self) -> Dict:
        """The ``/metrics`` payload: queueing, pool, jobs and cache health."""
        job_counts = self.store.counts()
        payload: Dict = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": job_counts,
            "queue": {
                "pending_jobs": job_counts[JobState.PENDING.value],
                "running_jobs": job_counts[JobState.RUNNING.value],
                "job_slots": self.max_concurrent_jobs,
                "task_queue_depth": self.pool.queue_depth,
            },
            "pool": self.pool.metrics(),
        }
        if self.cache is not None:
            lookups = self.cache.hits + self.cache.misses
            payload["cache"] = {
                "directory": str(self.cache.directory),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "trace_hits": self.cache.trace_hits,
                "trace_misses": self.cache.trace_misses,
                "trace_stores": self.cache.trace_stores,
                "hit_rate": (self.cache.hits / lookups) if lookups else None,
                "shards": getattr(self.cache, "shards", 1),
                "max_bytes": getattr(self.cache, "max_bytes", None),
            }
        return payload

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting jobs and wind the service down.

        With ``drain=True`` every submitted job runs to completion first
        (bounded by ``timeout`` seconds overall, if given); with
        ``drain=False`` running jobs are cancelled at their next task
        boundary.  The worker pool and the cache janitor stop either way.
        """
        self._accepting = False
        if not drain:
            for job in self.store.jobs():
                job.cancel()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._threads_lock:
            threads = list(self._job_threads)
        for thread in threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
        self.pool.shutdown(drain=drain, timeout=timeout)
        if isinstance(self.cache, ShardedResultCache):
            self.cache.stop_janitor()


def results_payload(outcome: CampaignOutcome) -> Dict:
    """The job results wire format: per-variant, per-benchmark result dicts.

    Values are exactly :func:`~repro.sim.serialization.result_to_dict`
    output — the same documents a local campaign writes into the result
    cache — which is what makes the HTTP-vs-local equivalence lock a plain
    dictionary comparison.
    """
    return {
        "summaries": {
            variant: {
                benchmark: result_to_dict(result)
                for benchmark, result in summary.results.items()
            }
            for variant, summary in outcome.summaries.items()
        },
        "outcome": {
            "total_cells": outcome.total_cells,
            "cells_executed": outcome.cells_executed,
            "cells_replayed": outcome.cells_replayed,
            "traces_captured": outcome.traces_captured,
            "cache_hits": outcome.cache_hits,
            "executor": outcome.executor_description,
            "runtime": outcome.runtime,
        },
    }
