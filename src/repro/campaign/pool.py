"""The campaign layer's process runtime: a persistent task-execution pool.

One :class:`WorkerPool` runs every fan-out of the
:class:`~repro.campaign.executors.ParallelExecutor` that owns it, across
campaigns, and the service keeps one alive for its whole lifetime and lets
every concurrently running job feed it.  Tasks — the picklable module-level
executor functions of :mod:`repro.campaign.executors`
(``execute_campaign_task``, ``execute_replay_group``) — enter a shared
queue; worker threads pull them off in FIFO order and run them either

* **inline** (``mode="thread"``): directly in the worker thread.  Zero
  dispatch overhead and full monkeypatchability, the right choice for
  tests and single-machine smoke serving (pure-Python simulation threads
  contend on the GIL, so aggregate throughput is bounded); or
* **in a worker process** (``mode="process"``): with ``keepalive=True``
  (the default) each worker thread owns one long-lived forked child and
  feeds it task after task over a duplex pipe — the child keeps its
  imports, its warm solver/trace cache (:mod:`repro.sim.warmcache`) and
  its numpy state across tasks, so a replay sweep pays interpreter
  startup and solver factorization once per worker instead of once per
  task.  With ``keepalive=False`` every task forks a fresh child:
  maximal crash isolation, cold every time.

Both process flavors keep the same containment contract: a worker that
*dies* mid-task (segfault, OOM-kill, ``os._exit``) is detected, retired
and respawned, and the task is retried with exponential backoff up to
``retries`` times; a task that exceeds ``task_timeout`` seconds is killed
by the watchdog (the persistent worker is killed *and respawned*, so the
next task starts clean) and failed without retry — a deterministic
timeout would only time out again, slower.

Failures surface as a typed :class:`ExecutorTaskError` with the offending
task attached and named briefly (``run cell baseline/gzip``); an exception
raised inside a task in a worker process is chained as its ``__cause__``.
:meth:`WorkerPool.shutdown` drains gracefully: submissions are refused,
queued work completes (or is discarded with ``drain=False``), worker
threads exit, persistent children are stopped, and any shared-memory trace
segments still tracked are unlinked.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import queue
import reprlib
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

from repro.sim.warmcache import ensure_shm_tracker, warm_snapshot

#: Task-duration samples kept for the latency percentiles in `metrics()`.
_DURATION_SAMPLES = 2048

#: Serializes forking worker children across threads and pools.  A child
#: forked while another child's freshly made pipe ends are still open here
#: inherits them, and the first child's exit or death then goes unseen
#: (no EOF, no sentinel) until the second child exits too.
_SPAWN_LOCK = threading.Lock()

#: Counter keys a worker's warm-cache snapshot may carry (summable).
_WARM_KEYS = (
    "solver_hits",
    "solver_misses",
    "trace_hits",
    "trace_misses",
    "workload_hits",
    "workload_misses",
)


class ExecutorTaskError(RuntimeError):
    """A task could not be completed by its execution backend.

    Raised instead of backend-internal exceptions — a worker process that
    died mid-task, a watchdog timeout, an exception inside a worker process
    — so callers get a typed error carrying the task that was being
    executed.  ``task`` is the task exactly as it was submitted.
    """

    def __init__(self, message: str, task: object = None) -> None:
        super().__init__(message)
        self.task = task


def _describe_task(task: object) -> str:
    """A compact human-readable identity of a task, for error messages.

    Campaign tasks take several shapes — a bare spec, a ``(mode, spec)``
    phase-1 tuple, a ``(trace, specs)`` replay group — so this digs out the
    spec(s) rather than dumping a full configuration repr into the error;
    any other task is shown as a size-limited repr.
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
    if hasattr(task, "config"):
        return _spec_name(task)
    return reprlib.repr(task)


class _TaskCrash(Exception):
    """A worker process died before reporting a result (exit code attached)."""


class _TaskTimeout(Exception):
    """A task exceeded the per-task timeout; its worker was killed."""


def _error_payload():
    """The reply to a task that raised: its traceback text and exception.

    The exception travels only if it survives a pickle round trip; the
    parent chains it as the typed error's ``__cause__``.
    """
    error = sys.exc_info()[1]
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:  # noqa: BLE001 - one that does not round-trip goes as text
        error = None
    return ("error", (traceback.format_exc(), error), warm_snapshot())


def _subprocess_main(connection, fn, task) -> None:
    """Fork-per-task child: execute one task, ship (status, payload, warm)."""
    try:
        payload = ("ok", fn(task), warm_snapshot())
    except BaseException:  # noqa: BLE001 - the parent re-raises, typed
        payload = _error_payload()
    try:
        connection.send(payload)
    finally:
        connection.close()


def _persistent_worker_main(connection) -> None:
    """Persistent child: serve tasks off one duplex pipe until told to stop.

    The loop protocol is ``recv (fn, task)`` → ``send (status, payload,
    warm_snapshot)``; a ``None`` message (or the pipe closing) is the stop
    sentinel.  The warm-cache counter snapshot piggybacks on every reply so
    the parent can aggregate warm/cold hit rates without extra round trips.
    """
    while True:
        try:
            item = connection.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if item is None:
            break
        fn, task = item
        try:
            payload = ("ok", fn(task), warm_snapshot())
        except BaseException:  # noqa: BLE001 - the parent re-raises, typed
            payload = _error_payload()
        try:
            connection.send(payload)
        except (BrokenPipeError, OSError):
            break
    try:
        connection.close()
    except OSError:  # pragma: no cover - defensive cleanup
        pass


def _raise_task_error(payload, task) -> None:
    """Raise a worker's :func:`_error_payload` as :class:`ExecutorTaskError`."""
    text, cause = payload
    raise ExecutorTaskError(
        f"task raised in worker process:\n{text}", task=task
    ) from cause


class _PersistentWorker:
    """Parent-side handle of one long-lived worker process."""

    def __init__(self, context, generation: int) -> None:
        with _SPAWN_LOCK:
            parent_end, child_end = context.Pipe(duplex=True)
            self.process = context.Process(
                target=_persistent_worker_main, args=(child_end,), daemon=True
            )
            self.process.start()
            child_end.close()
        self.connection = parent_end
        self.generation = generation
        #: Last warm-cache counter snapshot this worker reported.
        self.warm: Dict[str, int] = {}

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, fn: Callable, task) -> None:
        self.connection.send((fn, task))

    def stop(self, kill: bool = False) -> Optional[int]:
        """Stop the child (gracefully, or ``kill=True`` for the watchdog).

        Returns the child's exit code once it is reaped.
        """
        if not kill and self.process.is_alive():
            try:
                self.connection.send(None)
            except (BrokenPipeError, OSError, ValueError):
                pass
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - defensive cleanup
            pass
        if kill and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck child
            self.process.kill()
            self.process.join(timeout=5)
        exitcode = self.process.exitcode
        try:
            self.process.close()
        except Exception:  # pragma: no cover - defensive cleanup
            pass
        return exitcode


class WorkerPool:
    """A fixed set of worker threads draining one shared task queue.

    ``workers`` threads run tasks in submission order.  ``mode="process"``
    executes tasks in worker processes — long-lived ones fed over pipes
    with ``keepalive=True`` (default; warm caches survive across tasks),
    or a fresh fork per task with ``keepalive=False`` — while
    ``mode="thread"`` executes inline.  Crashed workers are respawned and
    their task retried up to ``retries`` times with exponential backoff
    starting at ``retry_backoff`` seconds; timeouts and in-task exceptions
    are not retried (a deterministic failure would only fail again,
    slower).
    """

    def __init__(
        self,
        workers: int = 2,
        mode: str = "thread",
        task_timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.05,
        keepalive: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown worker pool mode {mode!r}")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.workers = workers
        self.mode = mode
        self.task_timeout = task_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.keepalive = bool(keepalive) and mode == "process"
        if mode == "process":
            # Start the shm resource tracker BEFORE any worker forks, so
            # attach-side registrations land in the shared parent tracker
            # instead of spawning per-worker trackers that would unlink
            # live segments when a worker dies (bpo-39959 on < 3.13).
            ensure_shm_tracker()
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._accepting = True
        self._busy = 0
        self._unfinished = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.tasks_retried = 0
        self.worker_respawns = 0
        self._created = time.monotonic()
        self._busy_seconds = 0.0
        self._busy_started: Dict[int, float] = {}
        self._durations: "deque[float]" = deque(maxlen=_DURATION_SAMPLES)
        # Persistent-worker state: one optional child per worker-thread slot
        # (spawned lazily on the slot's first process task), its respawn
        # generation, and the warm counters of already-retired children.
        self._process_workers: Dict[int, _PersistentWorker] = {}
        self._generations: List[int] = [0] * workers
        self._warm_retired: Dict[str, int] = {}
        # Shared-memory trace segments currently in flight (name -> handle);
        # shutdown unlinks whatever a crashed submitter left behind.
        self._segments: Dict[str, object] = {}
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"repro-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, fn: Callable, task) -> "Future":
        """Enqueue one task; returns a future resolving to ``fn(task)``."""
        future: Future = Future()
        with self._lock:
            if not self._accepting:
                raise RuntimeError("worker pool is shut down")
            self._unfinished += 1
        self._queue.put((fn, task, future))
        return future

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self, slot: int) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, task, future = item
            started = time.monotonic()
            with self._lock:
                self._busy += 1
                self._busy_started[slot] = started
            try:
                result = self._run_with_retries(slot, fn, task)
            except BaseException as error:  # noqa: BLE001 - future carries it
                with self._lock:
                    self.tasks_failed += 1
                future.set_exception(error)
            else:
                with self._lock:
                    self.tasks_completed += 1
                future.set_result(result)
            finally:
                duration = time.monotonic() - started
                with self._idle:
                    self._busy_seconds += duration
                    self._durations.append(duration)
                    self._busy_started.pop(slot, None)
                    self._busy -= 1
                    self._unfinished -= 1
                    self._idle.notify_all()

    def _run_with_retries(self, slot: int, fn: Callable, task):
        attempt = 0
        while True:
            try:
                if self.mode == "thread":
                    return fn(task)
                if self.keepalive:
                    return self._run_keepalive(slot, fn, task)
                return self._run_in_subprocess(fn, task)
            except _TaskTimeout as error:
                raise ExecutorTaskError(
                    f"task exceeded the {self.task_timeout:g}s timeout "
                    f"({_describe_task(task)})",
                    task=task,
                ) from error
            except _TaskCrash as error:
                if attempt >= self.retries:
                    raise ExecutorTaskError(
                        "worker process died while executing "
                        f"{_describe_task(task)} "
                        f"({error}; {attempt + 1} attempt(s))",
                        task=task,
                    ) from error
                with self._lock:
                    self.tasks_retried += 1
                time.sleep(self.retry_backoff * (2**attempt))
                attempt += 1

    # -- persistent workers --------------------------------------------
    def _ensure_worker(self, slot: int) -> _PersistentWorker:
        """The slot's live child, spawning (or respawning) as needed."""
        with self._lock:
            worker = self._process_workers.get(slot)
        if worker is not None:
            if worker.alive():
                return worker
            # Found dead between tasks (e.g. killed externally): retire it
            # so the generation counter and warm totals stay truthful.
            self._retire_worker(slot, kill=True)
        context = multiprocessing.get_context()
        with self._lock:
            generation = self._generations[slot]
        worker = _PersistentWorker(context, generation)
        with self._lock:
            self._process_workers[slot] = worker
        return worker

    def _retire_worker(self, slot: int, kill: bool = False) -> Optional[int]:
        """Stop and forget the slot's child; fold its warm counters in."""
        with self._lock:
            worker = self._process_workers.pop(slot, None)
        if worker is None:
            return None
        exitcode = worker.stop(kill=kill)
        with self._lock:
            self._fold_warm_locked(worker.warm)
            self.worker_respawns += 1
            self._generations[slot] += 1
        return exitcode

    def _fold_warm_locked(self, warm: Dict[str, int]) -> None:
        """Add a finished child's warm-cache counters to the pool's totals."""
        for key in _WARM_KEYS:
            self._warm_retired[key] = self._warm_retired.get(key, 0) + warm.get(key, 0)

    def _run_keepalive(self, slot: int, fn: Callable, task):
        """Run one task on the slot's persistent worker; watchdog the pipe."""
        worker = self._ensure_worker(slot)
        try:
            worker.send(fn, task)
        except (BrokenPipeError, OSError, ValueError) as error:
            exitcode = self._retire_worker(slot, kill=True)
            raise _TaskCrash(f"exit code {exitcode}") from error
        if not worker.connection.poll(self.task_timeout):
            # Watchdog: the task overran its budget.  Kill the worker —
            # its warm cache dies with it — and respawn lazily on the
            # slot's next task.
            self._retire_worker(slot, kill=True)
            raise _TaskTimeout()
        try:
            status, payload, warm = worker.connection.recv()
        except (EOFError, OSError) as error:
            # The child died mid-task (killed, segfault, os._exit): the
            # pipe closes without a payload.
            exitcode = self._retire_worker(slot, kill=True)
            raise _TaskCrash(f"exit code {exitcode}") from error
        worker.warm = dict(warm)
        if status == "error":
            _raise_task_error(payload, task)
        return payload

    # -- fork-per-task fallback ----------------------------------------
    def _run_in_subprocess(self, fn: Callable, task):
        """Run one task in a fresh forked child; kill it on timeout."""
        context = multiprocessing.get_context()
        with _SPAWN_LOCK:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_subprocess_main, args=(sender, fn, task), daemon=True
            )
            process.start()
            sender.close()
        try:
            if not receiver.poll(self.task_timeout):
                process.terminate()
                process.join()
                raise _TaskTimeout()
            try:
                status, payload, warm = receiver.recv()
            except EOFError as error:
                # The child died (killed, segfault, os._exit) before
                # sending anything: the pipe closes without a payload.
                process.join()
                raise _TaskCrash(f"exit code {process.exitcode}") from error
            process.join()
            with self._lock:
                self._fold_warm_locked(warm)
            if status == "error":
                _raise_task_error(payload, task)
            return payload
        finally:
            receiver.close()
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join()

    # ------------------------------------------------------------------
    # Shared-memory segment tracking (zero-copy trace transport)
    # ------------------------------------------------------------------
    def track_segment(self, handle) -> None:
        """Register a trace segment so shutdown can unlink leftovers."""
        with self._lock:
            self._segments[handle.name] = handle

    def release_segment(self, handle) -> None:
        """Unlink one tracked segment (idempotent)."""
        with self._lock:
            self._segments.pop(handle.name, None)
        handle.close()

    def _release_all_segments(self) -> None:
        with self._lock:
            handles = list(self._segments.values())
            self._segments.clear()
        for handle in handles:
            handle.close()

    # ------------------------------------------------------------------
    # Observability + lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Tasks waiting for a worker (excluding the ones executing)."""
        return self._queue.qsize()

    def _warm_totals_locked(self) -> Dict[str, int]:
        """Warm-cache counters summed across every worker, past and present."""
        if self.mode == "thread":
            # Thread workers share this process's global cache.
            return warm_snapshot()
        totals = dict(self._warm_retired)
        for worker in self._process_workers.values():
            for key in _WARM_KEYS:
                if key in worker.warm:
                    totals[key] = totals.get(key, 0) + worker.warm[key]
        for key in _WARM_KEYS:
            totals.setdefault(key, 0)
        return totals

    @staticmethod
    def _percentile(ordered: List[float], q: float) -> float:
        """Nearest-rank percentile of an already-sorted sample."""
        if not ordered:
            return 0.0
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def metrics(self) -> Dict[str, object]:
        now = time.monotonic()
        with self._lock:
            busy = self._busy
            # Busy-time integral over the pool's lifetime: completed task
            # durations plus the partial time of everything in flight.  An
            # instantaneous busy-worker snapshot is almost always 0 by the
            # time a scrape reads it; the integral is what capacity
            # planning actually needs.
            busy_seconds = self._busy_seconds + sum(
                now - started for started in self._busy_started.values()
            )
            lifetime = max(now - self._created, 1e-9)
            ordered = sorted(self._durations)
            warm = self._warm_totals_locked()
            generations = list(self._generations)
            respawns = self.worker_respawns
            completed = self.tasks_completed
            failed = self.tasks_failed
            retried = self.tasks_retried
        return {
            "workers": self.workers,
            "mode": self.mode,
            "keepalive": self.keepalive,
            "busy_workers": busy,
            "utilization": min(1.0, busy_seconds / (self.workers * lifetime)),
            "busy_seconds": busy_seconds,
            "queue_depth": self._queue.qsize(),
            "tasks_completed": completed,
            "tasks_failed": failed,
            "tasks_retried": retried,
            "worker_respawns": respawns,
            "worker_generations": generations,
            "task_latency_p50_seconds": self._percentile(ordered, 0.50),
            "task_latency_p99_seconds": self._percentile(ordered, 0.99),
            "warm_cache": warm,
        }

    def runtime_info(self) -> Dict[str, object]:
        """The runtime facts a campaign outcome records (see metrics())."""
        metrics = self.metrics()
        return {
            "mode": metrics["mode"],
            "keepalive": metrics["keepalive"],
            "workers": metrics["workers"],
            "worker_respawns": metrics["worker_respawns"],
            "worker_generations": metrics["worker_generations"],
            "warm_cache": metrics["warm_cache"],
        }

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted task has finished.

        Returns ``False`` if ``timeout`` elapsed first.  Does not stop the
        pool — use :meth:`shutdown` for that.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._unfinished > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool: refuse new work, finish (or discard) queued work.

        With ``drain=True`` (the default) queued tasks complete first;
        with ``drain=False`` queued-but-unstarted tasks are failed with
        :class:`ExecutorTaskError` and only
        in-flight ones run to completion.  Persistent worker processes are
        stopped after their threads exit, and any tracked shared-memory
        segments are unlinked.
        """
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
        if drain:
            self.drain(timeout)
        else:
            while True:
                try:
                    fn, task, future = self._queue.get_nowait()
                except queue.Empty:
                    break
                future.set_exception(
                    ExecutorTaskError(
                        "worker pool shut down before the task ran", task=task
                    )
                )
                with self._idle:
                    self._unfinished -= 1
                    self._idle.notify_all()
            self.drain(timeout)
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5)
        with self._lock:
            workers = list(self._process_workers.values())
            self._process_workers.clear()
        for worker in workers:
            worker.stop()
        with self._lock:
            # Keep the stopped workers' warm counters visible in post-
            # shutdown metrics() scrapes (a shutdown is not a respawn, so
            # generations stay put).
            for worker in workers:
                self._fold_warm_locked(worker.warm)
        self._release_all_segments()
