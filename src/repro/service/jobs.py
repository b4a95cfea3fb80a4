"""The service's job model: states, progress events, and the job registry.

A :class:`Job` is one submitted campaign travelling through the lifecycle
``pending -> running -> done | failed | cancelled``.  Besides its state it
carries everything a client can ask about over HTTP: the submitted spec
payload, per-phase progress counters, wall-clock timings, a running ETA,
the terminal error (if any) and — once done — the full results payload
(per-variant, per-benchmark serialized :class:`~repro.sim.results.
SimulationResult` dictionaries, exactly what :func:`repro.sim.serialization.
result_to_dict` produces for a local :func:`~repro.campaign.run_campaign`).

Every observable change appends a monotonically numbered *event* to the
job's event log; :meth:`Job.events_since` is the long-poll primitive the
HTTP layer's NDJSON streaming endpoint (``GET /jobs/<id>/events``) rides
on.  The :class:`JobStore` hands out monotonic integer job ids and is the
single registry the server, the dispatcher and the metrics endpoint share.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Dict, List, Optional

from repro.campaign.spec import Campaign


class JobState(str, enum.Enum):
    """Lifecycle of a submitted campaign job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class Job:
    """One submitted campaign and everything observable about it.

    Thread-safe: the executing job thread mutates it, HTTP handler threads
    read it, and the event log's condition variable wakes streaming
    watchers.  All mutation goes through the ``mark_*`` / ``record_*``
    methods, each of which appends an event under the lock.
    """

    def __init__(
        self,
        job_id: int,
        campaign: Campaign,
        payload: Optional[Dict] = None,
        tenant: str = "default",
    ) -> None:
        self.id = job_id
        self.campaign = campaign
        self.payload = dict(payload or {})
        self.tenant = tenant
        self.state = JobState.PENDING
        self.error: Optional[str] = None
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Progress counters (cells_total is known at submission; the rest
        # fill in as the executor completes tasks / the outcome lands).
        self.cells_total = len(campaign)
        self.cells_done = 0
        self.cells_simulated = 0
        self.cells_replayed = 0
        self.cells_derived = 0
        self.cache_hits = 0
        self.traces_captured = 0
        #: Per-variant results payload, set on DONE.
        self.results: Optional[Dict] = None
        #: Executor description + outcome describe() line, set on DONE.
        self.outcome_description: Optional[str] = None
        self._cancel = threading.Event()
        self._lock = threading.Lock()
        self._events: List[Dict] = []
        self._events_ready = threading.Condition(self._lock)
        self._append_event("state", state=self.state.value)

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def _append_event(self, event_kind: str, **fields) -> None:
        """Append one event (callers must NOT hold ``self._lock``)."""
        with self._events_ready:
            event = {"seq": len(self._events), "event": event_kind, "job": self.id}
            event.update(fields)
            self._events.append(event)
            self._events_ready.notify_all()

    def events_since(self, seq: int, timeout: Optional[float] = None) -> List[Dict]:
        """Events with ``seq >= seq``, blocking up to ``timeout`` for news.

        Returns an empty list on timeout (the streaming endpoint uses that
        as its heartbeat tick); with ``timeout=None`` returns immediately
        whatever is buffered.
        """
        with self._events_ready:
            if timeout is not None and len(self._events) <= seq:
                self._events_ready.wait(timeout)
            return list(self._events[seq:])

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation; returns whether the request was accepted.

        A terminal job cannot be cancelled.  A pending job is marked
        cancelled immediately; a running one drains at the next task
        boundary (the executor adapter checks :attr:`cancelled` before
        every task submission and between completions).
        """
        with self._lock:
            if self.state.terminal:
                return False
            already = self._cancel.is_set()
            self._cancel.set()
        if not already:
            self._append_event("cancel_requested")
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    # ------------------------------------------------------------------
    # State transitions (called by the executing job thread)
    # ------------------------------------------------------------------
    def _transition(self, state: JobState, **fields) -> None:
        with self._lock:
            self.state = state
            if state is JobState.RUNNING:
                self.started_at = time.time()
            elif state.terminal:
                self.finished_at = time.time()
        self._append_event("state", state=state.value, **fields)

    def mark_running(self) -> None:
        self._transition(JobState.RUNNING)

    def mark_done(self, results: Dict, description: str, counters: Dict) -> None:
        with self._lock:
            self.results = results
            self.outcome_description = description
            self.cells_simulated = counters.get("cells_executed", self.cells_simulated)
            self.cells_replayed = counters.get("cells_replayed", self.cells_replayed)
            self.cells_derived = counters.get("cells_derived", self.cells_derived)
            self.cache_hits = counters.get("cache_hits", self.cache_hits)
            self.traces_captured = counters.get(
                "traces_captured", self.traces_captured
            )
            self.cells_done = self.cells_total
        self._transition(JobState.DONE, description=description)

    def mark_failed(self, error: str) -> None:
        with self._lock:
            self.error = error
        self._transition(JobState.FAILED, error=error)

    def mark_cancelled(self) -> None:
        self._transition(JobState.CANCELLED)

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def record_progress(self, kind: str, cells: int) -> None:
        """Account one executor task of ``kind`` that completed ``cells``.

        ``kind`` is ``"replay"`` (a replay group of ``cells`` cells),
        ``"derived"`` (cells the plan derived from their nominal twins, no
        task run) or a timing run's mode: ``"run"``, ``"capture"`` or
        ``"trace"``, the last a chip thread's capture that completes no
        campaign cell.
        """
        with self._lock:
            self.cells_done += cells
            if kind == "replay":
                self.cells_replayed += cells
            elif kind == "derived":
                self.cells_derived += cells
            else:
                self.cells_simulated += 1
                if kind != "run":
                    self.traces_captured += 1
            snapshot = self._progress_locked()
        self._append_event("progress", kind=kind, cells=cells, **snapshot)

    def record_cache_hits(self, hits: int) -> None:
        """Account cells satisfied straight from the result cache."""
        if hits <= 0:
            return
        with self._lock:
            self.cache_hits += hits
            self.cells_done += hits
            snapshot = self._progress_locked()
        self._append_event("progress", kind="cached", cells=hits, **snapshot)

    def _progress_locked(self) -> Dict:
        done = self.cells_done
        total = self.cells_total
        snapshot = {
            "cells_done": done,
            "cells_total": total,
            "cells_simulated": self.cells_simulated,
            "cells_replayed": self.cells_replayed,
            "cells_derived": self.cells_derived,
            "cache_hits": self.cache_hits,
            "traces_captured": self.traces_captured,
        }
        if self.started_at is not None and 0 < done < total:
            elapsed = time.time() - self.started_at
            snapshot["eta_seconds"] = round(elapsed * (total - done) / done, 3)
        return snapshot

    # ------------------------------------------------------------------
    # HTTP payloads
    # ------------------------------------------------------------------
    def to_payload(self, include_results: bool = False) -> Dict:
        with self._lock:
            payload: Dict = {
                "id": self.id,
                "state": self.state.value,
                "tenant": self.tenant,
                "campaign": self.campaign.name,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "cancel_requested": self._cancel.is_set(),
            }
            payload.update(self._progress_locked())
            if self.error is not None:
                payload["error"] = self.error
            if self.outcome_description is not None:
                payload["description"] = self.outcome_description
            if include_results and self.results is not None:
                payload["results"] = self.results
            return payload


class JobStore:
    """Registry of every job the service has seen, with monotonic ids."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[int, Job] = {}
        self._next_id = 1

    def create(
        self,
        campaign: Campaign,
        payload: Optional[Dict] = None,
        tenant: str = "default",
    ) -> Job:
        with self._lock:
            job = Job(self._next_id, campaign, payload=payload, tenant=tenant)
            self._jobs[job.id] = job
            self._next_id += 1
            return job

    def get(self, job_id: int) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every job, in submission (id) order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def counts(self) -> Dict[str, int]:
        """Job totals by state (the /metrics building block)."""
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs():
            counts[job.state.value] += 1
        counts["total"] = len(self._jobs)
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
