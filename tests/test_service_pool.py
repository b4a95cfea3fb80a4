"""Unit tests of the service worker pool: dispatch, crash containment,
timeouts, retries and graceful shutdown."""

import os
import time

import pytest

from repro.campaign.executors import ExecutorTaskError
from repro.campaign.pool import WorkerPool


def _double(task):
    return task * 2


def _boom(task):
    raise ValueError(f"bad task {task}")


def _die(task):
    os._exit(17)  # simulates a segfault/OOM-kill: no exception, no result


def _die_unless_marker(task):
    """Crash until a marker file exists (created on the first attempt)."""
    marker, value = task
    if os.path.exists(marker):
        return value
    open(marker, "w").close()
    os._exit(9)


def _sleep_forever(task):
    time.sleep(600)


@pytest.fixture
def pool():
    pool = WorkerPool(workers=2, mode="thread")
    yield pool
    pool.shutdown(drain=False)


def test_thread_pool_runs_tasks_in_order(pool):
    futures = [pool.submit(_double, n) for n in range(8)]
    assert [f.result(timeout=10) for f in futures] == [n * 2 for n in range(8)]
    assert pool.metrics()["tasks_completed"] == 8
    assert pool.metrics()["tasks_failed"] == 0


def test_task_exceptions_reach_the_future(pool):
    future = pool.submit(_boom, 3)
    with pytest.raises(ValueError, match="bad task 3"):
        future.result(timeout=10)
    assert pool.metrics()["tasks_failed"] == 1


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        WorkerPool(workers=0)
    with pytest.raises(ValueError):
        WorkerPool(mode="coroutine")
    with pytest.raises(ValueError):
        WorkerPool(retries=-1)


def test_process_mode_runs_in_subprocess():
    pool = WorkerPool(workers=1, mode="process")
    try:
        assert pool.submit(_double, 21).result(timeout=30) == 42
    finally:
        pool.shutdown()


def test_process_mode_contains_worker_death():
    pool = WorkerPool(workers=1, mode="process", retries=0)
    try:
        future = pool.submit(_die, None)
        with pytest.raises(ExecutorTaskError, match="worker process died"):
            future.result(timeout=30)
        # The pool survives the casualty and keeps serving.
        assert pool.submit(_double, 5).result(timeout=30) == 10
    finally:
        pool.shutdown()


def test_process_mode_retries_crashes_with_backoff(tmp_path):
    pool = WorkerPool(workers=1, mode="process", retries=2, retry_backoff=0.01)
    try:
        marker = str(tmp_path / "attempted")
        assert pool.submit(_die_unless_marker, (marker, "ok")).result(
            timeout=30
        ) == "ok"
        assert pool.metrics()["tasks_retried"] == 1
        assert pool.metrics()["tasks_completed"] == 1
    finally:
        pool.shutdown()


def test_process_mode_task_exception_not_retried():
    pool = WorkerPool(workers=1, mode="process", retries=3, retry_backoff=0.01)
    try:
        future = pool.submit(_boom, 7)
        with pytest.raises(ExecutorTaskError, match="bad task 7") as excinfo:
            future.result(timeout=30)
        assert excinfo.value.task == 7
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert pool.metrics()["tasks_retried"] == 0
    finally:
        pool.shutdown()


def test_process_mode_timeout_kills_the_task():
    pool = WorkerPool(workers=1, mode="process", task_timeout=0.3, retries=3)
    try:
        future = pool.submit(_sleep_forever, None)
        with pytest.raises(ExecutorTaskError, match="timeout") as excinfo:
            future.result(timeout=30)
        assert excinfo.value.task is None
        assert pool.metrics()["tasks_retried"] == 0  # timeouts don't retry
    finally:
        pool.shutdown()


def test_drain_waits_for_submitted_work(pool):
    futures = [pool.submit(_double, n) for n in range(6)]
    assert pool.drain(timeout=10)
    assert all(f.done() for f in futures)
    assert pool.queue_depth == 0


def test_shutdown_refuses_new_work(pool):
    pool.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        pool.submit(_double, 1)


def test_shutdown_without_drain_fails_queued_tasks():
    import threading

    pool = WorkerPool(workers=1, mode="thread")
    started = threading.Event()

    def _block(_task):
        started.set()
        time.sleep(0.3)

    blocker = pool.submit(_block, None)
    assert started.wait(timeout=10)  # the worker holds it before we queue more
    queued = [pool.submit(_double, n) for n in range(4)]
    pool.shutdown(drain=False)
    blocker.result(timeout=10)
    failed = 0
    for future in queued:
        try:
            future.result(timeout=10)
        except ExecutorTaskError:
            failed += 1
    # The in-flight sleep finished; everything still queued was failed.
    assert failed >= 3


def test_metrics_shape(pool):
    metrics = pool.metrics()
    assert metrics["workers"] == 2
    assert metrics["mode"] == "thread"
    assert set(metrics) >= {
        "busy_workers",
        "utilization",
        "queue_depth",
        "tasks_completed",
        "tasks_failed",
        "tasks_retried",
    }
