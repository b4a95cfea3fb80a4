"""The warm worker runtime: persistent pool workers, warm-cache lifecycle,
zero-copy trace transport, and the busy-time utilization integral.

These tests pin the tentpole guarantees of the persistent-worker pool:

* process-mode workers are spawned once and fed task after task (same PID),
  and their worker-resident warm cache survives across tasks;
* a worker killed mid-task — by the watchdog timeout or by SIGKILL — is
  respawned with an EMPTY warm cache, the task follows the existing retry
  policy (crashes retry, timeouts do not), and the pool stays usable;
* shared-memory / mmap trace transport round-trips traces byte-identically
  and leaves no leaked ``/dev/shm`` segments or temp files after the
  fan-out drains;
* pool-executed replay groups stay byte-identical to the serial path;
* ``utilization`` is a busy-time integral over the pool lifetime, not an
  instantaneous snapshot that is always 0 by the time it is read.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time

import pytest

from repro.campaign import Campaign, ExperimentSettings
from repro.campaign.cache import ResultCache
from repro.campaign.executors import (
    ExecutorTaskError,
    execute_cell_capture,
    execute_replay_group,
)
from repro.core.presets import baseline_config, distributed_frontend_config
from repro.power.energy import build_block_parameters
from repro.service.manager import PoolBackedExecutor
from repro.campaign.pool import WorkerPool
from repro.sim import blocks
from repro.sim.serialization import result_to_dict
from repro.sim.warmcache import (
    TraceRef,
    core_layout,
    publish_trace,
    warm_cache,
)
from repro.thermal.floorplan import build_floorplan

SHM_DIR = "/dev/shm"


# ----------------------------------------------------------------------
# Module-level task functions (pickled into worker processes)
# ----------------------------------------------------------------------
def _pid(task):
    return os.getpid()


def _warm_put(task):
    """Plant a sentinel in this worker's warm trace registry."""
    warm_cache().put_trace("runtime-test-sentinel", "planted")
    return os.getpid()


def _warm_probe(task):
    """(pid, sentinel still present?) of the executing worker."""
    return os.getpid(), warm_cache().get_trace("runtime-test-sentinel") is not None


def _sigkill_unless_marker(task):
    """SIGKILL this worker until a marker file exists (made on attempt 1)."""
    marker = task
    if os.path.exists(marker):
        return os.getpid()
    open(marker, "w").close()
    os.kill(os.getpid(), signal.SIGKILL)


def _sigkill_always(task):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_long(task):
    time.sleep(60)


def _nap(task):
    time.sleep(task)
    return task


# ----------------------------------------------------------------------
# Shared fixtures: one tiny captured trace + power-variant specs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def captured():
    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_200, seed=3)
    spec = Campaign.single(baseline_config(), settings).cells()[0]
    _, trace = execute_cell_capture(spec)
    return spec, trace


def _power_variants(spec, count):
    """Physics-side variants sharing the spec's timing key (and trace)."""
    variants = []
    for index in range(count):
        config = dataclasses.replace(
            spec.config,
            name=f"variant_{index}",
            power=dataclasses.replace(
                spec.config.power,
                leakage_fraction_at_ambient=0.20 + 0.05 * index,
            ),
        )
        variants.append(dataclasses.replace(spec, config=config))
    return variants


def _shm_listing():
    if not os.path.isdir(SHM_DIR):
        return None
    return sorted(os.listdir(SHM_DIR))


# ----------------------------------------------------------------------
# Persistent workers
# ----------------------------------------------------------------------
def test_persistent_worker_runs_many_tasks_in_one_process():
    pool = WorkerPool(workers=1, mode="process")
    try:
        pids = {pool.submit(_pid, None).result(timeout=30) for _ in range(4)}
        assert len(pids) == 1, "keepalive worker must persist across tasks"
        assert pids != {os.getpid()}, "process mode must not run inline"
        metrics = pool.metrics()
        assert metrics["keepalive"] is True
        assert metrics["worker_respawns"] == 0
        assert metrics["worker_generations"] == [0]
    finally:
        pool.shutdown()


def test_warm_cache_survives_across_tasks():
    pool = WorkerPool(workers=1, mode="process")
    try:
        put_pid = pool.submit(_warm_put, None).result(timeout=30)
        probe_pid, warm = pool.submit(_warm_probe, None).result(timeout=30)
        assert probe_pid == put_pid
        assert warm, "warm cache must persist across tasks in one worker"
    finally:
        pool.shutdown()


def _geometry(plan):
    return [(b.name, b.x, b.y, b.width, b.height) for b in plan.blocks()]


def test_core_layout_is_shared_by_physics_variants():
    """Cells that differ only in power/thermal parameters share one die layout."""
    base = baseline_config()
    variant = dataclasses.replace(
        base,
        name="hot",
        power=dataclasses.replace(base.power, leakage_fraction_at_ambient=0.4),
        thermal=dataclasses.replace(base.thermal, convection_resistance_k_per_w=0.3),
    )
    shared = core_layout(base)
    assert core_layout(variant) is shared
    parameters, plan, groups = shared
    assert parameters == build_block_parameters(variant)
    areas = {name: p.area_mm2 for name, p in parameters.items()}
    assert _geometry(plan) == _geometry(build_floorplan(variant, areas))
    assert groups == blocks.block_groups(variant)
    # A structural change is a different die.
    assert core_layout(distributed_frontend_config()) is not shared


def test_timeout_kills_worker_and_respawns_with_empty_cache():
    pool = WorkerPool(workers=1, mode="process", task_timeout=0.5, retries=3)
    try:
        put_pid = pool.submit(_warm_put, None).result(timeout=30)
        future = pool.submit(_sleep_long, None)
        with pytest.raises(ExecutorTaskError, match="timeout"):
            future.result(timeout=30)
        assert pool.metrics()["tasks_retried"] == 0  # timeouts never retry
        probe_pid, warm = pool.submit(_warm_probe, None).result(timeout=30)
        assert probe_pid != put_pid, "watchdog must kill and respawn the worker"
        assert not warm, "a respawned worker must start with an empty warm cache"
        metrics = pool.metrics()
        assert metrics["worker_respawns"] == 1
        assert metrics["worker_generations"] == [1]
    finally:
        pool.shutdown()


def test_sigkill_crash_retries_on_a_fresh_worker(tmp_path):
    pool = WorkerPool(workers=1, mode="process", retries=2, retry_backoff=0.01)
    try:
        put_pid = pool.submit(_warm_put, None).result(timeout=30)
        marker = str(tmp_path / "attempted")
        survivor = pool.submit(_sigkill_unless_marker, marker).result(timeout=30)
        assert survivor != put_pid
        metrics = pool.metrics()
        assert metrics["tasks_retried"] == 1
        assert metrics["worker_respawns"] == 1
        probe_pid, warm = pool.submit(_warm_probe, None).result(timeout=30)
        assert probe_pid == survivor  # the respawned worker keeps serving
        assert not warm
    finally:
        pool.shutdown()


def test_crash_that_exhausts_retries_leaves_pool_usable():
    pool = WorkerPool(workers=1, mode="process", retries=0)
    try:
        future = pool.submit(_sigkill_always, None)
        with pytest.raises(ExecutorTaskError, match="worker process died"):
            future.result(timeout=30)
        assert pool.submit(_pid, None).result(timeout=30) > 0
    finally:
        pool.shutdown()


def test_shutdown_stops_persistent_workers():
    import multiprocessing

    pool = WorkerPool(workers=2, mode="process")
    pids = [pool.submit(_pid, i).result(timeout=30) for i in range(4)]
    assert pids
    pool.shutdown()
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def _pid_after_nap(task):
    time.sleep(0.05)
    return os.getpid()


def test_workers_spawned_together_shut_down_promptly():
    """Two slots fork their workers at the same moment; neither child may
    inherit the other's pipe ends, or the other's exit goes unseen until
    the shutdown's 5 s join timeout runs out.  A tiny thread switch
    interval lets the second slot run between the first one's fork and
    its closing the child's pipe ends, as a slow fork of a large process
    does."""
    import sys

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            pool = WorkerPool(workers=4, mode="process")
            futures = [pool.submit(_pid_after_nap, i) for i in range(4)]
            assert all(future.result(timeout=30) > 0 for future in futures)
            started = time.monotonic()
            pool.shutdown()
            assert time.monotonic() - started < 2.5
    finally:
        sys.setswitchinterval(previous)


# ----------------------------------------------------------------------
# Zero-copy trace transport
# ----------------------------------------------------------------------
def test_shm_transport_roundtrips_byte_identically_without_leaks(captured):
    _, trace = captured
    before = _shm_listing()
    payload, handle = publish_trace(trace, "shm-roundtrip-key")
    try:
        assert isinstance(payload, TraceRef)
        assert payload.kind == "shm"
        warm_cache().clear()  # force a real decode, not a registry hit
        resolved = payload.resolve()
        assert resolved.to_bytes() == trace.to_bytes()
        # A second resolve is served from the warm registry.
        hits_before = warm_cache().snapshot()["trace_hits"]
        assert payload.resolve() is resolved
        assert warm_cache().snapshot()["trace_hits"] == hits_before + 1
    finally:
        if handle is not None:
            handle.close()
            handle.close()  # idempotent
    assert _shm_listing() == before, "shm segment must be unlinked on release"


def test_path_transport_mmaps_the_cache_artifact(captured, tmp_path):
    spec, trace = captured
    cache = ResultCache(tmp_path)
    key = spec.timing_key()
    cache.store_trace(key, trace)
    loaded = cache.load_trace(key)
    payload, handle = publish_trace(loaded, key)
    assert handle is None
    assert isinstance(payload, TraceRef)
    assert payload.kind == "path"
    assert payload.locator == str(cache.trace_path_for(key))
    warm_cache().clear()
    assert payload.resolve().to_bytes() == trace.to_bytes()


def test_publish_falls_back_to_the_trace_itself_when_source_is_stale(
    captured, tmp_path
):
    spec, trace = captured
    cache = ResultCache(tmp_path / "stale")
    key = spec.timing_key()
    cache.store_trace(key, trace)
    loaded = cache.load_trace(key)
    cache.trace_path_for(key).unlink()  # artifact pruned out from under us
    payload, handle = publish_trace(loaded, key)
    # Falls back to shm (or, failing that, the trace itself) — never a
    # dangling path reference.
    try:
        if isinstance(payload, TraceRef):
            assert payload.kind == "shm"
            warm_cache().clear()
            assert payload.resolve().to_bytes() == trace.to_bytes()
        else:
            assert payload is loaded
    finally:
        if handle is not None:
            handle.close()


def test_pool_replay_groups_are_byte_identical_and_leak_free(captured):
    spec, trace = captured
    specs = _power_variants(spec, 3)
    serial = execute_replay_group(((trace,), tuple(specs)))
    serial_docs = [json.dumps(result_to_dict(r), sort_keys=True) for r in serial]

    before = _shm_listing()
    pool = WorkerPool(workers=2, mode="process")
    try:
        executor = PoolBackedExecutor(pool)
        groups = executor.run_tasks(
            execute_replay_group, [((trace,), tuple(specs))] * 2
        )
        assert pool.drain(timeout=30)
        for group in groups:
            docs = [json.dumps(result_to_dict(r), sort_keys=True) for r in group]
            assert docs == serial_docs, "pool replay must be byte-identical"
        warm = pool.metrics()["warm_cache"]
        assert warm["trace_misses"] >= 1  # each worker decoded at most once
        assert warm["solver_misses"] >= 1
    finally:
        pool.shutdown()
    assert _shm_listing() == before, "no shm segments may survive the drain"
    assert pool.metrics()["warm_cache"]["trace_misses"] >= 1


# ----------------------------------------------------------------------
# Utilization integral
# ----------------------------------------------------------------------
def test_utilization_is_a_busy_time_integral():
    pool = WorkerPool(workers=2, mode="thread")
    try:
        futures = [pool.submit(_nap, 0.05) for _ in range(6)]
        for future in futures:
            future.result(timeout=10)
        metrics = pool.metrics()
        # 6 x 50 ms of work really happened; the integral must see it even
        # though no task is running at scrape time.
        assert metrics["busy_workers"] == 0
        assert metrics["busy_seconds"] >= 0.25
        assert metrics["utilization"] > 0.0
        assert 0.0 < metrics["task_latency_p50_seconds"] <= metrics[
            "task_latency_p99_seconds"
        ]
    finally:
        pool.shutdown()


def test_runtime_info_surfaces_in_campaign_outcome(captured):
    from repro.campaign import run_campaign

    settings = ExperimentSettings(
        benchmarks=("gzip",), uops_per_benchmark=800, seed=5
    )
    campaign = Campaign.single(baseline_config(), settings)
    pool = WorkerPool(workers=1, mode="process")
    try:
        outcome = run_campaign(campaign, executor=PoolBackedExecutor(pool))
        assert outcome.runtime["mode"] == "process"
        assert outcome.runtime["keepalive"] is True
        assert set(outcome.runtime["warm_cache"]) >= {
            "solver_hits",
            "solver_misses",
            "trace_hits",
            "trace_misses",
        }
    finally:
        pool.shutdown()
