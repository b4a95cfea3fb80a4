"""Load benchmark of the campaign service HTTP pipeline.

Boots an in-process :class:`~repro.service.manager.CampaignService` behind
its :class:`~repro.service.server.ServiceServer`, fires a repeat-heavy
workload at it over real HTTP, and emits a machine-readable
``benchmarks/output/BENCH_service.json`` (uploaded by CI) with:

* **submission throughput and p99 latency** — timed ``POST /jobs`` calls
  (the submit path validates the spec and enqueues; it must never wait for
  simulation);
* **aggregate cells/s** — total cells completed across every job divided
  by the wall-clock of the whole run; and
* **cache hit rate** on the repeat-heavy workload: wave 1 populates the
  shared sharded cache with :data:`DISTINCT_SPECS` distinct campaigns,
  wave 2 re-submits them :data:`REPEAT_ROUNDS` times — the issue's
  acceptance floor (hit rate > 0.5) is asserted in-file.

Correctness rides along: every repeat job's result payload must be
identical to its wave-1 original (the cache is content-addressed, so a
hit IS the original document).

A second section (schema v2, ``worker_runtime`` key) benchmarks the
process-worker runtime itself on a replay-heavy workload: the same
power-sweep replay groups driven through fork-per-task workers
(``keepalive=False``, cold caches every task) and through persistent
workers (``keepalive=True``, warm solver/trace caches), recording cells/s
and task-latency percentiles for both.  ``REPRO_BENCH_STRICT=1`` asserts
the persistent runtime's >= 2x cells/s floor.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

from repro.campaign import Campaign, ExperimentSettings
from repro.campaign.executors import execute_cell_capture, execute_replay_group
from repro.core.presets import baseline_config
from repro.service import (
    CampaignService,
    ServiceClient,
    ShardedResultCache,
    WorkerPool,
    create_server,
)
from repro.service.manager import PoolBackedExecutor
from repro.sim.serialization import result_to_dict
from repro.sim.warmcache import warm_cache

#: Distinct campaign specs in the populate wave (2 cells each).
DISTINCT_SPECS = 4
#: How many times wave 2 re-submits each distinct spec.
REPEAT_ROUNDS = 3
#: Micro-ops per cell; small enough to keep the bench quick, large enough
#: that simulated work dominates HTTP overhead.
TRACE_UOPS = 1_200
#: Acceptance floor from the issue: repeat-heavy traffic must be served
#: mostly from the shared cache.
MIN_HIT_RATE = 0.5

_BENCH_PAIRS = (("gzip", "swim"), ("mcf", "eon"), ("gzip", "mcf"), ("swim", "eon"))


def _specs() -> list:
    return [
        {
            "name": f"bench-{i}",
            "benchmarks": list(_BENCH_PAIRS[i % len(_BENCH_PAIRS)]),
            "uops": TRACE_UOPS,
            "seed": 11 + i,
        }
        for i in range(DISTINCT_SPECS)
    ]


def _submit_all(client: ServiceClient, specs) -> tuple:
    """POST every spec, returning (job ids, per-request submit latencies)."""
    ids, latencies = [], []
    for spec in specs:
        start = time.perf_counter()
        job = client.submit(spec)
        latencies.append(time.perf_counter() - start)
        ids.append(job["id"])
    return ids, latencies


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


def test_bench_service_throughput_json(tmp_path, report_writer):
    cache = ShardedResultCache(tmp_path / "cache", shards=8)
    service = CampaignService(
        pool=WorkerPool(workers=4, mode="thread"),
        cache=cache,
        max_concurrent_jobs=4,
    )
    server = create_server(service)
    server.serve_in_background()
    client = ServiceClient(server.address, timeout=60)
    try:
        wall_start = time.perf_counter()
        specs = _specs()

        # Wave 1: populate the cache with the distinct specs.
        first_ids, latencies = _submit_all(client, specs)
        originals = {}
        for spec_index, job_id in enumerate(first_ids):
            final = client.wait(job_id, timeout=600)
            assert final["state"] == "done"
            originals[spec_index] = json.dumps(
                final["results"]["summaries"], sort_keys=True
            )

        # Wave 2: repeat-heavy traffic — every spec again, several rounds.
        repeat_ids = []
        for _ in range(REPEAT_ROUNDS):
            ids, more = _submit_all(client, specs)
            latencies.extend(more)
            repeat_ids.append(ids)
        cache_hits = 0
        for ids in repeat_ids:
            for spec_index, job_id in enumerate(ids):
                final = client.wait(job_id, timeout=600)
                assert final["state"] == "done"
                cache_hits += final["cache_hits"]
                served = json.dumps(
                    final["results"]["summaries"], sort_keys=True
                )
                assert served == originals[spec_index]
        wall_seconds = time.perf_counter() - wall_start

        metrics = client.metrics()
        total_jobs = DISTINCT_SPECS * (1 + REPEAT_ROUNDS)
        total_cells = 2 * total_jobs
        hit_rate = cache_hits / total_cells
        payload = {
            "schema_version": 2,
            "parameters": {
                "distinct_specs": DISTINCT_SPECS,
                "repeat_rounds": REPEAT_ROUNDS,
                "cells_per_job": 2,
                "trace_uops": TRACE_UOPS,
                "workers": 4,
                "worker_mode": "thread",
                "cache_shards": 8,
            },
            "jobs": total_jobs,
            "wall_seconds": wall_seconds,
            "requests_per_second": len(latencies) / sum(latencies),
            "submit_latency_p50_seconds": _percentile(latencies, 0.50),
            "submit_latency_p99_seconds": _percentile(latencies, 0.99),
            "cells_per_second_aggregate": total_cells / wall_seconds,
            "cache_hit_rate": hit_rate,
            "min_cache_hit_rate": MIN_HIT_RATE,
            "server_metrics": {
                "pool": metrics["pool"],
                "cache": metrics["cache"],
                "jobs": metrics["jobs"],
            },
        }
        output_path = Path(__file__).parent / "output" / "BENCH_service.json"
        output_path.parent.mkdir(exist_ok=True)
        output_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        report_writer(
            "BENCH_service",
            f"{total_jobs} jobs ({total_cells} cells) over HTTP in "
            f"{wall_seconds:.2f}s: "
            f"{payload['requests_per_second']:.0f} submits/s "
            f"(p99 {payload['submit_latency_p99_seconds'] * 1000:.1f} ms), "
            f"{payload['cells_per_second_aggregate']:.2f} cells/s aggregate, "
            f"cache hit rate {hit_rate:.2f} [JSON: {output_path}]",
        )

        assert metrics["jobs"]["done"] == total_jobs
        assert hit_rate > MIN_HIT_RATE, (
            f"repeat-heavy workload only hit the cache at {hit_rate:.2f} "
            f"(acceptance floor: {MIN_HIT_RATE})"
        )
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=60)


# ----------------------------------------------------------------------
# Worker runtime: fork-per-task vs persistent workers (schema v2 section)
# ----------------------------------------------------------------------

#: Replay-group tasks per phase and power-side variants per task.  Every
#: task replays the SAME captured trace, so a persistent worker decodes it
#: once and factorizes the thermal solver once, while fork-per-task pays
#: both (plus the fork) on every single task.
RUNTIME_TASKS = 12
RUNTIME_VARIANTS = 3
RUNTIME_UOPS = 1_200
RUNTIME_WORKERS = 2
#: Acceptance floor from the issue: persistent workers must at least
#: double replay-heavy throughput over fork-per-task.
MIN_WARM_SPEEDUP = 2.0


def _runtime_tasks():
    """One captured trace + RUNTIME_TASKS identical power-sweep groups."""
    settings = ExperimentSettings(
        benchmarks=("gzip",), uops_per_benchmark=RUNTIME_UOPS, seed=23
    )
    spec = Campaign.single(baseline_config(), settings).cells()[0]
    _, trace = execute_cell_capture(spec)
    variants = []
    for index in range(RUNTIME_VARIANTS):
        config = dataclasses.replace(
            spec.config,
            name=f"bench_variant_{index}",
            power=dataclasses.replace(
                spec.config.power,
                leakage_fraction_at_ambient=0.20 + 0.04 * index,
            ),
        )
        variants.append(dataclasses.replace(spec, config=config))
    return trace, [((trace,), tuple(variants))] * RUNTIME_TASKS


def _run_runtime_phase(keepalive: bool, tasks) -> tuple:
    """Time one fan-out; returns (result docs, phase stats)."""
    # Forked children inherit the parent's process-global warm cache —
    # clear it first so the cold phase is genuinely cold and the warm
    # phase measures in-worker warm-up, not inherited state.
    warm_cache().clear()
    pool = WorkerPool(workers=RUNTIME_WORKERS, mode="process", keepalive=keepalive)
    try:
        executor = PoolBackedExecutor(pool)
        start = time.perf_counter()
        groups = executor.run_tasks(execute_replay_group, tasks)
        pool.drain(timeout=600)
        wall = time.perf_counter() - start
        metrics = pool.metrics()
    finally:
        pool.shutdown()
    docs = [
        json.dumps(result_to_dict(result), sort_keys=True)
        for group in groups
        for result in group
    ]
    cells = len(tasks) * RUNTIME_VARIANTS
    stats = {
        "keepalive": keepalive,
        "wall_seconds": wall,
        "cells_per_second": cells / wall,
        "task_latency_p50_seconds": metrics["task_latency_p50_seconds"],
        "task_latency_p99_seconds": metrics["task_latency_p99_seconds"],
        "worker_respawns": metrics["worker_respawns"],
        "warm_cache": metrics["warm_cache"],
    }
    return docs, stats


def test_bench_worker_runtime_warm_vs_cold(report_writer):
    trace, tasks = _runtime_tasks()

    cold_docs, cold = _run_runtime_phase(keepalive=False, tasks=tasks)
    warm_docs, warm = _run_runtime_phase(keepalive=True, tasks=tasks)

    # Byte-identity first: the warm runtime must not change a single result.
    assert warm_docs == cold_docs, "warm replay diverged from fork-per-task"

    speedup = warm["cells_per_second"] / cold["cells_per_second"]
    section = {
        "parameters": {
            "tasks": RUNTIME_TASKS,
            "variants_per_task": RUNTIME_VARIANTS,
            "trace_uops": RUNTIME_UOPS,
            "workers": RUNTIME_WORKERS,
            "trace_bytes": len(trace.to_bytes()),
        },
        "fork_per_task": cold,
        "persistent": warm,
        "warm_speedup": speedup,
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "byte_identical": True,
    }

    # Merge into the JSON the HTTP bench wrote (fresh file if it did not
    # run this session) and stamp the v2 schema.
    output_path = Path(__file__).parent / "output" / "BENCH_service.json"
    output_path.parent.mkdir(exist_ok=True)
    try:
        payload = json.loads(output_path.read_text())
    except (OSError, json.JSONDecodeError):
        payload = {}
    payload["schema_version"] = 2
    payload["worker_runtime"] = section
    output_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    report_writer(
        "BENCH_worker_runtime",
        f"{RUNTIME_TASKS} replay groups x {RUNTIME_VARIANTS} cells: "
        f"fork-per-task {cold['cells_per_second']:.1f} cells/s "
        f"(p99 {cold['task_latency_p99_seconds'] * 1000:.0f} ms) vs "
        f"persistent {warm['cells_per_second']:.1f} cells/s "
        f"(p99 {warm['task_latency_p99_seconds'] * 1000:.0f} ms) — "
        f"{speedup:.2f}x warm speedup [JSON: {output_path}]",
    )

    # The warm workers must actually have reused their caches: one trace
    # decode and one factorization per worker, hits for everything else.
    assert warm["warm_cache"]["trace_hits"] > warm["warm_cache"]["trace_misses"]
    assert warm["warm_cache"]["solver_hits"] > warm["warm_cache"]["solver_misses"]
    assert speedup > 1.0
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"persistent workers are only {speedup:.2f}x fork-per-task on the "
            f"replay-heavy workload (acceptance floor: {MIN_WARM_SPEEDUP}x)"
        )
