"""Benchmark child process: set up the program, run one workload, report.

``run.py`` starts this module in fresh interpreters so that set-up time is
measured from process start::

    python3 -m perfbench.harness build
    python3 -m perfbench.harness setup --workload W --t0 <monotonic>
    python3 -m perfbench.harness run --workload W --seed N --seconds S --trace 0|1 --t0 <monotonic>

``build`` compiles the native timing core once into the checkout's build
directory (users compile it once per host, so it is not part of set-up).
``setup`` only sets up and exits.  ``run`` sets up, runs the workload and
prints one JSON document of raw results as its last line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Optional

from perfbench import facts

ROOT = Path.cwd()
#: Scratch space for caches and spans, inside the checkout (git-ignored).
WORKDIR = ROOT / ".bench_build" / "perfbench"


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Setup:
    """Everything a workload needs before it can run."""

    def __init__(self, workload: str) -> None:
        import repro  # noqa: F401 - importing the package is part of set-up
        from repro.sim import native

        start = time.perf_counter()
        self.native = native.load_library()
        self.native_load_s = time.perf_counter() - start
        self.native_reason: Optional[str] = None
        if self.native is None:
            if native.native_disabled():
                self.native_reason = "disabled via REPRO_NATIVE"
            elif shutil.which("cc") or shutil.which("gcc") or shutil.which("clang"):
                self.native_reason = "compile or load failed"
            else:
                self.native_reason = "no C compiler found"
        self.service = self.server = self.client = None
        self.cache_dir: Optional[Path] = None
        if workload == "service_mix":
            self._boot_service()

    def _boot_service(self) -> None:
        from repro.service import (
            CampaignService,
            ServiceClient,
            ShardedResultCache,
            WorkerPool,
            create_server,
        )

        WORKDIR.mkdir(parents=True, exist_ok=True)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="service-", dir=WORKDIR))
        pool = WorkerPool(workers=2, mode="process", task_timeout=60.0)
        self.service = CampaignService(
            pool=pool,
            cache=ShardedResultCache(self.cache_dir, shards=8),
            max_concurrent_jobs=4,
        )
        self.server = create_server(self.service)
        self.server.serve_in_background()
        self.client = ServiceClient(self.server.address, timeout=30.0)
        self.client.healthz()

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.service.shutdown(drain=True, timeout=30.0)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
def run_service(setup: Setup, seed: int, seconds: int) -> Dict:
    """Drive the in-process service with the open-loop generator process."""
    from perfbench import loadgen

    generator = subprocess.Popen(
        [sys.executable, "-m", "perfbench.loadgen", "--url", setup.server.address,
         "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = generator.communicate(timeout=150)
    finally:
        if generator.poll() is None:
            generator.kill()
            generator.wait()
    if generator.returncode != 0:
        raise RuntimeError(f"load generator exited with {generator.returncode}")
    records = json.loads(out.strip().splitlines()[-1])
    metrics = setup.client.metrics()
    workers = [pid for pid in facts.child_pids() if pid != generator.pid]
    peak = facts.peak_rss_mb(workers)
    cache_bytes = setup.service.cache.stats()["total_bytes"]

    checks = []
    for record in records:
        if record["ok"] and record["kind"] == "repeat":
            original = records[record["ref"]]
            if record["digest"] != original.get("digest"):
                record["ok"] = False
                checks.append(f"job {record['index']}: repeat differs from job {record['ref']}")
        elif not record["ok"]:
            checks.append(f"job {record['index']}: {record.get('error')}")
    ok = [r for r in records if r["ok"]]
    latencies = [r["latency_s"] for r in ok] or [float("nan")]
    repeats = [r["latency_s"] for r in ok if r["kind"] == "repeat"] or [float("nan")]
    wall = max(r.get("done_offset_s", 0.0) for r in records)
    good = sum(r["latency_s"] <= loadgen.LATENCY_LIMIT_S for r in ok)

    def median_of(key):
        values = [r[key] for r in records if key in r]
        return statistics.median(values) if values else 0.0

    pool = metrics["pool"]
    warm = pool["warm_cache"]
    by_kind: Dict[str, list] = {}
    for record in ok:
        by_kind.setdefault(record["kind"], []).append(record["latency_s"])
    kinds = dict(Counter(record["kind"] for record in records))
    return {
        "campaign_s": wall,
        "warm_campaign_s": statistics.median(repeats),
        "job_p50_s": facts.percentile(latencies, 0.50),
        "job_p90_s": facts.percentile(latencies, 0.90),
        "goodput_jobs_per_s": good / wall,
        "peak_rss_mb": peak,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "checks": checks,
        "digest": facts.combined_digest(
            (f"{r['index']}:{r['kind']}", r.get("digest", "missing")) for r in records
        ),
        "latency_by_kind_s": {
            kind: {"p50": statistics.median(v), "max": max(v)} for kind, v in by_kind.items()
        },
        "path_split": {
            "jobs": kinds,
            "cells": sum(r.get("cells_total", 0) for r in records),
            "simulated": sum(r.get("cells_simulated", 0) for r in records),
            "captured": sum(r.get("traces_captured", 0) for r in records),
            "replayed": sum(r.get("cells_replayed", 0) for r in records),
            "cache_hits": sum(r.get("cache_hits", 0) for r in records),
        },
        "layers": {
            "service.submit_s": median_of("submit_s"),
            "service.queue_wait_s": median_of("queue_wait_s"),
            "service.run_s": median_of("run_s"),
            "service.fetch_s": median_of("fetch_s"),
            "service.generator_lag_s": facts.percentile([r.get("lag_s", 0.0) for r in records], 0.90),
            "service.pool_utilization": pool["utilization"],
            "service.task_p99_s": pool["task_latency_p99_seconds"],
            "service.tasks_failed": pool["tasks_failed"],
            "service.worker_respawns": pool["worker_respawns"],
            "campaign.cache_hit_ratio": metrics["cache"]["hit_rate"] or 0.0,
            "campaign.cache_bytes": cache_bytes,
            "campaign.cells_executed": sum(r.get("cells_simulated", 0) for r in records),
            "campaign.traces_captured": sum(r.get("traces_captured", 0) for r in records),
            "sim.cells_replayed": sum(r.get("cells_replayed", 0) for r in records),
            "warm.solver_hit_ratio": _ratio(warm["solver_hits"], warm["solver_misses"]),
            "warm.trace_hit_ratio": _ratio(warm["trace_hits"], warm["trace_misses"]),
        },
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# Local workloads
# ----------------------------------------------------------------------
def run_local_workload(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    from perfbench import local

    WORKDIR.mkdir(parents=True, exist_ok=True)
    report = local.run_local(workload, seed, seconds, trace, WORKDIR)
    tasks = report.pop("task_seconds")
    report.update(
        job_p50_s=facts.percentile(tasks, 0.50),
        job_p90_s=facts.percentile(tasks, 0.90),
        peak_rss_mb=facts.peak_rss_mb(),
    )
    traced = report.pop("trace", None)
    if traced is not None:
        report["layers"] = _local_layers(traced)
        report["engines"] = {
            f"{mode}: {reason}": n for (mode, reason), n in traced["tracer"].engines.items()
        }
        spans_path = WORKDIR / f"spans-{workload}-{seed}.json"
        spans_path.write_text(json.dumps(traced["tracer"].records()))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def _local_layers(traced: Dict) -> Dict:
    tracer = traced["tracer"]
    own = tracer.self_seconds()
    counts = tracer.counts
    engines = sum(tracer.engines.values())
    fast = sum(n for (mode, _), n in tracer.engines.items() if mode == "fast")
    layers = {
        name: own.get(name, 0.0)
        for name in (
            "workloads.generate_s", "workloads.decode_s", "sim.timing_s", "sim.engine_init_s",
            "sim.engine_loop_s", "sim.physics_s", "sim.replay_s", "thermal.solve_s",
            "thermal.factor_s", "power.leakage_s", "power.dynamic_s", "dtm.policy_s",
            "campaign.cache_load_s", "campaign.cache_store_s", "campaign.trace_load_s",
            "campaign.trace_store_s",
        )
    }
    layers["campaign.orchestration_s"] = own.get("campaign.run_s", 0.0) + own.get(
        "campaign.task_s", 0.0
    )
    split = traced["split"]
    warm = traced["warm"]
    layers.update({
        "workloads.uops": counts["workloads.uops"],
        "sim.timing_intervals": counts["sim.timing_s"],
        "sim.fast_path_ratio": fast / engines if engines else 0.0,
        "sim.cells_replayed": split["replayed"],
        "thermal.solves": counts["thermal.solve_s"],
        "thermal.factorizations": counts["thermal.factor_s"],
        "campaign.cache_bytes": traced["cache_bytes"],
        "campaign.cache_hit_ratio": _ratio(
            counts["campaign.cache_hits"], counts["campaign.cache_lookups"] - counts["campaign.cache_hits"]
        ),
        "campaign.cells_executed": split["coupled"] + split["captured"],
        "campaign.traces_captured": split["captured"],
        "warm.solver_hit_ratio": _ratio(warm["solver_hits"], warm["solver_misses"]),
        "warm.trace_hit_ratio": _ratio(warm["trace_hits"], warm["trace_misses"]),
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["overhead_s"],
        "trace.unattributed_s": traced["wall_s"] - sum(own.values()),
    })
    return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench child process")
    parser.add_argument("mode", choices=("build", "setup", "run"))
    parser.add_argument("--workload", default="paper_figures")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    if args.mode == "build":
        from repro.sim import native

        print(json.dumps({"native": native.load_library() is not None}))
        return 0

    setup = Setup(args.workload)
    setup_s = time.monotonic() - t0
    try:
        if args.mode == "setup":
            report: Dict = {}
        elif args.workload == "service_mix":
            report = run_service(setup, args.seed, args.seconds)
        else:
            report = run_local_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        setup.close()
    report.update(
        setup_s=setup_s,
        native_load_s=setup.native_load_s,
        fingerprint=facts.fingerprint(ROOT, setup.native is not None, setup.native_reason)
        if args.mode == "run" else None,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
