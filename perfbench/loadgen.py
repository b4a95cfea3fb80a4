"""Open-loop job generator for the ``service_mix`` workload.

Runs as its own process::

    python3 -m perfbench.loadgen --url http://127.0.0.1:PORT --seed N --seconds S

It derives a job plan from the seed (kinds, payloads and Poisson due
times), sends it over at most :data:`CONNECTIONS` concurrent connections,
and prints one JSON list of per-job records as its last line.  A job is
timed from the moment it was *due*, so a stalled connection delays every
later job and that wait shows in their latency; ``lag_s`` records how late
each job was actually sent.

Each connection follows one job at a time: ``POST /jobs``, then the job's
NDJSON event stream until it is terminal, then ``GET /jobs/<id>?results=1``.
"""

from __future__ import annotations

import argparse
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from perfbench import facts

#: Offered load: Poisson arrivals at this mean rate (jobs per second).  The
#: arrival times are drawn conditioned on the job count, so every run's
#: offered window is exactly ``count / RATE_JOBS_PER_S`` seconds long.
RATE_JOBS_PER_S = 5.0
#: A job counts towards goodput only if it finished within this limit.
LATENCY_LIMIT_S = 2.0
#: Concurrent client connections (one in-flight job each).
CONNECTIONS = 2
#: Jobs per run, whatever the run length, so p90 has >= 10 samples beyond it.
MIN_JOBS = 100
#: Job kinds come in shuffled blocks of this composition, so every run
#: offers the same mix and slow jobs cannot pile up in one stretch.  DTM
#: jobs are set above 10% so that p90 falls inside the slowest group of
#: jobs, not on the boundary between two groups, where it would jump
#: between runs.
BLOCK = {"repeat": 13, "capture": 2, "replay": 2, "dtm": 3}
#: A repeat or replay only references a job at least this many places back;
#: the plan opens with this many captures so there is always one to use.
REFERENCE_LAG = 6
#: Workloads of the fresh captures, each used equally often in a run.
BENCHMARKS = ("gzip", "gcc", "mcf", "crafty", "swim", "equake", "mesa")
FRESH_UOPS = 2_000
#: Every DTM job runs the same workload, so the slow group has one cost.
DTM_BENCHMARK = "gzip"
DTM_UOPS = 2_000
TENANT = "bench"
#: Client-side bound on any single HTTP request or event stream.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class PlannedJob:
    index: int
    kind: str
    offset_s: float
    payload: Dict
    #: The earlier job a repeat re-sends, or whose traces a replay reuses.
    ref: Optional[int] = None


def _kinds(rng: random.Random, seconds: int) -> List[str]:
    block = [kind for kind, count in BLOCK.items() for _ in range(count)]
    target = max(MIN_JOBS, round(RATE_JOBS_PER_S * seconds)) - REFERENCE_LAG
    kinds = ["capture"] * REFERENCE_LAG
    for _ in range(-(-target // len(block))):
        rng.shuffle(block)
        kinds.extend(block)
    return kinds


def plan(seed: int, seconds: int) -> List[PlannedJob]:
    """The job plan of one run: a pure function of ``seed`` and ``seconds``."""
    rng = random.Random(seed)
    kinds = _kinds(rng, seconds)
    # Given the count, Poisson arrival times are uniform order statistics.
    window = len(kinds) / RATE_JOBS_PER_S
    offsets = sorted(rng.uniform(0.0, window) for _ in kinds)
    capture_benchmarks: List[str] = []

    jobs: List[PlannedJob] = []
    replayed = set()
    for index, (kind, offset) in enumerate(zip(kinds, offsets)):
        old = jobs[: max(0, index - REFERENCE_LAG + 1)]
        if kind == "repeat":
            ref = rng.choice([job.index for job in old if job.kind != "repeat"])
            jobs.append(PlannedJob(index, kind, offset, jobs[ref].payload, ref))
            continue
        if kind == "replay":
            captures = [job.index for job in old if job.kind == "capture" and job.index not in replayed]
            if captures:
                ref = rng.choice(captures)
                replayed.add(ref)
                payload = dict(jobs[ref].payload, name=f"replay-{index}", dtm_policies=["none"])
                jobs.append(PlannedJob(index, kind, offset, payload, ref))
                continue
            kind = "capture"
        payload = {
            "name": f"{kind}-{index}",
            "tenant": TENANT,
            "configs": ["baseline", "bank_hopping"],
            "seed": rng.randrange(1, 2**31),
        }
        if kind == "capture":
            # Two open-loop cells: two trace captures, two results.
            if not capture_benchmarks:
                capture_benchmarks = rng.sample(BENCHMARKS, len(BENCHMARKS))
            payload.update(benchmarks=[capture_benchmarks.pop()], uops=FRESH_UOPS)
        else:
            # A feedback DTM policy (one coupled reference-path cell) next to
            # its no-DTM twin (one fast capture): a long job that holds one
            # worker, not both.
            payload.update(
                configs=["baseline"],
                benchmarks=[DTM_BENCHMARK],
                uops=DTM_UOPS,
                dtm_policies=["fetch_throttle", "none"],
            )
        jobs.append(PlannedJob(index, kind, offset, payload))
    return jobs


def summaries_digest(summaries: Dict) -> str:
    """Digest of a job's per-variant, per-benchmark result documents."""
    return facts.combined_digest(
        (f"{variant}/{benchmark}", facts.document_digest(summaries[variant][benchmark]))
        for variant in sorted(summaries)
        for benchmark in sorted(summaries[variant])
    )


def _run_job(client, job: PlannedJob, due: float, ref_done: Optional[threading.Event]) -> Dict:
    from repro.service.client import ServiceError, ServiceUnavailable

    record: Dict = {"index": job.index, "kind": job.kind, "ref": job.ref, "ok": False}
    if ref_done is not None and not ref_done.wait(REQUEST_TIMEOUT_S):
        record["error"] = f"referenced job {job.ref} never finished"
        return record
    sent = time.monotonic()
    record["lag_s"] = sent - due
    try:
        job_id = client.submit(job.payload)["id"]
        submitted = time.monotonic()
        record["submit_s"] = submitted - sent
        for _ in client.events(job_id):
            pass
        fetch_start = time.monotonic()
        final = client.job(job_id, results=True)
        done = time.monotonic()
    except (ServiceError, ServiceUnavailable, OSError, ValueError) as error:
        record["error"] = f"{type(error).__name__}: {error}"
        return record
    record.update(
        fetch_s=done - fetch_start,
        latency_s=done - due,
        done_offset_s=done,
        state=final["state"],
        queue_wait_s=(final["started_at"] or final["created_at"]) - final["created_at"],
        run_s=(final["finished_at"] or 0.0) - (final["started_at"] or 0.0),
        cells_total=final.get("cells_total", 0),
        cells_simulated=final.get("cells_simulated", 0),
        cells_replayed=final.get("cells_replayed", 0),
        cache_hits=final.get("cache_hits", 0),
        traces_captured=final.get("traces_captured", 0),
    )
    if final["state"] != "done":
        record["error"] = final.get("error", final["state"])
        return record
    # Digested after the run, off the connection's critical path.
    record["summaries"] = final["results"]["summaries"]
    record["ok"] = True
    return record


def drive(url: str, jobs: List[PlannedJob]) -> List[Dict]:
    """Send the plan open-loop over :data:`CONNECTIONS` connections."""
    from repro.service.client import ServiceClient

    records: List[Optional[Dict]] = [None] * len(jobs)
    done_events = [threading.Event() for _ in jobs]
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic()

    def connection() -> None:
        client = ServiceClient(url, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(jobs):
                return
            job = jobs[index]
            due = start + job.offset_s
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            ref_done = done_events[job.ref] if job.ref is not None else None
            try:
                records[index] = _run_job(client, job, due, ref_done)
            finally:
                done_events[index].set()

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for record in records:
        if record is not None and "done_offset_s" in record:
            record["done_offset_s"] -= start
        if record is not None and "summaries" in record:
            record["digest"] = summaries_digest(record.pop("summaries"))
    return [record or {"ok": False, "error": "not run"} for record in records]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    records = drive(args.url, plan(args.seed, args.seconds))
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
