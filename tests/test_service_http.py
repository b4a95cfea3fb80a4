"""End-to-end tests of the campaign service HTTP surface, including the
correctness lock: concurrently submitted jobs produce bit-identical result
payloads to the same specs run serially through run_campaign."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign.core import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceError,
    ShardedResultCache,
    WorkerPool,
    campaign_from_payload,
    create_server,
    results_payload,
)

SPEC = {"benchmarks": ["gzip"], "uops": 800, "seed": 3}
SPEC_TWO_CELL = {"benchmarks": ["gzip", "swim"], "uops": 800, "seed": 3}


@pytest.fixture
def stack(tmp_path):
    """An in-process service + HTTP server + client, torn down afterwards."""
    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    service = CampaignService(
        pool=WorkerPool(workers=2, mode="thread"),
        cache=cache,
        max_concurrent_jobs=3,
    )
    server = create_server(service)
    server.serve_in_background()
    client = ServiceClient(server.address, timeout=30)
    yield service, server, client
    server.shutdown()
    server.server_close()
    service.shutdown(drain=False, timeout=30)


def test_healthz_and_metrics(stack):
    _, _, client = stack
    assert client.healthz() == {"status": "ok"}
    metrics = client.metrics()
    assert metrics["pool"]["workers"] == 2
    assert metrics["queue"]["job_slots"] == 3
    assert "hit_rate" in metrics["cache"]


def test_job_lifecycle_and_results(stack):
    _, _, client = stack
    job = client.submit(SPEC_TWO_CELL)
    assert job["id"] == 1
    assert job["state"] in ("pending", "running")
    assert job["cells_total"] == 2
    final = client.wait(job["id"], timeout=180)
    assert final["state"] == "done"
    assert final["cells_done"] == 2
    assert "1 configs x 2 benchmarks" in final["description"]
    summaries = final["results"]["summaries"]
    assert set(summaries) == {"baseline"}
    assert set(summaries["baseline"]) == {"gzip", "swim"}
    assert final["results"]["outcome"]["total_cells"] == 2
    # Without ?results=1 the payload stays lean.
    assert "results" not in client.job(job["id"])
    assert client.jobs()[0]["id"] == job["id"]


def test_event_stream_replays_and_follows(stack):
    _, _, client = stack
    job = client.submit(SPEC)
    client.wait(job["id"], timeout=180)
    events = [e for e in client.events(job["id"]) if e["event"] != "heartbeat"]
    states = [e["state"] for e in events if e["event"] == "state"]
    assert states[0] == "pending"
    assert states[-1] == "done"
    progress = [e for e in events if e["event"] == "progress"]
    assert progress and progress[-1]["cells_done"] == progress[-1]["cells_total"]
    assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
    # since=N resumes mid-log.
    tail = [e for e in client.events(job["id"], since=events[-1]["seq"])]
    assert [e["seq"] for e in tail if e["event"] != "heartbeat"] == [
        events[-1]["seq"]
    ]


def test_invalid_specs_are_400(stack):
    _, _, client = stack
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"configs": ["warp_drive"]})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"no_such_field": 1})
    assert excinfo.value.status == 400


def test_malformed_contention_is_400(stack):
    _, _, client = stack
    with pytest.raises(ServiceError) as excinfo:
        client.submit(
            {
                "per_core_scenarios": [["cache_thrash", "memory_bound"]],
                "contention": "shared_llc:service=fast",
            }
        )
    assert excinfo.value.status == 400
    assert "needs an integer" in str(excinfo.value)


@pytest.mark.parametrize(
    "spec",
    [
        {"configs": 5},
        {"benchmarks": 5},
        {"dtm_policies": 5},
        {"per_core_scenarios": 5},
        {"per_core_scenarios": [5]},
        {"benchmarks": ["gzip", 5]},
        {"uops": [800]},
        {"cores": {"n": 2}},
    ],
    ids=lambda spec: json.dumps(spec),
)
def test_wrong_json_type_is_400_with_a_json_error(stack, spec):
    """A wire field of the wrong JSON type is a client error, not a reset."""
    _, server, _ = stack
    request = urllib.request.Request(
        server.address + "/jobs",
        data=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    error = json.loads(excinfo.value.read())["error"]
    assert repr(next(iter(spec))) in error


@pytest.mark.parametrize(
    "field, value", [("uops", 1500.9), ("seed", True), ("cores", 2.5)]
)
def test_non_integral_numbers_are_400_naming_the_field(stack, field, value):
    """A boolean or a fractional number is refused, not truncated."""
    _, server, _ = stack
    request = urllib.request.Request(
        server.address + "/jobs",
        data=json.dumps({"benchmarks": ["gzip"], field: value}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    assert repr(field) in json.loads(excinfo.value.read())["error"]


def test_malformed_json_is_400(stack):
    _, server, _ = stack
    request = urllib.request.Request(
        server.address + "/jobs",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400


def test_unknown_paths_and_jobs_are_404(stack):
    _, _, client = stack
    for path in ("/nope", "/jobs/999", "/jobs/999/events"):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", path)
        assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.cancel(999)
    assert excinfo.value.status == 404


def test_cancel_running_job_drains_cleanly(stack):
    _, _, client = stack
    job = client.submit(
        {"benchmarks": ["scenarios"], "uops": 30_000, "seed": 5}
    )
    cancelled = client.cancel(job["id"])
    assert cancelled["cancel_requested"] is True
    final = client.wait(job["id"], timeout=180)
    assert final["state"] == "cancelled"
    # Cancelling a terminal job is a 409.
    with pytest.raises(ServiceError) as excinfo:
        client.cancel(job["id"])
    assert excinfo.value.status == 409


def test_cancel_lands_when_every_task_finishes_within_one_poll(stack, monkeypatch):
    """A cancel must land at a completed task, not only at a timed-out wait.

    Every task is submitted up front; here each one returns well within the
    executor's result poll, so only the check after a completed task can
    see the cancel.  The first task holds its (already computed) result
    until the test has cancelled and every other task has finished.
    """
    from repro.campaign import core

    _, _, client = stack
    benchmarks = ["gzip", "swim", "mcf", "equake"]
    real = core.execute_campaign_task
    lock = threading.Lock()
    calls = []
    first_held, others_done, release = (threading.Event() for _ in range(3))

    def gated(task):
        result = real(task)
        with lock:
            calls.append(task)
            index = len(calls)
        if index == 1:
            first_held.set()
            release.wait(60)
        elif index == len(benchmarks):
            others_done.set()
        return result

    monkeypatch.setattr("repro.campaign.core.execute_campaign_task", gated)
    job = client.submit({"benchmarks": benchmarks, "uops": 600, "seed": 17})
    assert first_held.wait(60) and others_done.wait(60)
    assert client.cancel(job["id"])["cancel_requested"] is True
    release.set()
    final = client.wait(job["id"], timeout=120)
    assert final["state"] == "cancelled"
    assert len(calls) == len(benchmarks)


def test_failing_cell_fails_the_job_not_the_server(stack, monkeypatch):
    service, _, client = stack

    def _explode(task):
        raise RuntimeError("synthetic cell failure")

    # The pool runs tasks inline (thread mode), so patching the function
    # run_campaign dispatches is enough to break every cell of job 1.
    monkeypatch.setattr("repro.campaign.core.execute_campaign_task", _explode)
    job = client.submit(SPEC)
    final = client.wait(job["id"], timeout=180)
    assert final["state"] == "failed"
    assert "synthetic cell failure" in final["error"]
    monkeypatch.undo()
    # The server survives and the next job succeeds.
    job2 = client.submit(SPEC_TWO_CELL)
    assert client.wait(job2["id"], timeout=180)["state"] == "done"
    counts = service.store.counts()
    assert counts["failed"] == 1 and counts["done"] == 1


def test_repeat_submission_hits_the_shared_cache(stack):
    _, _, client = stack
    first = client.wait(client.submit(SPEC_TWO_CELL)["id"], timeout=180)
    second = client.wait(client.submit(SPEC_TWO_CELL)["id"], timeout=180)
    assert second["cache_hits"] == 2
    assert second["results"]["summaries"] == first["results"]["summaries"]
    assert client.metrics()["cache"]["hit_rate"] > 0


def test_tenants_share_the_content_addressed_cache(stack):
    _, _, client = stack
    spec_a = dict(SPEC, tenant="alpha")
    spec_b = dict(SPEC, tenant="beta")
    client.wait(client.submit(spec_a)["id"], timeout=180)
    final = client.wait(client.submit(spec_b)["id"], timeout=180)
    assert final["tenant"] == "beta"
    assert final["cache_hits"] == 1  # beta hit alpha's entry


def test_traces_are_shared_across_jobs(stack):
    _, _, client = stack
    # Job 1 simulates one plain cell; with a cache attached the planner
    # captures its activity trace for future reuse.
    first = client.wait(client.submit(SPEC)["id"], timeout=180)
    assert first["state"] == "done"
    assert first["traces_captured"] == 1
    # Job 2 runs the same cell under the explicit "none" DTM policy: a
    # different cache key (no result hit) but the same timing key — it
    # replays job 1's trace instead of re-simulating the timing stage.
    second = client.wait(
        client.submit(dict(SPEC, dtm_policies=["none"]))["id"], timeout=180
    )
    assert second["state"] == "done"
    assert second["cache_hits"] == 0
    assert second["traces_captured"] == 0
    assert second["cells_replayed"] == 1


def test_concurrent_jobs_match_serial_run_campaign_bit_for_bit(stack):
    """The correctness lock from the issue: N concurrent jobs over HTTP
    produce byte-identical payloads to serial local runs of the same specs.
    """
    _, _, client = stack
    specs = [
        {"benchmarks": ["gzip"], "uops": 800, "seed": 3,
         "dtm_policies": ["none", "dvfs:target=85"]},
        {"benchmarks": ["swim", "mcf"], "uops": 700, "seed": 4},
        {"benchmarks": ["thermal_virus"], "uops": 600, "seed": 5},
    ]
    submitted = [client.submit(spec) for spec in specs]  # all in flight
    finals = [client.wait(job["id"], timeout=300) for job in submitted]
    for spec, final in zip(specs, finals):
        assert final["state"] == "done"
        outcome = run_campaign(
            campaign_from_payload(spec), executor=SerialExecutor(), cache=None
        )
        expected = results_payload(outcome)["summaries"]
        served = final["results"]["summaries"]
        assert json.dumps(served, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )


def test_concurrent_identical_jobs_capture_each_trace_once(tmp_path):
    """Many jobs racing on the same timing key: the trace gate makes one
    leader capture while the others wait and replay its artifact."""
    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    service = CampaignService(
        pool=WorkerPool(workers=4, mode="thread"),
        cache=cache,
        max_concurrent_jobs=4,
    )
    try:
        sweep = {"benchmarks": ["gzip"], "uops": 800, "seed": 9,
                 "dtm_policies": ["none", "dvfs:target=85"]}
        jobs = [service.submit(dict(sweep)) for _ in range(3)]
        for job in jobs:
            deadline = threading.Event()
            while not job.state.terminal:
                deadline.wait(0.05)
        assert all(job.state.value == "done" for job in jobs)
        # One capture total across ALL jobs; the rest replayed or hit.
        assert sum(job.traces_captured for job in jobs) == 1
        assert sum(job.cells_replayed for job in jobs) >= 1

        def _canonical(results):
            # Replayed results are physically identical but carry the
            # documented provenance marker; compare modulo that flag.
            doc = json.loads(json.dumps(results))
            for variant in doc.values():
                for payload in variant.values():
                    payload.get("provenance", {}).pop("replayed", None)
            return json.dumps(doc, sort_keys=True)

        payloads = [_canonical(job.results["summaries"]) for job in jobs]
        assert len(set(payloads)) == 1
    finally:
        service.shutdown(drain=False, timeout=30)


def test_submission_refused_after_shutdown(tmp_path):
    service = CampaignService(pool=WorkerPool(workers=1, mode="thread"))
    service.shutdown(drain=True, timeout=10)
    with pytest.raises(RuntimeError, match="shutting down"):
        service.submit(SPEC)
