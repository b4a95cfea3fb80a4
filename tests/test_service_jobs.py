"""Unit tests of the service job model: lifecycle, events, progress, ETA,
cancellation and the job store."""

import threading

import pytest

from repro.campaign import Campaign, ExperimentSettings
from repro.core.presets import baseline_config
from repro.service.jobs import Job, JobState, JobStore


@pytest.fixture
def campaign():
    settings = ExperimentSettings(
        benchmarks=("gzip", "swim"), uops_per_benchmark=1_000
    )
    return Campaign.single(baseline_config(), settings)


@pytest.fixture
def job(campaign):
    return Job(1, campaign)


def test_lifecycle_and_timing(job):
    assert job.state is JobState.PENDING
    assert not job.state.terminal
    assert job.cells_total == 2
    job.mark_running()
    assert job.started_at is not None
    job.mark_done({"summaries": {}}, "done", {"cells_executed": 2})
    assert job.state is JobState.DONE
    assert job.state.terminal
    assert job.finished_at >= job.started_at
    assert job.cells_done == job.cells_total
    assert job.cells_simulated == 2


def test_failed_carries_the_error(job):
    job.mark_running()
    job.mark_failed("ValueError: no such benchmark")
    assert job.state is JobState.FAILED
    assert job.to_payload()["error"] == "ValueError: no such benchmark"


def test_events_are_monotonic_and_carry_state(job):
    job.mark_running()
    job.record_progress("run", 1)
    job.mark_done({}, "ok", {})
    events = job.events_since(0)
    assert [e["seq"] for e in events] == list(range(len(events)))
    states = [e["state"] for e in events if e["event"] == "state"]
    assert states == ["pending", "running", "done"]
    kinds = [e["kind"] for e in events if e["event"] == "progress"]
    assert kinds == ["run"]


def test_events_since_blocks_until_news(job):
    def _later():
        job.mark_running()

    thread = threading.Timer(0.05, _later)
    thread.start()
    try:
        events = job.events_since(1, timeout=5)
        assert events and events[0]["state"] == "running"
    finally:
        thread.join()


def test_events_since_times_out_empty(job):
    assert job.events_since(99, timeout=0.01) == []


def test_progress_accounting_and_eta(job):
    job.mark_running()
    job.record_progress("capture", 1)
    job.record_progress("replay", 1)
    assert job.cells_done == 2
    assert job.cells_simulated == 1
    assert job.cells_replayed == 1
    assert job.traces_captured == 1
    payload = job.to_payload()
    assert payload["cells_done"] == 2
    # Progress events in between carried a running ETA (0 < done < total).
    progress = [e for e in job.events_since(0) if e["event"] == "progress"]
    assert "eta_seconds" in progress[0]


@pytest.mark.parametrize("chip", [False, True], ids=["single_core", "chip"])
def test_progress_counts_only_campaign_cells(chip):
    """Captures a chip cell replays from are timing runs, not cells."""
    import dataclasses

    from repro.campaign import run_campaign
    from repro.campaign.pool import WorkerPool
    from repro.service.manager import PoolBackedExecutor

    base = baseline_config()
    hot = dataclasses.replace(
        base,
        name="hot",
        power=dataclasses.replace(base.power, leakage_fraction_at_ambient=0.4),
    )
    axes = (
        dict(cores=4, per_core_scenarios=("gzip+swim+gzip+swim", "swim+mcf"))
        if chip
        else {}
    )
    campaign = Campaign(
        (base, hot),
        ExperimentSettings(benchmarks=("gzip", "swim"), uops_per_benchmark=1_000),
        name="progress",
        **axes,
    )
    job = Job(1, campaign)
    job.mark_running()
    pool = WorkerPool(workers=2, mode="thread")
    try:
        outcome = run_campaign(campaign, executor=PoolBackedExecutor(pool, job))
    finally:
        pool.shutdown()
    progress = [e for e in job.events_since(0) if e["event"] == "progress"]
    assert progress
    assert all(e["cells_done"] <= e["cells_total"] for e in progress)
    assert progress[-1]["cells_done"] == job.cells_total == len(campaign)
    assert job.cells_simulated == outcome.cells_executed
    assert job.cells_replayed == outcome.cells_replayed
    assert job.traces_captured == outcome.traces_captured


def test_cached_cells_count_toward_progress(job):
    job.mark_running()
    job.record_cache_hits(2)
    assert job.cache_hits == 2
    assert job.cells_done == 2
    job.record_cache_hits(0)  # no-op, no event
    assert len([e for e in job.events_since(0) if e["event"] == "progress"]) == 1


def test_cached_job_reports_progress_up_to_the_total(tmp_path):
    """A repeat job's result-cache hits are its progress events."""
    import time

    from repro.campaign.pool import WorkerPool
    from repro.service.cache import ShardedResultCache
    from repro.service.manager import CampaignService

    payload = {
        "configs": ["baseline", "bank_hopping"],
        "benchmarks": ["gzip"],
        "uops": 800,
        "cores": 2,
        "per_core_scenarios": [["gzip", "swim"]],
    }
    service = CampaignService(
        pool=WorkerPool(workers=2, mode="thread"),
        cache=ShardedResultCache(tmp_path / "cache", shards=2),
    )
    try:
        for _ in range(2):
            job = service.submit(payload)
            deadline = time.monotonic() + 120
            while not job.state.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
    finally:
        service.shutdown(drain=False, timeout=60)
    assert job.state is JobState.DONE, job.error
    assert job.cache_hits == job.cells_total == 2
    events = job.events_since(0)
    progress = [e for e in events if e["event"] == "progress"]
    assert [e["kind"] for e in progress] == ["cached"] * job.cells_total
    assert all(e["cells_done"] <= e["cells_total"] for e in progress)
    assert progress[-1]["cells_done"] == job.cells_total
    done = next(e for e in events if e.get("state") == JobState.DONE.value)
    assert progress[-1]["seq"] < done["seq"]


def test_cancel_pending_and_refuse_terminal(job):
    assert job.cancel()
    assert job.cancelled
    assert job.cancel()  # idempotent while non-terminal
    job.mark_cancelled()
    assert job.state is JobState.CANCELLED
    assert not job.cancel()  # terminal jobs cannot be re-cancelled
    events = [e["event"] for e in job.events_since(0)]
    assert events.count("cancel_requested") == 1


def test_store_assigns_monotonic_ids(campaign):
    store = JobStore()
    jobs = [store.create(campaign) for _ in range(3)]
    assert [j.id for j in jobs] == [1, 2, 3]
    assert store.get(2) is jobs[1]
    assert store.get(99) is None
    assert [j.id for j in store.jobs()] == [1, 2, 3]
    assert len(store) == 3


def test_store_counts_by_state(campaign):
    store = JobStore()
    a, b = store.create(campaign), store.create(campaign)
    a.mark_running()
    a.mark_done({}, "ok", {})
    counts = store.counts()
    assert counts["done"] == 1
    assert counts["pending"] == 1
    assert counts["total"] == 2
