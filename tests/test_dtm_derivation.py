"""Derived DTM cells: a feedback policy that never leaves nominal along its
nominal twin's trajectory yields the twin's result, byte for byte what the
coupled run produces.

The differential runs seeded random campaigns on the closed-loop presets
(the ones whose ``none`` cells run coupled in phase 1) with policy
thresholds placed on both sides of each run's temperatures, once with
derivation and once with ``replay=False`` (every cell coupled), and
compares every cell's canonical bytes.
"""

import dataclasses
import random
import time

from repro.campaign import (
    Campaign,
    ExperimentSettings,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    run_campaign,
)
from repro.campaign import core
from repro.core.presets import (
    address_biasing_config,
    bank_hopping_biasing_config,
    distributed_frontend_config,
)
from repro.scenarios import SCENARIO_NAMES
from repro.sim.serialization import canonical_json, result_to_dict

CLOSED_LOOP = (
    bank_hopping_biasing_config,
    address_biasing_config,
    distributed_frontend_config,
)
SPEC = ("gzip", "swim", "mcf", "crafty", "equake", "mesa")
CAMPAIGNS = 40


def _bytes(outcome):
    return {
        (spec.variant, spec.benchmark): canonical_json(
            result_to_dict(outcome.summaries[spec.variant].results[spec.benchmark])
        )
        for spec in outcome.campaign.cells()
    }


def _counters(outcome):
    return (
        outcome.cells_executed,
        outcome.cells_replayed,
        outcome.cells_derived,
        outcome.traces_captured,
        outcome.cache_hits,
    )


def _peak(result) -> float:
    """Hottest temperature a policy could observe along ``result``'s run."""
    warm = max(result.warmup_temperature[name] for name in result.block_names)
    return max(warm, float(result.intervals.temperature.max()))


def _policy(kind: str, threshold: float) -> str:
    if kind == "fetch_throttle":
        return f"fetch_throttle:trigger={threshold:g},duty=0.5"
    if kind == "clock_gate":
        return f"clock_gate:trigger={threshold:g}"
    if kind == "dvfs":
        return f"dvfs:target={threshold:g}"
    return f"hybrid:target={threshold:g},emergency={threshold + 4:g}"


def _random_campaign(index: int, tmp_path):
    """A seeded campaign and the cache its ``none`` probe left (or ``None``)."""
    rng = random.Random(1000 + index)
    config = rng.choice(CLOSED_LOOP)()
    pool = SPEC if index % 2 else SCENARIO_NAMES
    settings = ExperimentSettings(
        benchmarks=tuple(rng.sample(pool, rng.randint(1, 2))),
        uops_per_benchmark=rng.choice((700, 900, 1200)),
        seed=rng.randint(1, 40),
        honor_relative_length=False,
    )
    # Probe the nominal runs for their temperatures; every third campaign
    # keeps the probe in a cache, so its twins are cache hits.
    cache = ResultCache(tmp_path / f"cache{index}") if index % 3 == 0 else None
    probe = run_campaign(
        Campaign((config,), settings, name="probe", dtm_policies=("none",)),
        cache=cache,
        replay=False,
    )
    nominal = probe.summaries[f"{config.name}@none"].results.values()
    peak = min(_peak(result) for result in nominal)
    kinds = rng.sample(("fetch_throttle", "clock_gate", "dvfs", "hybrid"), 2)
    policies = ["none"]
    for kind, side in zip(kinds, rng.sample((-1, 1), 2)):
        policies.append(_policy(kind, round(peak + side * rng.uniform(1.0, 12.0), 1)))
    campaign = Campaign(
        (config,), settings, name=f"derive{index}", dtm_policies=policies
    )
    return campaign, cache


def _actuated(result) -> bool:
    dtm = result.dtm
    return (
        dtm["throttled_intervals"] > 0
        or dtm["gated_intervals"] > 0
        or dtm["mean_freq_ratio"] != 1.0
        or dtm["dvfs_residency"] != {"1": 1.0}
    )


def test_derived_cells_match_the_coupled_run(tmp_path, monkeypatch):
    derived_cells = []
    original = core._derived

    def recording(spec, twin):
        result = original(spec, twin)
        if result is not None:
            derived_cells.append((spec.variant, spec.benchmark))
        return result

    monkeypatch.setattr(core, "_derived", recording)
    totals = {"derived": 0, "fallback": 0, "cached_twins": 0}
    with ParallelExecutor(jobs=2) as parallel:
        for index in range(CAMPAIGNS):
            campaign, cache = _random_campaign(index, tmp_path)
            derived_cells.clear()
            outcome = run_campaign(campaign, SerialExecutor(), cache=cache)
            derived = list(derived_cells)
            coupled = run_campaign(campaign, SerialExecutor(), replay=False)
            assert _bytes(outcome) == _bytes(coupled), campaign.name
            assert coupled.cells_derived == 0

            feedback = sum(spec.dtm_policy != "none" for spec in campaign.cells())
            assert outcome.cells_derived == len(derived)
            assert outcome.cells_executed == (
                0 if cache is not None else len(campaign.settings.benchmarks)
            ) + feedback - len(derived)
            for variant, benchmark in derived:
                assert not _actuated(coupled.summaries[variant].results[benchmark])
            totals["derived"] += len(derived)
            totals["fallback"] += feedback - len(derived)
            totals["cached_twins"] += len(derived) if cache is not None else 0

            if index % 4 == 0:
                # The same plan over a worker pool: equal bytes and counters.
                serial = run_campaign(campaign, SerialExecutor())
                fanned = run_campaign(campaign, parallel)
                assert _bytes(fanned) == _bytes(serial)
                assert _counters(fanned) == _counters(serial)
    assert totals["derived"] >= 10 and totals["fallback"] >= 10, totals
    assert totals["cached_twins"] >= 1, totals


def test_derived_results_are_stored_and_reloaded(tmp_path):
    config = bank_hopping_biasing_config()
    campaign = Campaign(
        (config,),
        ExperimentSettings(
            benchmarks=("thermal_virus", "idle_crawl"),
            uops_per_benchmark=1_000,
            honor_relative_length=False,
        ),
        dtm_policies=("none", "fetch_throttle:trigger=150"),
    )
    cache = ResultCache(tmp_path / "cache")
    first = run_campaign(campaign, cache=cache)
    assert (first.cells_executed, first.cells_derived) == (2, 2)
    again = run_campaign(campaign, cache=cache)
    assert (again.cells_executed, again.cells_derived, again.cache_hits) == (0, 0, 4)
    assert _bytes(again) == _bytes(first)
    # A derived result shares its twin's read-only table.
    none = first.summaries[f"{config.name}@none"].results["thermal_virus"]
    derived = first.summaries[f"{config.name}@fetch_throttle:trigger=150"]
    table = derived.results["thermal_virus"].intervals
    assert table is none.intervals
    assert not table.temperature.flags.writeable


def test_open_loop_twins_that_capture_or_replay_are_not_used():
    """An open-loop sweep keeps its fan-outs: its ``none`` cells capture or
    replay, so its feedback cells run coupled in phase 1."""
    from repro.core.presets import baseline_config

    campaign = Campaign(
        (baseline_config(),),
        ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=900),
        dtm_policies=("none", "fetch_throttle:trigger=150"),
    )
    outcome = run_campaign(campaign, cache=None)
    # A lone open-loop cell without a cache runs coupled, so it is a twin.
    assert outcome.cells_derived == 1
    sweep = Campaign(
        (baseline_config(), dataclasses.replace(baseline_config(), name="twin")),
        campaign.settings,
        dtm_policies=campaign.dtm_policies,
    )
    outcome = run_campaign(sweep)
    assert outcome.cells_derived == 0
    assert outcome.cells_executed == 3 and outcome.cells_replayed == 1


def test_service_job_reports_derived_cells_up_to_the_total(tmp_path):
    from repro.campaign.pool import WorkerPool
    from repro.service.jobs import JobState
    from repro.service.manager import CampaignService

    payload = {
        "configs": ["hopping_biasing"],
        "benchmarks": ["thermal_virus", "idle_crawl"],
        "dtm_policies": ["none", "fetch_throttle:trigger=150"],
        "uops": 1_000,
    }
    service = CampaignService(pool=WorkerPool(workers=2, mode="thread"))
    try:
        job = service.submit(payload)
        deadline = time.monotonic() + 120
        while not job.state.terminal and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        service.shutdown(drain=False, timeout=60)
    assert job.state is JobState.DONE, job.error
    assert job.cells_derived == 2 and job.cells_simulated == 2
    events = job.events_since(0)
    progress = [e for e in events if e["event"] == "progress"]
    assert [e["kind"] for e in progress].count("derived") == 1
    assert all(e["cells_done"] <= e["cells_total"] for e in progress)
    assert progress[-1]["cells_done"] == job.cells_total == 4
    done = next(e for e in events if e.get("state") == JobState.DONE.value)
    assert progress[-1]["seq"] < done["seq"]
    assert job.to_payload()["cells_derived"] == 2
