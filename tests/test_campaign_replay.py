"""End-to-end equivalence of the two-stage campaign path.

The campaign layer's replay optimization must be invisible in the results:
every cell satisfied by replaying a shared activity trace has to be
*bit-identical* to the coupled simulation of the same spec.  These tests
lock that from every angle — a physics-only sweep compared coupled vs
replayed, the golden fixtures re-served entirely from trace artifacts, the
DTM no-op policy's reconstructed telemetry, process-pool replay, and the
automatic coupled fallback for feedback-bearing cells.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import test_golden_metrics as golden

from repro.campaign import (
    Campaign,
    ExperimentSettings,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    run_campaign,
)
from repro.core.presets import baseline_config, bank_hopping_config


def _physics_sweep(
    base=None, variants=3, benchmarks=("gzip", "swim"), name="physics_sweep"
) -> Campaign:
    """A campaign whose configs differ only in physics-side parameters."""
    base = base or baseline_config()
    configs = [
        dataclasses.replace(
            base,
            name=f"leakage_{i}",
            power=dataclasses.replace(
                base.power, leakage_fraction_at_ambient=0.20 + 0.08 * i
            ),
        )
        for i in range(variants)
    ]
    settings = ExperimentSettings(
        benchmarks=benchmarks, uops_per_benchmark=1_500, seed=7
    )
    return Campaign(configs, settings, name=name)


def _package_sweep():
    base = baseline_config()
    return Campaign(
        [
            dataclasses.replace(
                base,
                name=f"package_{i}",
                thermal=dataclasses.replace(
                    base.thermal, convection_resistance_k_per_w=0.10 + 0.04 * i
                ),
            )
            for i in range(3)
        ],
        ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_500, seed=7),
        name="package_sweep",
    )


def _policy_axis():
    campaign = _physics_sweep(variants=2, benchmarks=("gzip",))
    return Campaign(
        campaign.configs,
        campaign.settings,
        name="mixed",
        dtm_policies=("none", "clock_gate:trigger=60"),
    )


def _digest_outcome(outcome) -> dict:
    return {
        f"{variant}/{benchmark}": golden._digest_result(result)
        for variant, summary in outcome.summaries.items()
        for benchmark, result in summary.results.items()
    }


# ----------------------------------------------------------------------
# Coupled == replayed
# ----------------------------------------------------------------------
def test_replayed_sweep_is_bit_identical_to_coupled():
    """Acceptance: coupled == replayed metrics for a no-feedback sweep."""
    campaign = _physics_sweep()
    coupled = run_campaign(campaign, executor=SerialExecutor(), replay=False)
    replayed = run_campaign(campaign, executor=SerialExecutor(), replay=True)

    assert coupled.cells_executed == 6 and coupled.cells_replayed == 0
    # One capture per (benchmark) timing-key group, the rest replayed.
    assert replayed.cells_executed == 2
    assert replayed.traces_captured == 2
    assert replayed.cells_replayed == 4

    problems = golden._compare(
        _digest_outcome(coupled), _digest_outcome(replayed), "sweep", reltol=0
    )
    assert not problems, "replay drifted from the coupled path:\n  " + "\n  ".join(
        problems[:20]
    )


def test_replay_with_bank_hopping_gating_is_bit_identical():
    """The per-interval gated-bank schedule travels with the trace."""
    campaign = _physics_sweep(
        base=bank_hopping_config(), variants=2, benchmarks=("gzip",), name="hop_sweep"
    )
    coupled = run_campaign(campaign, replay=False)
    replayed = run_campaign(campaign, replay=True)
    assert replayed.cells_replayed == 1
    assert not golden._compare(
        _digest_outcome(coupled), _digest_outcome(replayed), "hop", reltol=0
    )


def test_parallel_replay_matches_serial():
    """Traces cross the process boundary; results must not change."""
    campaign = _physics_sweep(variants=3, benchmarks=("gzip",))
    serial = run_campaign(campaign, executor=SerialExecutor())
    parallel = run_campaign(campaign, executor=ParallelExecutor(jobs=2))
    assert parallel.cells_replayed == serial.cells_replayed == 2
    assert not golden._compare(
        _digest_outcome(serial), _digest_outcome(parallel), "parallel", reltol=0
    )


def test_replayed_results_are_marked_in_provenance():
    outcome = run_campaign(_physics_sweep(variants=2, benchmarks=("gzip",)))
    flags = {
        variant: summary.results["gzip"].provenance.get("replayed", False)
        for variant, summary in outcome.summaries.items()
    }
    # Exactly one cell (the capture) is not marked as replayed.
    assert sorted(flags.values()) == [False, True]


# ----------------------------------------------------------------------
# Golden fixtures, served from trace artifacts
# ----------------------------------------------------------------------
def test_golden_centralized_fixture_passes_through_capture_and_replay(tmp_path):
    """Acceptance: the golden fixture is reproduced by capture + replay."""
    campaign = golden._golden_campaigns()["centralized"]
    cache = ResultCache(tmp_path / "cache")

    first = run_campaign(campaign, cache=cache)
    assert first.cells_executed == 2  # both cells captured (cache attached)
    assert cache.trace_stores == 2

    # Drop the results but keep the trace artifacts: the rerun must rebuild
    # every cell purely by replaying the physics stage.
    for path in cache._result_files():
        path.unlink()
    second = run_campaign(campaign, cache=cache)
    assert second.cells_executed == 0
    assert second.cells_replayed == 2

    digest = {
        f"{variant}/{benchmark}": golden._digest_result(result)
        for variant, summary in second.summaries.items()
        for benchmark, result in summary.results.items()
    }
    fixture = json.loads(golden._fixture_path("centralized").read_text())
    problems = golden._compare(fixture["cells"], digest, "centralized", reltol=0)
    assert not problems, (
        "replayed golden campaign drifted from the fixture:\n  "
        + "\n  ".join(problems[:20])
    )


def test_golden_thermal_aware_campaign_falls_back_to_coupled(tmp_path):
    """The distributed+biasing campaign has temperature-steered mapping; it
    must never replay — and still match its fixture via the coupled path."""
    campaign = golden._golden_campaigns()["distributed_hopping"]
    cache = ResultCache(tmp_path / "cache")
    first = run_campaign(campaign, cache=cache)
    assert first.cells_executed == 2
    assert first.traces_captured == 0
    assert cache.trace_stores == 0

    for path in cache._result_files():
        path.unlink()
    second = run_campaign(campaign, cache=cache)
    assert second.cells_replayed == 0
    assert second.cells_executed == 2

    digest = {
        f"{variant}/{benchmark}": golden._digest_result(result)
        for variant, summary in second.summaries.items()
        for benchmark, result in summary.results.items()
    }
    fixture = json.loads(golden._fixture_path("distributed_hopping").read_text())
    assert not golden._compare(fixture["cells"], digest, "distributed", reltol=0)


# ----------------------------------------------------------------------
# Trace artifacts in the cache
# ----------------------------------------------------------------------
def test_trace_artifacts_are_shared_across_campaigns(tmp_path):
    """A later sweep with *new* physics variants replays a cached trace
    without a single timing simulation."""
    cache = ResultCache(tmp_path / "cache")
    first = run_campaign(
        _physics_sweep(variants=2, benchmarks=("gzip",)), cache=cache
    )
    assert first.cells_executed == 1 and first.cells_replayed == 1

    fresh_variants = _package_sweep()
    executor = SerialExecutor()
    second = run_campaign(fresh_variants, executor=executor, cache=cache)
    assert second.cells_executed == 0
    assert executor.cells_executed == 0
    assert second.cells_replayed == 3
    assert cache.trace_hits >= 1

    # And the replayed results are exactly what a coupled run produces.
    coupled = run_campaign(fresh_variants, replay=False)
    assert not golden._compare(
        _digest_outcome(coupled), _digest_outcome(second), "cross", reltol=0
    )


def test_singleton_group_without_cache_stays_coupled():
    """With nobody to share with and nowhere to store, capture is skipped."""
    campaign = Campaign.single(
        baseline_config(),
        ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_200),
    )
    outcome = run_campaign(campaign)
    assert outcome.cells_executed == 1
    assert outcome.traces_captured == 0
    assert outcome.cells_replayed == 0


# ----------------------------------------------------------------------
# DTM interactions
# ----------------------------------------------------------------------
def test_none_policy_cells_replay_with_reconstructed_telemetry():
    base = baseline_config()
    campaign = Campaign(
        [
            dataclasses.replace(
                base,
                name=f"v{i}",
                power=dataclasses.replace(base.power, leakage_fraction_at_ambient=0.2 + 0.1 * i),
            )
            for i in range(2)
        ],
        ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_500, seed=7),
        name="none_sweep",
        dtm_policies=("none",),
    )
    coupled = run_campaign(campaign, replay=False)
    replayed = run_campaign(campaign, replay=True)
    assert replayed.cells_replayed == 1
    assert not golden._compare(
        _digest_outcome(coupled), _digest_outcome(replayed), "none", reltol=0
    )
    for summary_c, summary_r in zip(
        coupled.summaries.values(), replayed.summaries.values()
    ):
        for benchmark in summary_c.results:
            assert (
                summary_c.results[benchmark].dtm == summary_r.results[benchmark].dtm
            )


def test_feedback_policy_cells_never_replay():
    campaign = _physics_sweep(variants=2, benchmarks=("gzip",))
    with_dtm = Campaign(
        campaign.configs,
        campaign.settings,
        name="dtm_sweep",
        dtm_policies=("fetch_throttle:trigger=60,duty=0.25",),
    )
    outcome = run_campaign(with_dtm)
    assert outcome.cells_replayed == 0
    assert outcome.cells_executed == 2


def test_mixed_policy_axis_splits_between_replay_and_coupled():
    outcome = run_campaign(_policy_axis())
    # 2 configs x 2 policies: the two clock_gate cells run coupled, the two
    # none cells share one captured trace.
    assert outcome.cells_executed == 3
    assert outcome.cells_replayed == 1


# ----------------------------------------------------------------------
# The campaign plan's outcome counters and fan-outs, pinned per scenario
# ----------------------------------------------------------------------
class _FanOutLog:
    """Executor mixin that logs the number of tasks of every fan-out."""

    def run_tasks(self, fn, tasks):
        self.__dict__.setdefault("fanouts", []).append(len(tasks))
        return super().run_tasks(fn, tasks)


class _LoggedSerial(_FanOutLog, SerialExecutor):
    pass


class _LoggedParallel(_FanOutLog, ParallelExecutor):
    pass


def _small_sweep():
    return _physics_sweep(variants=2, benchmarks=("gzip",))


#: scenario -> ([(campaign factory, attach the cache?), ...], per campaign
#: ((cells_executed, cells_replayed, traces_captured, cache_hits), the task
#: count of each fan-out)).
COUNTER_CASES = {
    "sweep": ([(_physics_sweep, False)], [((2, 4, 2, 0), [2, 2])]),
    "singleton": (
        [
            (
                lambda: Campaign.single(
                    baseline_config(),
                    ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_200),
                ),
                False,
            )
        ],
        [((1, 0, 0, 0), [1])],
    ),
    "policy_axis": ([(_policy_axis, False)], [((3, 1, 1, 0), [3, 1])]),
    # Capture with a cache, replay new physics from the cached trace with 0
    # captures, then re-run the first campaign straight from the cache.
    "cached": (
        [(_small_sweep, True), (_package_sweep, True), (_small_sweep, True)],
        [((1, 1, 1, 0), [1, 1]), ((0, 3, 0, 0), [1]), ((0, 0, 0, 2), [])],
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(COUNTER_CASES))
def test_campaign_outcome_counters_and_fanouts(case, jobs, tmp_path):
    runs, expected = COUNTER_CASES[case]
    cache = ResultCache(tmp_path / "cache")
    executor = _LoggedSerial() if jobs == 1 else _LoggedParallel(jobs=jobs)
    observed = []
    with executor:
        for factory, cached in runs:
            executor.fanouts = []
            outcome = run_campaign(
                factory(), executor=executor, cache=cache if cached else None
            )
            counters = (
                outcome.cells_executed,
                outcome.cells_replayed,
                outcome.traces_captured,
                outcome.cache_hits,
            )
            observed.append((counters, executor.fanouts))
    assert observed == expected
