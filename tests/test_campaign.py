"""Integration tests of the campaign subsystem: spec expansion, executors,
serial/parallel equivalence and the end-to-end cache path."""

import pytest

from repro.campaign import (
    Campaign,
    ExperimentSettings,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    run_campaign,
)
from repro.campaign import executors as executors_module
from repro.core.presets import baseline_config, distributed_rename_commit_config
from repro.sim.results import METRIC_NAMES

GROUPS = ("Frontend", "ReorderBuffer", "TraceCache")


@pytest.fixture(scope="module")
def smoke_campaign():
    return Campaign(
        [baseline_config(), distributed_rename_commit_config()],
        ExperimentSettings.smoke(),
        name="smoke",
    )


def _metric_fingerprint(summaries):
    """Every number a figure could read off the summaries, for equality checks."""
    fingerprint = {}
    for name, summary in summaries.items():
        fingerprint[name] = {
            "ipc": summary.mean_ipc(),
            "power": summary.mean_power(),
            "tc_hit_rate": summary.mean_trace_cache_hit_rate(),
            "cycles": {b: r.stats.cycles for b, r in summary.results.items()},
            "metrics": {
                group: [summary.mean_metric(group, metric) for metric in METRIC_NAMES]
                for group in GROUPS
            },
        }
    return fingerprint


def test_campaign_expansion_is_config_major(smoke_campaign):
    cells = smoke_campaign.cells()
    assert len(cells) == len(smoke_campaign) == 4
    assert [(c.config.name, c.benchmark) for c in cells] == [
        ("baseline", "gzip"),
        ("baseline", "swim"),
        ("distributed_rc", "gzip"),
        ("distributed_rc", "swim"),
    ]
    interval = smoke_campaign.settings.resolved_interval_cycles()
    for cell in cells:
        # The cell's config carries the scaled intervals, so executing it
        # needs no settings context.
        assert cell.config.thermal.interval_cycles == interval
        assert cell.config.frontend.trace_cache.hop_interval_cycles == interval
        assert cell.interval_cycles == interval
        assert cell.seed == smoke_campaign.settings.seed
    # swim honours the paper's relative trace length (shorter than gzip).
    assert cells[1].trace_uops < cells[0].trace_uops


def test_campaign_validates_inputs():
    settings = ExperimentSettings.smoke()
    with pytest.raises(ValueError):
        Campaign([], settings)
    with pytest.raises(ValueError):
        Campaign([baseline_config(), baseline_config()], settings)


def test_cache_keys_identify_cell_content(smoke_campaign):
    cells = smoke_campaign.cells()
    keys = {cell.cache_key() for cell in cells}
    assert len(keys) == len(cells)
    # Keys are a pure function of content: re-expanding yields the same keys.
    assert [c.cache_key() for c in smoke_campaign.cells()] == [
        c.cache_key() for c in cells
    ]
    # Changing the scale changes every key.
    rescaled = Campaign(
        smoke_campaign.configs,
        ExperimentSettings(benchmarks=("gzip", "swim"), uops_per_benchmark=4_000),
    )
    assert {c.cache_key() for c in rescaled.cells()}.isdisjoint(keys)


def test_parallel_executor_matches_serial(smoke_campaign):
    """Acceptance: ParallelExecutor(jobs=2) is metric-identical to serial."""
    serial = run_campaign(smoke_campaign, executor=SerialExecutor())
    parallel = run_campaign(smoke_campaign, executor=ParallelExecutor(jobs=2))
    assert serial.cells_executed == parallel.cells_executed == 4
    assert _metric_fingerprint(serial.summaries) == _metric_fingerprint(
        parallel.summaries
    )


def test_cached_rerun_performs_zero_simulator_invocations(
    smoke_campaign, tmp_path, monkeypatch
):
    """Acceptance: a repeated campaign with the cache enabled simulates nothing."""
    cache = ResultCache(tmp_path / "cache")
    first = run_campaign(smoke_campaign, executor=SerialExecutor(), cache=cache)
    assert first.cells_executed == 4 and first.cache_hits == 0
    assert cache.stores == 4

    # Any simulator invocation in the second run is a hard failure.
    def _explode(spec):
        raise AssertionError(f"cell {spec.benchmark} was simulated despite the cache")

    monkeypatch.setattr(executors_module, "execute_cell", _explode)
    rerun_executor = SerialExecutor()
    second = run_campaign(smoke_campaign, executor=rerun_executor, cache=cache)
    assert second.cells_executed == 0
    assert rerun_executor.cells_executed == 0
    assert second.cache_hits == 4
    assert _metric_fingerprint(first.summaries) == _metric_fingerprint(second.summaries)


def test_legacy_shims_accept_executor_and_cache(tmp_path):
    from repro.campaign import summarize, summarize_many

    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_500)
    cache = ResultCache(tmp_path / "cache")
    summary = summarize(baseline_config(), settings, cache=cache)
    assert cache.stores == 1
    summaries = summarize_many([baseline_config()], settings, cache=cache)
    assert cache.hits == 1
    assert summaries["baseline"].mean_ipc() == summary.mean_ipc()


def test_results_carry_settings_provenance(smoke_campaign):
    outcome = run_campaign(
        Campaign.single(baseline_config(), ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_500))
    )
    result = outcome.summaries["baseline"].results["gzip"]
    assert result.provenance["benchmark"] == "gzip"
    assert result.provenance["trace_uops"] == 1_500
    assert result.provenance["seed"] == 1
    assert result.provenance["interval_cycles"] == 800


# ----------------------------------------------------------------------
# Worker-death containment
# ----------------------------------------------------------------------


def _exit_on_marker_benchmark(task):
    """Module-level (picklable) task fn that kills its worker process."""
    import os

    os._exit(23)


def test_parallel_executor_reports_killed_worker_as_typed_error():
    """A worker process dying mid-task surfaces as ExecutorTaskError with
    the failed task attached and named briefly, caused by the pool's crash
    error."""
    from repro.campaign.executors import ExecutorTaskError
    from repro.campaign.pool import _TaskCrash

    settings = ExperimentSettings(
        benchmarks=("gzip", "swim"), uops_per_benchmark=1_000
    )
    specs = Campaign.single(baseline_config(), settings).cells()
    with ParallelExecutor(jobs=2) as executor:
        with pytest.raises(ExecutorTaskError) as excinfo:
            executor.run_tasks(_exit_on_marker_benchmark, specs)
    message = str(excinfo.value)
    assert "worker process died while executing baseline/gzip" in message
    assert "ProcessorConfig" not in message and len(message) < 200
    assert excinfo.value.task is specs[0]
    assert isinstance(excinfo.value.__cause__, _TaskCrash)


def test_parallel_executor_still_runs_after_typed_failure():
    from repro.campaign.executors import ExecutorTaskError, execute_cell

    executor = ParallelExecutor(jobs=2)
    settings = ExperimentSettings(
        benchmarks=("gzip", "swim"), uops_per_benchmark=1_000
    )
    specs = Campaign.single(baseline_config(), settings).cells()
    with pytest.raises(ExecutorTaskError):
        executor.run_tasks(_exit_on_marker_benchmark, specs)
    # A fresh dispatch on the same executor works: the broken pool was not
    # left wedged in shared state.
    results = executor.run_tasks(execute_cell, specs)
    assert [r.benchmark for r in results] == ["gzip", "swim"]
