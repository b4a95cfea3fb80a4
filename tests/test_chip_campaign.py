"""Campaign integration of the chip layer: axes, trace reuse, serialization."""

import dataclasses

import pytest

from repro.campaign import (
    Campaign,
    ExperimentSettings,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    run_campaign,
)
from repro.chip import ChipRunSpec
from repro.core.presets import baseline_config
from repro.sim.serialization import result_from_dict, result_to_dict


def _settings(**overrides):
    defaults = dict(
        benchmarks=("gzip",),
        uops_per_benchmark=1500,
        seed=3,
        honor_relative_length=False,
    )
    defaults.update(overrides)
    return ExperimentSettings(**defaults)


MIX = "thermal_virus+idle_crawl"


def _chip_campaign(configs=None, **kwargs):
    configs = configs or (baseline_config(),)
    defaults = dict(cores=2, per_core_scenarios=(MIX,))
    defaults.update(kwargs)
    return Campaign(configs, _settings(), name="chip", **defaults)


def _physics_variants(count):
    base = baseline_config()
    return [
        dataclasses.replace(
            base,
            name=f"phys_{i}",
            power=dataclasses.replace(
                base.power, leakage_fraction_at_ambient=0.20 + 0.02 * i
            ),
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Campaign axes
# ----------------------------------------------------------------------
def test_cores_axis_defaults_to_homogeneous_mixes():
    campaign = Campaign(
        (baseline_config(),), _settings(benchmarks=("gzip", "swim")), cores=2
    )
    assert campaign.is_chip
    assert campaign.mixes() == (("gzip", "gzip"), ("swim", "swim"))
    assert len(campaign) == 2
    cells = campaign.cells()
    assert all(isinstance(cell, ChipRunSpec) for cell in cells)
    assert cells[0].benchmark == "gzip+gzip"


def test_single_core_campaign_is_unchanged():
    campaign = Campaign((baseline_config(),), _settings())
    assert not campaign.is_chip
    assert all(isinstance(cell, RunSpec) for cell in campaign.cells())


def test_mix_validation():
    with pytest.raises(ValueError, match="has 3 threads"):
        Campaign(
            (baseline_config(),),
            _settings(),
            cores=2,
            per_core_scenarios=("gzip+swim+mcf",),
        )
    with pytest.raises(KeyError, match="nosuch"):
        Campaign(
            (baseline_config(),),
            _settings(),
            cores=2,
            per_core_scenarios=("gzip+nosuch",),
        )
    with pytest.raises(ValueError, match="unique"):
        Campaign(
            (baseline_config(),),
            _settings(),
            cores=2,
            per_core_scenarios=("gzip+swim", ("gzip", "swim")),
        )
    with pytest.raises(ValueError, match="cores"):
        Campaign((baseline_config(),), _settings(), cores=0, per_core_scenarios=("gzip",))


def test_chip_mode_validates_chip_policies():
    with pytest.raises(ValueError, match="unknown chip DTM policy"):
        _chip_campaign(dtm_policies=("fetch_throttle",))
    # ...which is a perfectly good *single-core* policy.
    Campaign((baseline_config(),), _settings(), dtm_policies=("fetch_throttle",))


def test_chip_cache_keys_do_not_collide_with_single_core_cells():
    campaign = Campaign(
        (baseline_config(),), _settings(), cores=1, per_core_scenarios=("gzip",)
    )
    chip_cell = campaign.cells()[0]
    single_cell = Campaign((baseline_config(),), _settings()).cells()[0]
    assert chip_cell.core_specs()[0].cache_key() == single_cell.cache_key()
    assert chip_cell.cache_key() != single_cell.cache_key()


# ----------------------------------------------------------------------
# Execution: capture once, replay everywhere
# ----------------------------------------------------------------------
def test_chip_campaign_runs_and_aggregates(tmp_path):
    cache = ResultCache(tmp_path)
    outcome = run_campaign(_chip_campaign(), cache=cache)
    # Two threads -> two single-core captures, then one chip replay.
    assert outcome.cells_executed == 2
    assert outcome.traces_captured == 2
    assert outcome.cells_replayed == 1
    result = outcome.summaries["baseline"].results[MIX]
    assert result.chip["cores"] == 2
    assert result.provenance["replayed"] is True
    assert "2-core chips" in outcome.describe()

    # A repeated run is served entirely from the cache.
    again = run_campaign(_chip_campaign(), cache=cache)
    assert again.cache_hits == 1
    assert again.cells_executed == 0 and again.cells_replayed == 0


def test_physics_sweep_reuses_cached_single_core_traces(tmp_path):
    """cells_executed stays flat as the physics grid grows."""
    cache = ResultCache(tmp_path)
    small = _chip_campaign(configs=_physics_variants(1))
    outcome = run_campaign(small, cache=cache)
    assert outcome.cells_executed == 2  # the two per-thread captures

    big = _chip_campaign(configs=_physics_variants(4))
    grown = run_campaign(big, cache=cache)
    # 4x the physics cells, zero new timing simulations (phys_0's whole chip
    # cell is even a result-cache hit from the first campaign).
    assert grown.cells_executed == 0
    assert grown.cache_hits == 1
    assert grown.cells_replayed == 3
    assert grown.traces_captured == 0


def test_chip_campaign_replay_matches_coupled(tmp_path):
    coupled = run_campaign(_chip_campaign(), replay=False)
    replayed = run_campaign(_chip_campaign(), cache=ResultCache(tmp_path))
    a = coupled.summaries["baseline"].results[MIX]
    b = replayed.summaries["baseline"].results[MIX]
    assert coupled.cells_replayed == 0 and replayed.cells_replayed == 1
    for ra, rb in zip(a.intervals, b.intervals):
        assert ra.temperature == rb.temperature
        assert ra.dynamic_power == rb.dynamic_power
    assert a.chip == b.chip


def test_feedback_chip_policy_falls_back_to_coupled():
    outcome = run_campaign(
        _chip_campaign(dtm_policies=("none", "core_migration:trigger=60")),
        executor=ParallelExecutor(jobs=2),
    )
    assert outcome.cells_replayed == 1  # the "none" variant
    assert outcome.cells_executed == 3  # 2 captures + 1 coupled migration cell
    managed = outcome.summaries["baseline@core_migration:trigger=60"].results[MIX]
    assert "replayed" not in managed.provenance


# ----------------------------------------------------------------------
# Serialization (schema v4)
# ----------------------------------------------------------------------
def test_schema_v4_round_trips_chip_telemetry():
    outcome = run_campaign(_chip_campaign())
    result = outcome.summaries["baseline"].results[MIX]
    data = result_to_dict(result)
    assert data["schema_version"] == 4
    restored = result_from_dict(data)
    assert restored.chip == result.chip
    assert restored.temperature_metrics("core1") == pytest.approx(
        result.temperature_metrics("core1")
    )
    # A pre-chip (schema v3) file loads with empty chip telemetry.
    data["schema_version"] = 3
    del data["chip"]
    assert result_from_dict(data).chip == {}


# ----------------------------------------------------------------------
# The campaign plan's outcome counters, pinned per scenario and executor
# ----------------------------------------------------------------------
def _policy_axis_campaign():
    return _chip_campaign(
        configs=_physics_variants(2), dtm_policies=("none", "core_migration")
    )


#: scenario -> ([(campaign factory, attach the cache?), ...], counters per
#: campaign as (cells_executed, cells_replayed, traces_captured, cache_hits)).
CHIP_COUNTER_CASES = {
    # Coupled (core_migration) and replayed (none) chip cells in one campaign.
    "policy_axis": ([(_policy_axis_campaign, False)], [(4, 2, 2, 0)]),
    # Two heterogeneous mixes share the swim trace; no cache attached.
    "heterogeneous_mixes": (
        [
            (
                lambda: Campaign(
                    _physics_variants(2),
                    _settings(),
                    name="mixes",
                    cores=2,
                    per_core_scenarios=("gzip+swim", "swim+mcf"),
                ),
                False,
            )
        ],
        [(3, 4, 3, 0)],
    ),
    # A chip sweep replays the traces a single-core campaign captured.
    "single_core_traces": (
        [
            (
                lambda: Campaign(
                    _physics_variants(1),
                    _settings(benchmarks=("gzip", "swim")),
                    name="single",
                ),
                True,
            ),
            (
                lambda: Campaign(
                    _physics_variants(3),
                    _settings(),
                    name="chip",
                    cores=2,
                    per_core_scenarios=("gzip+swim",),
                ),
                True,
            ),
        ],
        [(2, 0, 2, 0), (0, 3, 0, 0)],
    ),
    # A cached re-run simulates and replays nothing.
    "cached_rerun": (
        [(_policy_axis_campaign, True), (_policy_axis_campaign, True)],
        [(4, 2, 2, 0), (0, 0, 0, 4)],
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(CHIP_COUNTER_CASES))
def test_chip_campaign_outcome_counters(case, jobs, tmp_path):
    runs, expected = CHIP_COUNTER_CASES[case]
    cache = ResultCache(tmp_path)
    executor = SerialExecutor() if jobs == 1 else ParallelExecutor(jobs=jobs)
    with executor:
        outcomes = [
            run_campaign(
                factory(), executor=executor, cache=cache if cached else None
            )
            for factory, cached in runs
        ]
    counters = [
        (o.cells_executed, o.cells_replayed, o.traces_captured, o.cache_hits)
        for o in outcomes
    ]
    assert counters == expected
