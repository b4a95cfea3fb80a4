"""Dynamic-thermal-management invariants.

Three properties anchor the subsystem:

1. *Clamping*: no policy — however buggy or adversarial — can push a block
   outside its voltage/frequency table, stop fetch outright, or escape the
   duty quantization.  The clamps live in :class:`repro.dtm.DTMControls`,
   so they hold for every policy by construction.
2. *Efficacy*: the hybrid policy reduces the peak temperature of the
   thermal-virus scenario versus running without DTM.
3. *Bit-exactness*: the no-op policy leaves every power/thermal number of a
   run bit-identical to running with no DTM at all (the golden fixtures of
   ``tests/test_golden_metrics.py`` stay valid unmodified).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import Campaign, ExperimentSettings, run_campaign
from repro.campaign.builder import scale_paper_intervals
from repro.core.presets import baseline_config, bank_hopping_biasing_config
from repro.dtm import (
    DEFAULT_VF_TABLE,
    DTMControls,
    DTMObservation,
    DTMPolicy,
    FETCH_DUTY_PERIOD,
    NoDTMPolicy,
    VFPoint,
    VFTable,
    available_policies,
    make_policy,
)
from repro.sim.block_index import BlockIndex
from repro.sim.engine import run_benchmark
from repro.workloads.generator import TraceGenerator


# ----------------------------------------------------------------------
# 1. Clamping: the actuators bound every request
# ----------------------------------------------------------------------
class _AdversarialPolicy(DTMPolicy):
    """Requests far outside every legal range, every interval."""

    def __init__(self) -> None:
        super().__init__("adversarial")

    def apply(self, observation: DTMObservation, controls: DTMControls) -> None:
        controls.request_fetch_duty(-3.0)          # below zero
        controls.request_step(list(observation.index), 999)   # beyond the table
        controls.request_fetch_duty(7.5)           # above one
        controls.request_step(list(observation.index), -999)  # above nominal


def _controls() -> DTMControls:
    return DTMControls(BlockIndex(["A", "B", "C"]))


def test_fetch_duty_requests_are_clamped_and_quantized():
    controls = _controls()
    assert controls.request_fetch_duty(-1.0) == 1 / FETCH_DUTY_PERIOD
    assert controls.request_fetch_duty(0.0) == 1 / FETCH_DUTY_PERIOD
    assert controls.request_fetch_duty(5.0) == 1.0
    granted = controls.request_fetch_duty(0.3)
    assert granted == round(0.3 * FETCH_DUTY_PERIOD) / FETCH_DUTY_PERIOD
    assert 1 / FETCH_DUTY_PERIOD <= granted <= 1.0


def test_vf_steps_are_clamped_into_the_table():
    controls = _controls()
    table = controls.table
    assert controls.request_step(["A", "B"], 10_000) == len(table) - 1
    assert controls.request_step(["A"], -5) == 0
    # Unknown block names are ignored rather than raising.
    assert controls.request_step(["nonexistent"], 2) == 2
    # The scale vectors always correspond to real table points.
    legal_dynamic = {p.dynamic_scale for p in table.points}
    legal_leakage = {p.leakage_scale for p in table.points}
    assert set(np.unique(controls.dynamic_scale)) <= legal_dynamic
    assert set(np.unique(controls.leakage_scale)) <= legal_leakage


def test_vf_table_rejects_overclocking_and_disorder():
    with pytest.raises(ValueError):
        VFPoint(1.2, 1.0)
    with pytest.raises(ValueError):
        VFPoint(1.0, 0.0)
    with pytest.raises(ValueError):
        VFTable(((0.9, 0.9),))  # step 0 must be nominal
    with pytest.raises(ValueError):
        VFTable(((1.0, 1.0), (0.7, 0.9), (0.8, 0.95)))  # not descending


def test_adversarial_policy_cannot_escape_the_actuator_bounds():
    config = scale_paper_intervals(baseline_config(), 800)
    trace = TraceGenerator("gzip", seed=3).generate(2_500)
    result = run_benchmark(
        config, trace.uops, "gzip", interval_cycles=800,
        dtm_policy=_AdversarialPolicy(),
    )
    # The run completes, and the telemetry shows only legal actuator states.
    assert result.dtm["policy"] == "adversarial"
    assert 0.0 <= result.dtm["throttle_ratio"] <= 1.0 - 1 / FETCH_DUTY_PERIOD
    assert result.dtm["mean_freq_ratio"] >= DEFAULT_VF_TABLE.min_freq_ratio
    legal_ratios = {f"{p.freq_ratio:g}" for p in DEFAULT_VF_TABLE.points}
    assert set(result.dtm["dvfs_residency"]) <= legal_ratios


class _AlwaysGatePolicy(DTMPolicy):
    """Requests a whole-interval clock gate every interval."""

    def __init__(self) -> None:
        super().__init__("always_gate")

    def apply(self, observation: DTMObservation, controls: DTMControls) -> None:
        controls.request_interval_gate()


def test_unbounded_gating_streak_aborts_naming_the_policy(monkeypatch):
    """A policy that never releases stop-go cannot hang the run."""
    from repro.sim.engine import SimulationEngine

    monkeypatch.setattr(SimulationEngine, "_MAX_GATED_STREAK", 4)
    config = scale_paper_intervals(baseline_config(), 800)
    trace = TraceGenerator("gzip", seed=3).generate(2_500)
    with pytest.raises(RuntimeError, match="'always_gate' clock-gated 5 consecutive"):
        run_benchmark(
            config, trace.uops, "gzip", interval_cycles=800,
            dtm_policy=_AlwaysGatePolicy(),
        )


# ----------------------------------------------------------------------
# 2. Efficacy: hybrid DTM cools the thermal virus
# ----------------------------------------------------------------------
def _run_virus(policy_spec):
    settings = ExperimentSettings(
        benchmarks=("thermal_virus",),
        uops_per_benchmark=8_000,
        seed=7,
        honor_relative_length=False,
    )
    interval = settings.resolved_interval_cycles()
    config = scale_paper_intervals(bank_hopping_biasing_config(), interval)
    trace = TraceGenerator("thermal_virus", seed=settings.seed).generate(
        settings.uops_per_benchmark
    )
    policy = make_policy(policy_spec) if policy_spec else None
    return run_benchmark(
        config, trace.uops, "thermal_virus",
        interval_cycles=interval, dtm_policy=policy,
    )


def test_hybrid_policy_reduces_peak_temperature_on_thermal_virus():
    baseline = _run_virus(None)
    hybrid = _run_virus("hybrid")
    assert hybrid.peak_temperature() < baseline.peak_temperature()
    # The cooling is bought with wall-clock time, never for free.
    assert hybrid.total_seconds() >= baseline.total_seconds()
    assert hybrid.dtm["throttle_ratio"] > 0.0 or hybrid.dtm["mean_freq_ratio"] < 1.0


def test_policies_stay_disengaged_on_the_cool_control_scenario():
    settings = ExperimentSettings(
        benchmarks=("idle_crawl",), uops_per_benchmark=6_000, seed=7,
        honor_relative_length=False,
    )
    interval = settings.resolved_interval_cycles()
    config = scale_paper_intervals(baseline_config(), interval)

    def run(policy_spec):
        trace = TraceGenerator("idle_crawl", seed=7).generate(6_000)
        policy = make_policy(policy_spec) if policy_spec else None
        return run_benchmark(config, trace.uops, "idle_crawl",
                             interval_cycles=interval, dtm_policy=policy)

    baseline = run(None)
    for spec in ("fetch_throttle", "clock_gate", "dvfs", "hybrid"):
        managed = run(spec)
        assert managed.dtm["throttle_ratio"] == 0.0, spec
        assert managed.dtm["gated_intervals"] == 0, spec
        assert managed.dtm["mean_freq_ratio"] == 1.0, spec
        assert managed.stats.cycles == baseline.stats.cycles, spec


# ----------------------------------------------------------------------
# 3. Bit-exactness of the no-op policy
# ----------------------------------------------------------------------
def test_noop_policy_is_bit_identical_to_no_dtm():
    """Every interval's power and temperature match bit for bit.

    This is the same property the golden fixtures lock for the engine
    without DTM; together they prove attaching a silent policy cannot
    perturb the paper's numbers.
    """
    config = scale_paper_intervals(bank_hopping_biasing_config(), 800)

    def run(policy):
        trace = TraceGenerator("gzip", seed=7).generate(3_000)
        return run_benchmark(config, trace.uops, "gzip",
                             interval_cycles=800, dtm_policy=policy)

    plain = run(None)
    noop = run(NoDTMPolicy())
    assert plain.stats.cycles == noop.stats.cycles
    assert plain.warmup_temperature == noop.warmup_temperature
    assert len(plain.intervals) == len(noop.intervals)
    for a, b in zip(plain.intervals, noop.intervals):
        assert a.seconds == b.seconds
        assert a.dynamic_power == b.dynamic_power
        assert a.leakage_power == b.leakage_power
        assert a.temperature == b.temperature
    # The only difference is that the no-op run reports DTM telemetry.
    assert plain.dtm == {}
    assert noop.dtm["policy"] == "none"
    assert noop.dtm["throttle_ratio"] == 0.0


# ----------------------------------------------------------------------
# Campaign integration: the policy axis
# ----------------------------------------------------------------------
def test_campaign_policy_axis_expands_and_keys_variants():
    settings = ExperimentSettings(benchmarks=("gzip", "swim"), uops_per_benchmark=1_500)
    campaign = Campaign(
        (baseline_config(),), settings, name="axis",
        dtm_policies=("none", "dvfs:target=80"),
    )
    assert len(campaign) == 4
    cells = campaign.cells()
    assert [c.dtm_policy for c in cells] == ["none", "none", "dvfs:target=80", "dvfs:target=80"]
    assert campaign.variant_names() == ("baseline@none", "baseline@dvfs:target=80")
    # Cache keys and provenance carry the policy; policy-free cells do not.
    assert "dtm_policy" in cells[2].key_material()
    plain = Campaign((baseline_config(),), settings).cells()[0]
    assert "dtm_policy" not in plain.key_material()

    outcome = run_campaign(campaign)
    assert set(outcome.summaries) == {"baseline@none", "baseline@dvfs:target=80"}
    result = outcome.summaries["baseline@dvfs:target=80"].results["gzip"]
    assert result.provenance["dtm_policy"] == "dvfs:target=80"
    assert result.dtm["policy"] == "dvfs:target=80"
    # The no-op policy axis reproduces the plain campaign's metrics exactly.
    plain_outcome = run_campaign(Campaign((baseline_config(),), settings))
    for benchmark in settings.benchmarks:
        a = plain_outcome.summaries["baseline"].results[benchmark]
        b = outcome.summaries["baseline@none"].results[benchmark]
        assert a.temperature_metrics("Processor") == b.temperature_metrics("Processor")
        assert a.stats.cycles == b.stats.cycles


def test_unknown_policy_fails_at_campaign_construction():
    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_000)
    with pytest.raises(ValueError, match="unknown DTM policy"):
        Campaign((baseline_config(),), settings, dtm_policies=("warp_drive",))


def test_policy_declared_vf_table_reaches_the_engine_controls():
    """A custom table= on DVFSPolicy governs the run, not the default ladder."""
    from repro.dtm import DVFSPolicy

    table = VFTable(((1.0, 1.0), (0.5, 0.7)))
    policy = DVFSPolicy(target=0.0, table=table)  # always hotter than target
    config = scale_paper_intervals(baseline_config(), 800)
    trace = TraceGenerator("gzip", seed=3).generate(2_500)
    result = run_benchmark(
        config, trace.uops, "gzip", interval_cycles=800, dtm_policy=policy
    )
    residency = result.dtm["dvfs_residency"]
    assert set(residency) <= {"1", "0.5"}
    assert residency.get("0.5", 0.0) > 0.0
    assert result.dtm["mean_freq_ratio"] < 1.0


def test_policy_objects_are_reusable_across_runs():
    """bind() resets controller state: a reused policy starts each run cold."""
    from repro.dtm import ClockGatePolicy, FetchThrottlePolicy

    config = scale_paper_intervals(baseline_config(), 800)
    index = BlockIndex(["A"])
    controls = DTMControls(index)

    throttle = FetchThrottlePolicy(trigger=50.0)
    throttle._engaged = True
    throttle.bind(index, config, controls)
    assert throttle._engaged is False

    gate = ClockGatePolicy(trigger=50.0)
    gate._stopped = 5
    gate.bind(index, config, controls)
    assert gate._stopped == 0


def test_make_policy_parses_parameters_and_rejects_garbage():
    policy = make_policy("fetch_throttle:trigger=80,duty=0.25")
    assert policy.trigger_celsius == 80.0 and policy.duty == 0.25
    assert set(available_policies()) >= {"none", "fetch_throttle", "clock_gate", "dvfs", "hybrid"}
    with pytest.raises(ValueError):
        make_policy("dvfs:target")          # malformed parameter
    with pytest.raises(ValueError):
        make_policy("dvfs:warp=9")          # unknown keyword
    with pytest.raises(ValueError):
        make_policy("dvfs:target=hot")      # non-numeric value
