"""Batched group replay: tolerance-locked equivalence with the exact path.

The batched engine (:mod:`repro.sim.group_replay`) advances whole
thermally-identical sub-groups per interval in one multi-RHS solve.  Its
contract: results match the exact per-cell replay within rtol/atol 1e-8,
while the ``"exact"`` mode — the default everywhere — stays *bit-identical*
to :meth:`PhysicsStage.replay` (and therefore to the coupled run and the
golden fixtures, which ``test_campaign_replay.py`` locks).  These tests
cover both sides of the contract across hopping (gated) traces, the
``none``-policy telemetry reconstruction, mixed thermal axes
(sub-grouping), truncated replays, chip replay groups, and the parallel and
service-pool executors (which carry the replay mode as their
``ExecutionOptions``); the single-cell short-circuit is asserted by
counting batch solves.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    ExecutionOptions,
    ExperimentSettings,
    ParallelExecutor,
    SerialExecutor,
    run_campaign,
)
from repro.campaign.executors import (
    execute_campaign_task,
    execute_cell_capture,
    execute_replay_group,
)
from repro.campaign.spec import RunSpec
from repro.core.presets import bank_hopping_config, baseline_config
from repro.sim.group_replay import (
    BATCHED_ATOL,
    BATCHED_RTOL,
    REPLAY_MODES,
    replay_group,
    thermal_group_key,
    validate_replay_mode,
)
from repro.thermal.solver import ThermalSolver

TOL = dict(rtol=BATCHED_RTOL, atol=BATCHED_ATOL)
APPROX = dict(rel=BATCHED_RTOL, abs=BATCHED_ATOL)
BATCHED = ExecutionOptions(replay_mode="batched")


def _arr(mapping):
    return np.array(list(mapping.values()))


def _variants(base=None, count=4):
    """Physics variants spanning two axes: leakage (power section) and
    convection (thermal section) — two thermal sub-groups of ``count/2``."""
    base = base or baseline_config()
    configs = []
    for i in range(count):
        configs.append(
            dataclasses.replace(
                base,
                name=f"phys_{i}",
                power=dataclasses.replace(
                    base.power, leakage_fraction_at_ambient=0.20 + 0.04 * (i % 2)
                ),
                thermal=dataclasses.replace(
                    base.thermal,
                    convection_resistance_k_per_w=0.14 + 0.04 * (i // 2),
                ),
            )
        )
    return configs


def _capture(config, benchmark="gzip", uops=4_000, interval_cycles=800):
    from repro.campaign import scale_paper_intervals

    spec = RunSpec(
        config=scale_paper_intervals(config, interval_cycles),
        benchmark=benchmark,
        trace_uops=uops,
        interval_cycles=interval_cycles,
        seed=7,
    )
    _, trace = execute_cell_capture(spec)
    return spec, trace


@pytest.fixture(scope="module")
def captured():
    return _capture(baseline_config())


@pytest.fixture(scope="module")
def captured_hopping():
    return _capture(bank_hopping_config())


def _scaled_variants(spec, count=4):
    from repro.campaign import scale_paper_intervals

    return [
        scale_paper_intervals(v, spec.interval_cycles)
        for v in _variants(count=count)
    ]


def _assert_equivalent(batched, exact):
    for b, e in zip(batched, exact):
        assert b.config_name == e.config_name
        assert len(b.intervals) == len(e.intervals)
        for bi, ei in zip(b.intervals, e.intervals):
            assert bi.cycle == ei.cycle and bi.seconds == ei.seconds
            np.testing.assert_allclose(
                _arr(bi.temperature), _arr(ei.temperature), **TOL
            )
            np.testing.assert_allclose(
                _arr(bi.leakage_power), _arr(ei.leakage_power), **TOL
            )
            # Dynamic power never depends on temperature: byte-identical.
            np.testing.assert_array_equal(
                _arr(bi.dynamic_power), _arr(ei.dynamic_power)
            )
        # Warm-up stays on the exact per-cell fixed point: identical, not
        # merely close.
        assert b.warmup_temperature == e.warmup_temperature
        assert b.stats.cycles == e.stats.cycles
        assert b.dtm == e.dtm


class _BatchCounter:
    """Counts every batch kernel the group engine can drive.

    ``walks`` records one entry per batched sub-group walk (its cell
    width); ``advances``/``affine_builds`` count the two batch-advance
    mechanisms (the per-interval multi-RHS solve and the precomputed
    per-dt affine map).  A group that never batches must leave all three
    at zero.
    """

    def __init__(self, monkeypatch):
        self.walks = []
        self.advances = 0
        self.affine_builds = 0
        import repro.sim.group_replay as group_replay_module

        original_walk = group_replay_module.batched_interval_walk
        original_advance = ThermalSolver.advance_nodes_batch
        original_affine = ThermalSolver.interval_affine_map

        def counting_walk(solver, node_positions, states, *args, **kwargs):
            self.walks.append(states.shape[1])
            return original_walk(solver, node_positions, states, *args, **kwargs)

        def counting_advance(solver, states, node_power, dt):
            self.advances += 1
            return original_advance(solver, states, node_power, dt)

        def counting_affine(solver, dt):
            self.affine_builds += 1
            return original_affine(solver, dt)

        monkeypatch.setattr(
            group_replay_module, "batched_interval_walk", counting_walk
        )
        monkeypatch.setattr(ThermalSolver, "advance_nodes_batch", counting_advance)
        monkeypatch.setattr(ThermalSolver, "interval_affine_map", counting_affine)

    @property
    def batch_ops(self):
        return len(self.walks) + self.advances + self.affine_builds


# ----------------------------------------------------------------------
# Core equivalence
# ----------------------------------------------------------------------
def test_batched_matches_exact_within_tolerance(captured):
    spec, trace = captured
    variants = _scaled_variants(spec)
    exact = replay_group(trace, variants, spec.interval_cycles, replay_mode="exact")
    batched = replay_group(
        trace, variants, spec.interval_cycles, replay_mode="batched"
    )
    assert len(trace) >= 4
    _assert_equivalent(batched, exact)


def test_batched_matches_exact_on_hopping_traces(captured_hopping):
    """The gated (bank-hopping) schedule exercises the masked leakage path."""
    spec, trace = captured_hopping
    assert trace.gated_masks is not None
    base = bank_hopping_config()
    variants = []
    from repro.campaign import scale_paper_intervals

    for i in range(4):
        v = dataclasses.replace(
            base,
            name=f"hop_{i}",
            power=dataclasses.replace(
                base.power, leakage_fraction_at_ambient=0.22 + 0.05 * (i % 2)
            ),
            thermal=dataclasses.replace(
                base.thermal, convection_resistance_k_per_w=0.15 + 0.03 * (i // 2)
            ),
        )
        variants.append(scale_paper_intervals(v, spec.interval_cycles))
    exact = replay_group(trace, variants, spec.interval_cycles, replay_mode="exact")
    batched = replay_group(
        trace, variants, spec.interval_cycles, replay_mode="batched"
    )
    _assert_equivalent(batched, exact)
    # Gated blocks carry exactly zero power in both paths.
    for result in batched:
        for i, record in enumerate(result.intervals):
            mask = trace.gated_masks[i]
            np.testing.assert_array_equal(_arr(record.leakage_power)[mask], 0.0)
            np.testing.assert_array_equal(_arr(record.dynamic_power)[mask], 0.0)


def test_exact_mode_is_bit_identical_to_per_cell_replay(captured):
    from repro.sim.engine import PhysicsStage

    spec, trace = captured
    variants = _scaled_variants(spec)
    grouped = replay_group(trace, variants, spec.interval_cycles, replay_mode="exact")
    # Without a mode the group replays exactly too: "exact" is the default.
    default = replay_group(trace, variants, spec.interval_cycles)
    for config, result, plain in zip(variants, grouped, default):
        solo = PhysicsStage(config, spec.interval_cycles).replay(trace)
        assert "replay_mode" not in plain.provenance  # batched results carry it
        for replayed in (result, plain):
            assert len(solo.intervals) == len(replayed.intervals)
            for si, gi in zip(solo.intervals, replayed.intervals):
                # Dict equality on floats == byte identity.
                assert si.temperature == gi.temperature
                assert si.leakage_power == gi.leakage_power
                assert si.dynamic_power == gi.dynamic_power
            assert solo.warmup_temperature == replayed.warmup_temperature


def test_none_policy_telemetry_matches_exact(captured):
    spec, trace = captured
    variants = _scaled_variants(spec)
    policies = ["none"] * len(variants)
    exact = replay_group(
        trace,
        variants,
        spec.interval_cycles,
        dtm_policies=policies,
        replay_mode="exact",
    )
    batched = replay_group(
        trace,
        variants,
        spec.interval_cycles,
        dtm_policies=policies,
        replay_mode="batched",
    )
    _assert_equivalent(batched, exact)
    for result in batched:
        assert result.dtm["policy"] == "none"


def test_feedback_policies_are_rejected(captured):
    spec, trace = captured
    variants = _scaled_variants(spec, count=2)
    with pytest.raises(ValueError, match="actuates on temperatures"):
        replay_group(
            trace,
            variants,
            spec.interval_cycles,
            dtm_policies=["dvfs", None],
            replay_mode="batched",
        )


def test_truncated_max_intervals(captured):
    spec, trace = captured
    variants = _scaled_variants(spec)
    for kwargs in ({"max_intervals": 2}, {"max_intervals": 3, "warmup": False}):
        exact = replay_group(
            trace, variants, spec.interval_cycles, replay_mode="exact", **kwargs
        )
        batched = replay_group(
            trace, variants, spec.interval_cycles, replay_mode="batched", **kwargs
        )
        assert len(batched[0].intervals) == kwargs["max_intervals"]
        _assert_equivalent(batched, exact)


# ----------------------------------------------------------------------
# Sub-grouping and mode routing
# ----------------------------------------------------------------------
def test_mixed_thermal_axes_subgroup_by_thermal_key(captured, monkeypatch):
    """4 cells over 2 thermal axes → exactly 2 batched sub-group walks."""
    spec, trace = captured
    variants = _scaled_variants(spec)
    from repro.power.energy import build_block_parameters

    keys = {
        thermal_group_key(
            v, {n: p.area_mm2 for n, p in build_block_parameters(v).items()}
        )
        for v in variants
    }
    assert len(keys) == 2  # leakage axis never splits a thermal sub-group

    counter = _BatchCounter(monkeypatch)
    replay_group(trace, variants, spec.interval_cycles, replay_mode="batched")
    assert counter.walks == [2, 2]  # one walk per thermal sub-group
    assert counter.affine_builds > 0 or counter.advances > 0


def test_single_cell_group_performs_zero_batch_solves(captured, monkeypatch):
    """A 1-cell group short-circuits straight to the exact path."""
    spec, trace = captured
    counter = _BatchCounter(monkeypatch)
    batched_spec = dataclasses.replace(spec, options=BATCHED)
    results = execute_replay_group(((trace,), [batched_spec]))
    assert counter.batch_ops == 0
    assert len(results) == 1 and results[0].provenance["replayed"] is True

    # Same short-circuit inside the engine for singleton sub-groups.
    results = replay_group(
        trace, [spec.config], spec.interval_cycles, replay_mode="batched"
    )
    assert counter.batch_ops == 0 and len(results) == 1


def test_replay_mode_validation():
    assert REPLAY_MODES == ("exact", "batched")
    for mode in REPLAY_MODES:
        assert validate_replay_mode(mode) == mode
    assert validate_replay_mode(" Batched ") == "batched"
    assert validate_replay_mode("") == "exact"
    for mode in ("fast", "auto"):
        with pytest.raises(ValueError, match="replay_mode"):
            validate_replay_mode(mode)
    with pytest.raises(ValueError, match="replay_mode"):
        ExecutionOptions(replay_mode="bogus")
    with pytest.raises(ValueError, match="timing_mode"):
        ExecutionOptions(timing_mode="bogus")


def test_replay_mode_is_not_part_of_any_cache_key(captured):
    spec, _ = captured
    batched_spec = dataclasses.replace(spec, options=BATCHED)
    assert spec.cache_key() == batched_spec.cache_key()
    assert spec.timing_key() == batched_spec.timing_key()
    assert "replay_mode" not in spec.provenance()


# ----------------------------------------------------------------------
# Campaign / executor integration
# ----------------------------------------------------------------------
def _sweep_campaign(name, benchmarks=("gzip",), uops=2_000):
    settings = ExperimentSettings(
        benchmarks=benchmarks, uops_per_benchmark=uops, seed=7
    )
    return Campaign(_variants(), settings, name=f"sweep_{name}")


def _run_recording_options(task):
    """Module-level (picklable) phase-1 task fn that records, on the
    result, the options its worker process saw on the spec."""
    result, trace = execute_campaign_task(task)
    result.provenance["seen"] = (os.getpid(), task[1].options)
    return result, trace


def test_parallel_executor_carries_options_to_workers(monkeypatch):
    from repro.campaign import core

    monkeypatch.setattr(core, "execute_campaign_task", _run_recording_options)
    options = ExecutionOptions("reference", "batched")
    with ParallelExecutor(jobs=2, options=options) as executor:
        outcome = run_campaign(_sweep_campaign("options"), executor, replay=False)
    seen = [
        result.provenance["seen"]
        for summary in outcome.summaries.values()
        for result in summary.results.values()
    ]
    assert len(seen) == 4
    assert {options} == {seen_options for _, seen_options in seen}
    assert os.getpid() not in {pid for pid, _ in seen}
    assert outcome.runtime["options"] == options.to_dict()


def _peaks(outcome):
    return {
        f"{variant}/{benchmark}": result.peak_temperature()
        for variant, summary in outcome.summaries.items()
        for benchmark, result in summary.results.items()
    }


def test_campaign_batched_equals_exact_end_to_end():
    exact = run_campaign(_sweep_campaign("exact"), executor=SerialExecutor())
    batched = run_campaign(
        _sweep_campaign("batched"), executor=SerialExecutor(BATCHED)
    )
    assert batched.cells_replayed == exact.cells_replayed == 3
    expected = _peaks(exact)
    actual = _peaks(batched)
    assert expected.keys() == actual.keys()
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, **APPROX)


def test_parallel_executor_runs_batched_groups():
    exact = run_campaign(_sweep_campaign("exact"), executor=SerialExecutor())
    with ParallelExecutor(jobs=2, options=BATCHED) as executor:
        batched = run_campaign(_sweep_campaign("batched"), executor=executor)
    expected, actual = _peaks(exact), _peaks(batched)
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, **APPROX)


def test_service_pool_executor_runs_batched_groups():
    from repro.campaign.pool import WorkerPool
    from repro.service.manager import PoolBackedExecutor

    pool = WorkerPool(workers=2, mode="thread")
    try:
        batched = run_campaign(
            _sweep_campaign("batched"),
            executor=PoolBackedExecutor(pool, options=BATCHED),
        )
    finally:
        pool.shutdown(drain=False)
    exact = run_campaign(_sweep_campaign("exact"), executor=SerialExecutor())
    expected, actual = _peaks(exact), _peaks(batched)
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, **APPROX)


def test_service_codec_carries_replay_mode():
    from repro.service import CampaignService, WorkerPool
    from repro.service.codec import options_from_payload, payload_from_options

    payload = payload_from_options(
        scale="smoke", benchmarks=["gzip"], uops=1_000, replay_mode="batched"
    )
    assert options_from_payload(payload) == BATCHED
    assert options_from_payload({"scale": "smoke"}) == ExecutionOptions()
    with pytest.raises(ValueError, match="replay_mode"):
        options_from_payload({"scale": "smoke", "replay_mode": "bogus"})

    # The job's executor runs under the payload's options.
    service = CampaignService(pool=WorkerPool(workers=1, mode="thread"))
    job = service.submit(payload)
    service.shutdown(drain=True, timeout=60)
    assert job.state.value == "done", job.error
    runtime = job.results["outcome"]["runtime"]
    assert runtime["options"] == BATCHED.to_dict()


# ----------------------------------------------------------------------
# Chip replay groups
# ----------------------------------------------------------------------
def test_chip_batched_matches_exact(monkeypatch):
    from repro.campaign import scale_paper_intervals
    from repro.chip.spec import ChipRunSpec

    interval_cycles = 800
    traces = []
    for benchmark in ("gzip", "swim"):
        _, trace = _capture(
            baseline_config(), benchmark=benchmark, uops=2_000,
            interval_cycles=interval_cycles,
        )
        traces.append(trace)
    traces = tuple(traces)

    specs = []
    for mode in ("exact", "batched"):
        specs.append(
            [
                ChipRunSpec(
                    config=scale_paper_intervals(v, interval_cycles),
                    cores=2,
                    benchmarks=("gzip", "swim"),
                    trace_uops=(2_000, 2_000),
                    interval_cycles=interval_cycles,
                    seed=7,
                    options=ExecutionOptions(replay_mode=mode),
                )
                for v in _variants()
            ]
        )
    exact_specs, batched_specs = specs

    exact = execute_replay_group((traces, exact_specs))
    counter = _BatchCounter(monkeypatch)
    batched = execute_replay_group((traces, batched_specs))
    assert counter.walks and all(width >= 2 for width in counter.walks)
    for b, e in zip(batched, exact):
        assert b.config_name == e.config_name
        assert len(b.intervals) == len(e.intervals)
        for bi, ei in zip(b.intervals, e.intervals):
            assert bi.cycle == ei.cycle
            np.testing.assert_allclose(
                _arr(bi.temperature), _arr(ei.temperature), **TOL
            )
            np.testing.assert_array_equal(
                _arr(bi.dynamic_power), _arr(ei.dynamic_power)
            )
        assert b.warmup_temperature == e.warmup_temperature
        for core, metrics in e.chip["per_core"].items():
            for key, value in metrics.items():
                assert b.chip["per_core"][core][key] == pytest.approx(value, **APPROX)
        assert b.chip["policy"] == e.chip["policy"]
        assert b.stats.cycles == e.stats.cycles


def test_chip_campaign_batched_equals_exact_end_to_end():
    settings = ExperimentSettings(
        benchmarks=("gzip",), uops_per_benchmark=1_500, seed=7
    )
    outcomes = {}
    for mode in ("exact", "batched"):
        campaign = Campaign(_variants(), settings, name=f"chip_{mode}", cores=2)
        outcomes[mode] = run_campaign(
            campaign, executor=SerialExecutor(ExecutionOptions(replay_mode=mode))
        )
    expected, actual = _peaks(outcomes["exact"]), _peaks(outcomes["batched"])
    assert expected.keys() == actual.keys()
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, **APPROX)


# ----------------------------------------------------------------------
# The vectorized leakage kernel
# ----------------------------------------------------------------------
def test_batched_leakage_kernel_matches_scalar_loop():
    """Property test: the np.exp batch kernel equals the bit-exact scalar
    math.exp loop within documented tolerance over random inputs."""
    from repro.power.leakage import LeakageModel, batched_leakage_kernel
    from repro.sim.config import PowerConfig

    rng = np.random.default_rng(42)
    blocks = 12
    block_names = [f"b{i}" for i in range(blocks)]
    for trial in range(25):
        fraction = float(rng.uniform(0.05, 0.8))
        coefficient = float(rng.uniform(0.005, 0.05))
        ambient = float(rng.uniform(25.0, 55.0))
        config = PowerConfig(
            leakage_fraction_at_ambient=fraction,
            leakage_temperature_coefficient=coefficient,
            ambient_celsius=ambient,
        )
        model = LeakageModel(config, block_names)
        dynamic = rng.uniform(0.0, 40.0, size=blocks)
        model.seed_nominal_power_array(dynamic)
        # Include temperatures beyond the 120 C clamp.
        temps = ambient + rng.uniform(-10.0, 140.0, size=blocks)
        gated = rng.random(blocks) < 0.25

        scalar = model.leakage_power_array(temps, gated)
        batch = model.leakage_power_batch(temps, gated)
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(batch[gated], 0.0)

        kernel = batched_leakage_kernel(
            dynamic,  # sum/1 == dynamic
            temps,
            ambient_celsius=ambient,
            fraction_at_ambient=fraction,
            temperature_coefficient=coefficient,
        )
        np.testing.assert_allclose(
            np.where(gated, 0.0, kernel), scalar, rtol=1e-12, atol=1e-12
        )


def test_batched_leakage_kernel_broadcasts_cell_columns():
    from repro.power.leakage import batched_leakage_kernel

    cells, blocks = 3, 5
    rng = np.random.default_rng(7)
    nominal = rng.uniform(0.1, 20.0, size=(cells, blocks))
    temps = rng.uniform(40.0, 100.0, size=(cells, blocks))
    fraction = rng.uniform(0.1, 0.5, size=(cells, 1))
    coefficient = rng.uniform(0.01, 0.02, size=(cells, 1))
    ambient = rng.uniform(40.0, 50.0, size=(cells, 1))
    out = batched_leakage_kernel(
        nominal,
        temps,
        ambient_celsius=ambient,
        fraction_at_ambient=fraction,
        temperature_coefficient=coefficient,
    )
    assert out.shape == (cells, blocks)
    for c in range(cells):
        row = batched_leakage_kernel(
            nominal[c],
            temps[c],
            ambient_celsius=float(ambient[c, 0]),
            fraction_at_ambient=float(fraction[c, 0]),
            temperature_coefficient=float(coefficient[c, 0]),
        )
        np.testing.assert_array_equal(out[c], row)
