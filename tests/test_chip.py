"""Tests of the chip multiprocessor layer (:mod:`repro.chip`).

The two contractual equivalences:

* a **1-core chip** is bit-identical to the single-core engine — the same
  runs the golden fixtures pin, so the chip layer adds zero numerical drift;
* a **multi-core coupled** run equals its **per-core-trace replay** exactly,
  for a heterogeneous mix with ``core_migration`` disabled — and the
  per-core traces are byte-identical to plain single-core captures.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.campaign import ExecutionOptions
from repro.chip import (
    ChipEngine,
    build_chip_physics,
    chip_block_groups,
    make_chip_policy,
    replay_chip,
)
from repro.chip.engine import replay_chip_group
from repro.chip.policies import ChipControls, ChipObservation
from repro.chip.spec import ChipRunSpec
from repro.core.presets import baseline_config, bank_hopping_config
from repro.sim.engine import PhysicsStage, SimulationEngine
from repro.sim.group_replay import BATCHED_ATOL, BATCHED_RTOL, replay_group
from repro.workloads.generator import TraceGenerator

INTERVAL = 400
HETEROGENEOUS = ("thermal_virus", "idle_crawl")


def _uops(benchmark, n=2500, seed=5):
    return TraceGenerator(benchmark, seed=seed).generate(n).uops


def _chip(config, benchmarks, **kwargs):
    sources = [_uops(b) for b in benchmarks]
    return ChipEngine(config, sources, benchmarks, interval_cycles=INTERVAL, **kwargs)


def _assert_results_identical(a, b, rename=lambda name: name):
    __tracebackhide__ = True
    assert len(a.intervals) == len(b.intervals)
    for ra, rb in zip(a.intervals, b.intervals):
        assert ra.cycle == rb.cycle
        assert ra.seconds == rb.seconds
        for name in a.block_names:
            other = rename(name)
            assert ra.temperature[name] == rb.temperature[other]
            assert ra.dynamic_power[name] == rb.dynamic_power[other]
            assert ra.leakage_power[name] == rb.leakage_power[other]


# ----------------------------------------------------------------------
# 1-core chip == single-core engine, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config_factory", [baseline_config, bank_hopping_config])
def test_one_core_chip_bit_identical_to_single_core(config_factory):
    config = config_factory()
    single = SimulationEngine(
        config, _uops("gzip"), "gzip", interval_cycles=INTERVAL
    ).run()
    chip = _chip(config, ["gzip"]).run()
    _assert_results_identical(single, chip, rename=lambda name: f"core0.{name}")
    assert chip.stats.to_payload() == single.stats.to_payload()
    assert chip.chip["cores"] == 1
    assert chip.chip["aggregate"]["chip_ipc"] == single.stats.ipc
    # The composite warm-up equals the single-core one, renamed.
    assert chip.warmup_temperature == {
        f"core0.{name}": value for name, value in single.warmup_temperature.items()
    }


# ----------------------------------------------------------------------
# Multi-core coupled == per-core-trace replay, exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config_factory", [baseline_config, bank_hopping_config])
def test_two_core_coupled_equals_trace_replay_exactly(config_factory):
    """The acceptance equivalence: heterogeneous 2-core mix, no migration."""
    config = config_factory()
    coupled, traces = _chip(config, list(HETEROGENEOUS)).run_with_traces()
    replayed = replay_chip(config, traces, interval_cycles=INTERVAL)
    _assert_results_identical(coupled, replayed)
    assert coupled.chip == replayed.chip
    assert coupled.stats.to_payload() == replayed.stats.to_payload()
    assert coupled.warmup_temperature == replayed.warmup_temperature
    assert replayed.provenance["replayed"] is True


def test_chip_traces_byte_identical_to_single_core_captures():
    """A chip thread's trace IS the single-core capture of the same cell."""
    config = baseline_config()
    _, traces = _chip(config, list(HETEROGENEOUS)).run_with_traces()
    for benchmark, trace in zip(HETEROGENEOUS, traces):
        _, single_trace = SimulationEngine(
            config, _uops(benchmark), benchmark, interval_cycles=INTERVAL
        ).run_with_trace()
        assert single_trace.to_json() == trace.to_json()


def test_replay_with_none_policy_matches_coupled_none_policy():
    config = baseline_config()
    coupled = _chip(config, list(HETEROGENEOUS), chip_policy="none").run()
    _, traces = _chip(config, list(HETEROGENEOUS)).run_with_traces()
    replayed = replay_chip(config, traces, interval_cycles=INTERVAL, chip_policy="none")
    _assert_results_identical(coupled, replayed)
    assert coupled.chip == replayed.chip


# ----------------------------------------------------------------------
# One replay path: a single-core replay is the one-trace chip layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config_factory", [baseline_config, bank_hopping_config])
def test_one_trace_chip_replay_bit_identical_to_single_core_replay(config_factory):
    config = config_factory()
    _, trace = SimulationEngine(
        config, _uops("gzip"), "gzip", interval_cycles=INTERVAL
    ).run_with_trace()
    if config.frontend.trace_cache.bank_hopping:
        assert trace.gated_masks is not None and trace.gated_masks.any()
    # The chip layout counts cycles by the die clock; one trace's clock is
    # its own.
    np.testing.assert_array_equal(np.cumsum(trace.cycles), trace.end_cycles)
    single = PhysicsStage(config, INTERVAL).replay(trace)
    chip = replay_chip(config, [trace], interval_cycles=INTERVAL)
    _assert_results_identical(single, chip, rename=lambda name: f"core0.{name}")
    assert chip.warmup_temperature == {
        f"core0.{name}": value for name, value in single.warmup_temperature.items()
    }


def _rng_physics_variants(config, count=4, seed=11):
    """Leakage and convection variants from a fixed-seed RNG: every leakage
    fraction differs, and the convection resistances form two thermal
    sub-groups of two cells each, so every cell takes the batched walk."""
    rng = np.random.default_rng(seed)
    convection = rng.permutation([0.14, 0.2] * (count // 2))
    return [
        dataclasses.replace(
            config,
            name=f"rng_{i}",
            power=dataclasses.replace(
                config.power,
                leakage_fraction_at_ambient=float(rng.uniform(0.15, 0.35)),
            ),
            thermal=dataclasses.replace(
                config.thermal, convection_resistance_k_per_w=float(convection[i])
            ),
        )
        for i in range(count)
    ]


def _assert_within_batched_contract(batched, exact):
    __tracebackhide__ = True
    tolerance = dict(rtol=BATCHED_RTOL, atol=BATCHED_ATOL)
    for b, e in zip(batched, exact):
        assert b.provenance["replay_mode"] == "batched"
        assert len(b.intervals) == len(e.intervals)
        for rb, re in zip(b.intervals, e.intervals):
            assert rb.cycle == re.cycle and rb.seconds == re.seconds
            assert rb.dynamic_power == re.dynamic_power
            for field in ("temperature", "leakage_power"):
                np.testing.assert_allclose(
                    list(getattr(rb, field).values()),
                    list(getattr(re, field).values()),
                    **tolerance,
                )
        assert b.warmup_temperature == e.warmup_temperature


@pytest.mark.parametrize("mix", [("gzip",), HETEROGENEOUS], ids=["1-trace", "2-core"])
def test_batched_replay_within_tolerance_on_every_layout(mix):
    config = baseline_config()
    variants = _rng_physics_variants(config)
    _, traces = _chip(config, list(mix)).run_with_traces()
    if len(mix) == 1:
        exact = replay_group(traces[0], variants, INTERVAL, replay_mode="exact")
        batched = replay_group(traces[0], variants, INTERVAL, replay_mode="batched")
    else:
        specs = {
            mode: [
                ChipRunSpec(
                    config=variant,
                    cores=len(mix),
                    benchmarks=mix,
                    trace_uops=(2500,) * len(mix),
                    interval_cycles=INTERVAL,
                    seed=5,
                    options=ExecutionOptions(replay_mode=mode),
                )
                for variant in variants
            ]
            for mode in ("exact", "batched")
        }
        exact = replay_chip_group(traces, specs["exact"], replay_mode="exact")
        batched = replay_chip_group(traces, specs["batched"], replay_mode="batched")
        for b, e in zip(batched, exact):
            for core, metrics in e.chip["per_core"].items():
                for key, value in metrics.items():
                    assert b.chip["per_core"][core][key] == pytest.approx(
                        value, rel=BATCHED_RTOL, abs=BATCHED_ATOL
                    )
    _assert_within_batched_contract(batched, exact)


# ----------------------------------------------------------------------
# Composite-die physics
# ----------------------------------------------------------------------
def test_composite_network_has_cross_core_lateral_coupling():
    config = baseline_config()
    physics, core_index, blocks_per_core = build_chip_physics(config, 2, INTERVAL)
    g = physics.network.conductance
    cross = g[:blocks_per_core, blocks_per_core : 2 * blocks_per_core]
    # Abutting dies share edges: some core0 <-> core1 conductances exist.
    assert (cross < 0).any()
    # And the composite die area doubles, so the package sees a bigger die.
    single = build_chip_physics(config, 1, INTERVAL)[0]
    assert physics.floorplan.die_area == pytest.approx(2 * single.floorplan.die_area)


def test_idle_neighbour_heats_through_the_package():
    """A hot core warms an idle one well above ambient (shared-die coupling)."""
    config = baseline_config()
    result = _chip(config, ["thermal_virus"], cores=2).run()
    idle_peak = result.chip["per_core"]["core1"]["peak_celsius"]
    busy_peak = result.chip["per_core"]["core0"]["peak_celsius"]
    assert busy_peak > idle_peak
    assert idle_peak > config.thermal.ambient_celsius + 10.0


def test_chip_block_groups_cover_every_core():
    config = baseline_config()
    groups = chip_block_groups(config, 2)
    assert "core0" in groups and "core1" in groups
    assert len(groups["Processor"]) == len(groups["core0"]) + len(groups["core1"])
    assert all(name.startswith("core1.") for name in groups["core1"])


# ----------------------------------------------------------------------
# Chip-level DTM
# ----------------------------------------------------------------------
def test_core_migration_moves_hot_thread_to_idle_core():
    config = baseline_config()
    result = _chip(
        config,
        ["thermal_virus"],
        cores=2,
        chip_policy="core_migration:trigger=60,margin=0.5,cooldown=1",
    ).run()
    assert result.chip["migrations"] >= 1
    first = result.chip["migration_log"][0]
    assert first["thread"] == 0 and first["from"] == 0 and first["to"] == 1
    assert result.chip["threads"][0]["final_core"] in (0, 1)
    assert result.chip["policy"].startswith("core_migration")


def test_migrations_happen_only_in_simulated_intervals():
    """The run ends when every processor drains, not one interval later.

    Here the last thread drains at the end of an interval while a core
    sits idle; no policy step, and so no migration, may follow it.
    """
    sources = [_uops(b, n=1500) for b in HETEROGENEOUS]
    result = ChipEngine(
        baseline_config(),
        sources,
        list(HETEROGENEOUS),
        cores=3,
        interval_cycles=INTERVAL,
        chip_policy="core_migration:trigger=60",
        core_policies=["hybrid:target=60"] * 2,
    ).run()
    log = result.chip["migration_log"]
    assert log
    assert all(move["interval"] < len(result.intervals) for move in log), log


def test_drained_thread_is_never_migrated():
    """A thread drained in interval k frees its core for the step of k + 1.

    The short hot thread drains in the first interval; the policy step that
    follows must see its core idle rather than move (and log) the finished
    thread while the long thread keeps the run going.
    """
    sources = [_uops("thermal_virus", n=600), _uops("idle_crawl", n=3000)]
    result = ChipEngine(
        baseline_config(),
        sources,
        list(HETEROGENEOUS),
        cores=3,
        interval_cycles=INTERVAL,
        chip_policy="core_migration:trigger=60,margin=0,cooldown=0",
    ).run()
    drained = [
        math.ceil(thread["cycles"] / INTERVAL) - 1 for thread in result.chip["threads"]
    ]
    assert drained[0] < drained[1] == len(result.intervals) - 1
    log = result.chip["migration_log"]
    assert log
    late = [move for move in log if move["interval"] > drained[move["thread"]]]
    assert not late, late


def test_core_migration_needs_an_idle_core():
    config = baseline_config()
    result = _chip(
        config,
        list(HETEROGENEOUS),
        cores=2,
        chip_policy="core_migration:trigger=60,margin=0,cooldown=0",
    ).run()
    assert result.chip["migrations"] == 0


def test_chip_dvfs_engages_per_core():
    config = baseline_config()
    managed = _chip(
        config, list(HETEROGENEOUS), chip_policy="chip_dvfs:target=70"
    ).run()
    unmanaged = _chip(config, list(HETEROGENEOUS)).run()
    residency = managed.chip["dvfs_residency"]
    assert any(ratio != "1" for ratio in residency)
    assert (
        managed.chip["aggregate"]["peak_celsius"]
        < unmanaged.chip["aggregate"]["peak_celsius"]
    )


def test_per_core_policy_rides_along():
    config = baseline_config()
    result = _chip(
        config,
        list(HETEROGENEOUS),
        core_policies=["fetch_throttle:trigger=60", None],
    ).run()
    dtm = result.chip["threads"][0]["dtm"]
    assert dtm["throttle_ratio"] > 0.0
    assert "dtm" not in result.chip["threads"][1]


def test_feedback_policies_refuse_capture_and_replay():
    config = baseline_config()
    engine = _chip(config, ["thermal_virus"], cores=2, chip_policy="core_migration")
    with pytest.raises(ValueError, match="actuates on temperatures"):
        engine.run_with_traces()
    _, traces = _chip(config, ["thermal_virus"], cores=2).run_with_traces()
    with pytest.raises(ValueError, match="coupled"):
        replay_chip(config, traces, cores=2, chip_policy="core_migration")


def test_chip_controls_clamp_requests():
    controls = ChipControls(2)
    assert controls.request_core_step(0, 99) == len(controls.table) - 1
    assert controls.request_core_step(0, -5) == 0
    with pytest.raises(ValueError, match="out of range"):
        controls.request_core_step(2, 1)
    with pytest.raises(ValueError, match="out of range"):
        controls.request_core_step(-1, 1)
    controls.begin_interval(migration_allowed=False)
    assert not controls.request_migration(0, 1)
    controls.begin_interval()
    assert not controls.request_migration(0, 0)
    assert not controls.request_migration(0, 7)
    assert controls.request_migration(0, 1)
    # One migration per interval.
    assert not controls.request_migration(1, 0)


def test_chip_observation_picks_hottest_busy_and_coolest_idle():
    obs = ChipObservation(
        3,
        np.array([80.0, 95.0, 60.0, 70.0]),
        np.array([True, True, False, False]),
    )
    assert obs.hottest_busy_core() == 1
    assert obs.coolest_idle_core() == 2


def test_make_chip_policy_errors_are_one_liners():
    with pytest.raises(ValueError, match="unknown chip DTM policy"):
        make_chip_policy("nope")
    with pytest.raises(ValueError, match="malformed chip DTM policy parameter"):
        make_chip_policy("chip_dvfs:target")
    with pytest.raises(ValueError, match="invalid parameters"):
        make_chip_policy("core_migration:bogus=1")


# ----------------------------------------------------------------------
# Engine validation
# ----------------------------------------------------------------------
def test_chip_engine_rejects_bad_shapes():
    config = baseline_config()
    with pytest.raises(ValueError, match="do not fit"):
        ChipEngine(
            config,
            [_uops("gzip"), _uops("swim")],
            ["gzip", "swim"],
            cores=1,
            interval_cycles=INTERVAL,
        )
    with pytest.raises(ValueError, match="at least one thread"):
        ChipEngine(config, [], [], interval_cycles=INTERVAL)
    with pytest.raises(ValueError, match="uop sources"):
        ChipEngine(config, [_uops("gzip")], ["gzip", "swim"], interval_cycles=INTERVAL)


def test_replay_rejects_foreign_traces():
    config = baseline_config()
    _, traces = _chip(config, ["gzip"]).run_with_traces()
    with pytest.raises(ValueError, match="interval_cycles"):
        replay_chip(config, traces, interval_cycles=INTERVAL * 2)
    with pytest.raises(ValueError, match="do not fit"):
        replay_chip(config, list(traces) * 3, cores=2, interval_cycles=INTERVAL)
