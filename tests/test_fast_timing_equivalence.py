"""Fast-vs-reference timing equivalence.

The fast timing path (:mod:`repro.sim.fast_timing`, the runtime-compiled
native core of :mod:`repro.sim.native`) claims to be **byte-identical** to
the per-uop golden reference (:class:`repro.sim.processor.Processor`): same
:class:`SimulationStats` payload, same :class:`ActivityTrace` down to its
canonical JSON encoding.  These tests lock that contract across the paper's
frontend organizations (2- and 4-partition distributed rename/commit
included), steering policies, fetch-gate duty cycles and the chip engine,
and over closed-loop runs: thermal-aware remapping, feedback DTM policies,
chip policies and shared-LLC contention, whose controls reach the timing
core between intervals.  Every such test takes the ``native_core`` fixture
and skips only where the core cannot be built or ``REPRO_NATIVE=0`` is set.

They also pin the ``timing_mode`` selector: ``auto`` takes the native core
whenever it is available and otherwise falls back to the reference with a
recorded reason, which the fallback tests check on every host.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest

from repro.chip.engine import ChipEngine
from repro.core.presets import (
    address_biasing_config,
    bank_hopping_biasing_config,
    bank_hopping_config,
    baseline_config,
    blank_silicon_config,
    distributed_frontend_config,
    distributed_rename_commit_config,
)
from repro.dtm.policies import make_policy
from repro.sim.config import SteeringPolicy
from repro.sim import native
from repro.sim.engine import SimulationEngine
from repro.sim.fast_timing import FastProcessor
from repro.sim.processor import Processor
from repro.sim.serialization import result_to_dict
from repro.workloads import decode_workload
from repro.workloads.generator import TraceGenerator

TRACE_UOPS = 2_000

#: The partition-count ablation's widest point: four frontend partitions.
four_frontends_config = partial(distributed_rename_commit_config, num_frontends=4)


def _uops(benchmark="gzip", seed=7, n=TRACE_UOPS):
    return TraceGenerator(benchmark, seed=seed).generate(n).uops


def _assert_equivalent(config, uops, benchmark, interval_cycles=800, max_intervals=None):
    """Run both timing paths and assert byte-identical outputs."""
    ref = SimulationEngine(
        config, list(uops), benchmark,
        interval_cycles=interval_cycles, timing_mode="reference",
    )
    fast = SimulationEngine(
        config, list(uops), benchmark,
        interval_cycles=interval_cycles, timing_mode="fast",
    )
    assert ref.resolved_timing_mode == "reference"
    assert fast.resolved_timing_mode == "fast"
    ref_result, ref_trace = ref.run_with_trace(max_intervals=max_intervals)
    fast_result, fast_trace = fast.run_with_trace(max_intervals=max_intervals)
    assert ref_result.stats.to_payload() == fast_result.stats.to_payload()
    assert ref_trace.to_json() == fast_trace.to_json()
    return fast


@pytest.mark.parametrize(
    "bench,seed",
    [("gzip", 7), ("mcf", 3), ("swim", 11), ("hot_loop", 5)],
)
def test_baseline_byte_equivalence(native_core, bench, seed):
    _assert_equivalent(baseline_config(), _uops(bench, seed), bench)


def test_bank_hopping_byte_equivalence(native_core):
    _assert_equivalent(
        bank_hopping_config(), _uops(), "gzip", interval_cycles=400
    )


def test_blank_silicon_byte_equivalence(native_core):
    _assert_equivalent(blank_silicon_config(), _uops(), "gzip")


def test_distributed_rename_commit_byte_equivalence(native_core):
    for num_frontends in (2, 4):
        config = distributed_rename_commit_config(num_frontends=num_frontends)
        _assert_equivalent(config, _uops(), "gzip")


@pytest.mark.parametrize(
    "policy", [SteeringPolicy.ROUND_ROBIN, SteeringPolicy.LOAD_BALANCE]
)
def test_steering_policy_byte_equivalence(native_core, policy):
    config = replace(baseline_config(), steering_policy=policy)
    _assert_equivalent(config, _uops(), "gzip")


def test_truncated_run_byte_equivalence(native_core):
    """``max_intervals`` truncation is a prefix of the full run on both paths."""
    _assert_equivalent(baseline_config(), _uops(), "gzip", max_intervals=2)


@pytest.mark.parametrize(
    "config_factory,on,period",
    [
        (baseline_config, 3, 8),
        (baseline_config, 1, 8),
        (distributed_rename_commit_config, 5, 8),
        pytest.param(four_frontends_config, 5, 8, id="four_frontends_config-5-8"),
    ],
)
def test_fetch_gate_byte_equivalence(native_core, config_factory, on, period):
    """Raw processors under a fetch duty gate stay cycle-identical.

    Driven in odd-sized ``run_cycles`` chunks so interval boundaries land
    mid-gate-period, which is exactly how the DTM layer drives the stage.
    """
    config = config_factory()
    uops = _uops()
    ref = Processor(config, iter(list(uops)))
    fast = FastProcessor(config, list(uops))
    ref.set_fetch_gate(on, period)
    fast.set_fetch_gate(on, period)
    while not ref.finished and ref.cycle < 3_000:
        ref.run_cycles(137)
        fast.run_cycles(137)
        assert ref.activity.end_interval() == fast.activity.end_interval()
    assert ref.stats.to_payload() == fast.stats.to_payload()
    assert ref.cycle == fast.cycle


@pytest.mark.parametrize(
    "config_factory",
    [distributed_frontend_config, bank_hopping_biasing_config, address_biasing_config],
)
def test_unsupported_configurations_fall_back_to_reference(native_core, config_factory):
    """Thermal-aware mapping runs on the fast core under ``auto``.

    Its temperature feedback reaches the core as interval-boundary remaps,
    so it only bars replay, not the fast path.
    """
    config = config_factory()
    engine = SimulationEngine(config, _uops(), "gzip")
    assert engine.timing_mode == "auto"
    assert engine.resolved_timing_mode == "fast"
    assert engine.timing_fallback_reason is None
    assert "thermal-aware" in engine.replay_safe_reason
    forced = SimulationEngine(config, _uops(), "gzip", timing_mode="fast")
    assert forced.resolved_timing_mode == "fast"


def test_streaming_source_falls_back_to_reference():
    uops = _uops()
    engine = SimulationEngine(baseline_config(), iter(uops), "gzip")
    assert engine.resolved_timing_mode == "reference"
    assert "batch-decoded" in engine.timing_fallback_reason


def test_invalid_timing_mode_rejected():
    with pytest.raises(ValueError, match="timing_mode"):
        SimulationEngine(baseline_config(), _uops(), "gzip", timing_mode="turbo")


def test_reference_fallback_without_native_core(monkeypatch):
    """With no native library, ``auto`` runs the reference and says why.

    ``timing_mode="fast"`` refuses with the same reason, and the fast
    processor itself cannot be built.  Both engines follow the one rule.
    """
    monkeypatch.setattr(native, "load_library", lambda: None)
    config = distributed_rename_commit_config()
    reason = native.native_unavailable_reason(config)
    assert reason
    engine = SimulationEngine(config, _uops(), "gzip")
    assert engine.resolved_timing_mode == "reference"
    assert engine.timing_fallback_reason == reason
    chip = ChipEngine(config, [_uops("gzip", 7), _uops("swim", 11)], ["gzip", "swim"])
    assert chip.resolved_timing_mode == "reference"
    assert chip.timing_fallback_reason == reason
    with pytest.raises(ValueError, match="timing_mode='fast'"):
        SimulationEngine(config, _uops(), "gzip", timing_mode="fast")
    with pytest.raises(ValueError, match="timing_mode='fast'"):
        ChipEngine(config, [_uops()], ["gzip"], timing_mode="fast")
    with pytest.raises(RuntimeError, match="unavailable"):
        FastProcessor(config, _uops())


def test_repro_native_selects_the_reference_path(monkeypatch):
    """``REPRO_NATIVE=0`` is the explicit request for the reference path."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert native.load_library() is None
    engine = SimulationEngine(baseline_config(), _uops(), "gzip")
    assert engine.resolved_timing_mode == "reference"
    assert "REPRO_NATIVE" in engine.timing_fallback_reason


def test_missing_compiler_falls_back_with_reason(monkeypatch):
    """A host without a C compiler runs the reference loop and says so."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setattr(native, "_compiler", lambda: None)
    monkeypatch.setattr(native, "_lib", False)
    reason = "no C compiler found to build the native core"
    assert native.native_unavailable_reason(baseline_config()) == reason
    engine = SimulationEngine(baseline_config(), _uops(), "gzip")
    assert engine.resolved_timing_mode == "reference"
    assert engine.timing_fallback_reason == reason


def test_native_core_engaged_when_available(native_core):
    """Every preset, distributed ones included, runs on the compiled core."""
    for config_factory in (
        baseline_config,
        bank_hopping_config,
        bank_hopping_biasing_config,
        address_biasing_config,
        blank_silicon_config,
        distributed_rename_commit_config,
        four_frontends_config,
        distributed_frontend_config,
    ):
        engine = SimulationEngine(config_factory(), _uops(n=200), "gzip")
        assert engine.resolved_timing_mode == "fast"
        assert engine.timing.processor.uses_native_core


def test_chip_engine_fast_matches_reference(native_core):
    """Two-thread chip runs agree interval-for-interval across timing modes."""
    sources = [_uops("gzip", 7), _uops("swim", 11)]

    def run(mode):
        engine = ChipEngine(
            baseline_config(),
            [list(source) for source in sources],
            ["gzip", "swim"],
            interval_cycles=800,
            timing_mode=mode,
        )
        assert engine.resolved_timing_mode == mode
        return engine.run()

    ref = run("reference")
    fast = run("fast")
    assert len(ref.intervals) == len(fast.intervals)
    for a, b in zip(ref.intervals, fast.intervals):
        assert a.temperature == b.temperature
        assert a.dynamic_power == b.dynamic_power
        assert a.leakage_power == b.leakage_power
    assert ref.stats.to_payload() == fast.stats.to_payload()


def test_chip_engine_feedback_policy_falls_back(native_core):
    """Temperature-actuating chip policies run on the fast core, coupled."""

    def engine(mode):
        return ChipEngine(
            baseline_config(),
            [_uops("gzip", 7)],
            ["gzip"],
            interval_cycles=800,
            chip_policy="core_migration",
            timing_mode=mode,
        )

    auto = engine("auto")
    assert auto.resolved_timing_mode == "fast"
    assert auto.timing_fallback_reason is None
    assert "core_migration" in auto.replay_safe_reason
    assert engine("fast").resolved_timing_mode == "fast"


def test_decode_workload_is_exported():
    """``repro.workloads`` re-exports the batch decoder used by the fast path."""
    uops = _uops(n=64)
    decoded = decode_workload(uops)
    assert decoded.n == len(uops)
    assert len(decoded.cls_list) == len(uops)
    assert decoded.op_class.shape == (len(uops),)


# ----------------------------------------------------------------------
# Closed-loop lock: feedback reaches the timing core between intervals
# ----------------------------------------------------------------------
#: Feedback DTM policies with triggers low enough to actuate within the
#: first few 600-cycle intervals of a short trace.
FEEDBACK_POLICIES = (
    None,
    "fetch_throttle:trigger=50,duty=0.25",
    "clock_gate:trigger=50",
    "dvfs:target=50",
    "hybrid:target=50,emergency=55",
)


@pytest.mark.parametrize("policy", FEEDBACK_POLICIES)
@pytest.mark.parametrize(
    "config_factory",
    [
        baseline_config,
        bank_hopping_config,
        bank_hopping_biasing_config,
        address_biasing_config,
        distributed_rename_commit_config,
        pytest.param(four_frontends_config, id="four_frontends_config"),
        distributed_frontend_config,
    ],
)
def test_closed_loop_byte_equivalence(native_core, config_factory, policy):
    """Hops, thermal-aware remaps and DTM actuation every interval agree.

    ``with_intervals(600)`` makes every thermal interval a hop and remap
    boundary, so the temperature-steered mapping and the policy's fetch
    duty, DVFS and clock gating all change the timing core mid-run.
    """
    config = config_factory().with_intervals(600)
    uops = _uops(n=3_000)

    def run(mode):
        engine = SimulationEngine(
            config,
            list(uops),
            "gzip",
            dtm_policy=make_policy(policy) if policy else None,
            timing_mode=mode,
        )
        assert engine.resolved_timing_mode == mode
        return engine.run()

    ref, fast = run("reference"), run("fast")
    assert result_to_dict(ref) == result_to_dict(fast)
    assert ref.stats.to_payload() == fast.stats.to_payload()
    assert ref.dtm == fast.dtm
    if policy is not None:
        assert fast.dtm["throttled_intervals"] + fast.dtm["gated_intervals"] > 0


#: Four threads; core_migration gets two idle cores to migrate to.
CHIP_MIX = ("gzip", "swim", "mcf", "hot_loop")


@pytest.mark.parametrize(
    "kwargs,actuated",
    [
        (
            dict(chip_policy="core_migration", cores=6),
            lambda chip: chip["migrations"] > 0,
        ),
        (
            dict(chip_policy="chip_dvfs"),
            lambda chip: chip["dvfs_residency"].get("1", 0.0) < 1.0,
        ),
        (
            dict(
                core_policies=[
                    "fetch_throttle:trigger=50,duty=0.25",
                    None,
                    "dvfs:target=50",
                    "hybrid:target=50,emergency=55",
                ]
            ),
            lambda chip: [
                t["dtm"]["throttled_intervals"] > 0
                for t in chip["threads"]
                if "dtm" in t
            ] == [True] * 3,
        ),
        (
            # Cold UL2s so the co-runners' misses queue on the memory buses.
            dict(contention="shared_llc:service=256", prewarm_caches=False),
            lambda chip: chip["contention"]["peak_extra_latency"] > 0,
        ),
    ],
    ids=["core_migration", "chip_dvfs", "per_core_mix", "contention"],
)
def test_closed_loop_chip_byte_equivalence(native_core, kwargs, actuated):
    """Chip policies, per-core policies and contention: both paths agree."""
    sources = [_uops(b, seed) for seed, b in enumerate(CHIP_MIX, start=11)]

    def run(mode):
        engine = ChipEngine(
            baseline_config().with_intervals(600),
            [list(source) for source in sources],
            CHIP_MIX,
            timing_mode=mode,
            **kwargs,
        )
        assert engine.resolved_timing_mode == mode
        return engine.run()

    ref, fast = run("reference"), run("fast")
    assert result_to_dict(ref) == result_to_dict(fast)
    assert ref.stats.to_payload() == fast.stats.to_payload()
    assert actuated(fast.chip)
