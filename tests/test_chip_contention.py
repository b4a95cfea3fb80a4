"""Shared-LLC contention: spec grammar, coupling effect, cache-key hygiene.

The contention model (:mod:`repro.chip.contention`) must satisfy three
regression contracts at once:

* **Disabled is invisible** — with no contention (or the ``"none"``
  spelling), every payload, cache key and trace is byte-identical to the
  pre-contention chip layer;
* **Enabled couples** — a cache-thrashing co-runner measurably degrades a
  neighbour's IPC through the shared memory buses, deterministically under
  a fixed seed;
* **Enabled is honest about replay** — contended cells report themselves
  non-replayable and run coupled, on the fast timing core (the contention
  actuator is an interval-boundary control input it takes).
"""

from __future__ import annotations

import pytest

from repro.campaign import Campaign, ExperimentSettings, SerialExecutor, run_campaign
from repro.chip import (
    ChipEngine,
    ChipRunSpec,
    ContentionConfig,
    SharedLLCContention,
    make_contention,
)
from repro.core.presets import baseline_config
from repro.sim.serialization import result_to_dict
from repro.workloads.generator import TraceGenerator

#: A mix with a heavy UL2 miss stream next to a memory-sensitive neighbour.
MIX = ("cache_thrash", "memory_bound")
#: Bus occupancy high enough that the mix's miss density saturates the two
#: memory buses (the defaults model ample bandwidth — no queueing at these
#: trace lengths).
CONTENTION_SPEC = "shared_llc:service=256,max_extra=400"


def _engine(contention, uops=2000, interval=8_000, benchmarks=MIX, **kwargs):
    sources = [
        TraceGenerator(b, seed=11).generate(uops).uops for b in benchmarks
    ]
    return ChipEngine(
        baseline_config(),
        sources,
        benchmarks,
        cores=len(benchmarks),
        interval_cycles=interval,
        # Cold UL2: the short traces' footprints otherwise fit the 2 MB
        # array after the functional warm-up and never miss.
        prewarm_caches=False,
        contention=contention,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
def test_disabled_spellings_parse_to_none():
    assert make_contention(None) is None
    assert make_contention("") is None
    assert make_contention("none") is None
    assert make_contention("  none  ") is None


def test_spec_round_trip():
    config = make_contention("shared_llc:service=32,max_extra=300")
    assert config == ContentionConfig(service_cycles=32, max_extra_latency=300)
    assert config.spec == "shared_llc:service=32,max_extra=300"
    assert make_contention("shared_llc").spec == "shared_llc"


def test_malformed_specs_rejected():
    with pytest.raises(ValueError, match="unknown contention model"):
        make_contention("token_bucket")
    with pytest.raises(ValueError, match="unknown contention parameter"):
        make_contention("shared_llc:buses=3")
    with pytest.raises(ValueError, match="needs an integer"):
        make_contention("shared_llc:service=fast")
    with pytest.raises(ValueError, match="malformed"):
        make_contention("shared_llc:service")
    with pytest.raises(ValueError, match="service_cycles"):
        ContentionConfig(service_cycles=0)


def test_leave_one_out_is_zero_for_single_thread():
    model = SharedLLCContention(ContentionConfig(), baseline_config())
    assert model.extra_latencies([5_000], 10_000) == [0]
    # And zero whenever no co-runner missed, however many threads.
    assert model.extra_latencies([4_000, 0], 10_000)[0] == 0


# ----------------------------------------------------------------------
# Cache-key hygiene: disabled contention is key-invisible
# ----------------------------------------------------------------------
def _spec(**kwargs) -> ChipRunSpec:
    return ChipRunSpec(
        config=baseline_config(),
        cores=2,
        benchmarks=MIX,
        trace_uops=(1000, 1000),
        interval_cycles=10_000,
        seed=3,
        **kwargs,
    )


def test_legacy_key_material_gains_no_new_keys():
    material = _spec().key_material()
    assert set(material) == {
        "chip",
        "cores",
        "config",
        "benchmarks",
        "trace_uops",
        "interval_cycles",
        "seed",
    }


def test_none_spelling_mints_the_same_key():
    assert _spec(contention="none").cache_key() == _spec().cache_key()
    assert _spec(contention="none").contention is None


def test_enabled_contention_mints_a_distinct_key():
    assert _spec(contention="shared_llc").cache_key() != _spec().cache_key()


def test_contended_spec_is_not_replayable():
    spec = _spec(contention="shared_llc")
    assert not spec.replayable
    assert "contention" in spec.replay_reason()
    assert _spec().replayable


def test_malformed_spec_fails_at_construction():
    with pytest.raises(ValueError, match="unknown contention model"):
        _spec(contention="bogus")


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
def test_disabled_contention_is_byte_identical():
    """contention=None and contention="none" produce identical payloads,
    with no contention telemetry key at all."""
    baseline = result_to_dict(_engine(None).run())
    spelled = result_to_dict(_engine("none").run())
    assert baseline == spelled
    assert "contention" not in baseline["chip"]


def test_single_thread_contention_changes_nothing_but_telemetry():
    alone = ("cache_thrash",)
    off = _engine(None, benchmarks=alone).run()
    on = _engine("shared_llc", benchmarks=alone).run()
    telemetry = on.chip.pop("contention")
    assert telemetry["mean_extra_latency"] == 0.0
    assert telemetry["peak_extra_latency"] == 0
    assert result_to_dict(off) == result_to_dict(on)


def test_contention_degrades_corunner_ipc_deterministically():
    off = _engine(None).run()
    on_a = _engine(CONTENTION_SPEC).run()
    on_b = _engine(CONTENTION_SPEC).run()

    ipc_off = [t["ipc"] for t in off.chip["threads"]]
    ipc_on = [t["ipc"] for t in on_a.chip["threads"]]
    # Both threads suffer behind each other's miss traffic; the thrash
    # thread has the densest stream so its neighbour must degrade too.
    assert all(on < offv for on, offv in zip(ipc_on, ipc_off)), (ipc_on, ipc_off)

    telemetry = on_a.chip["contention"]
    assert telemetry["model"] == "shared_llc"
    assert telemetry["total_ul2_misses"] > 0
    assert telemetry["peak_extra_latency"] > 0
    assert telemetry["max_extra_latency"] == 400

    # Fixed seed, fixed spec: bit-for-bit reproducible.
    assert result_to_dict(on_a) == result_to_dict(on_b)


def test_contention_forces_reference_timing(native_core):
    """Contended runs stay non-replayable but take the fast timing core."""
    engine = _engine("shared_llc")
    assert engine.resolved_timing_mode == "fast"
    assert engine.timing_fallback_reason is None
    assert "contention" in engine.replay_safe_reason
    assert _engine("shared_llc", timing_mode="fast").resolved_timing_mode == "fast"


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
def _campaign(contention=None) -> Campaign:
    settings = ExperimentSettings(
        benchmarks=("gzip",),
        uops_per_benchmark=1200,
        seed=3,
        honor_relative_length=False,
    )
    return Campaign(
        (baseline_config(),),
        settings,
        name="contention",
        cores=2,
        per_core_scenarios=("+".join(MIX),),
        contention=contention,
    )


def test_campaign_validates_contention():
    with pytest.raises(ValueError, match="unknown contention model"):
        _campaign("bogus")
    settings = ExperimentSettings(
        benchmarks=("gzip",), uops_per_benchmark=500, seed=1
    )
    with pytest.raises(ValueError, match="single-core"):
        Campaign((baseline_config(),), settings, contention="shared_llc")
    # The disabled spelling is fine anywhere, and normalizes away.
    assert (
        Campaign((baseline_config(),), settings, contention="none").contention
        is None
    )


def test_contended_campaign_runs_coupled():
    executor = SerialExecutor()
    outcome = run_campaign(_campaign("shared_llc"), executor=executor)
    # Contended cells cannot replay from cached single-core traces: every
    # cell is a coupled simulation, none are replays.
    assert executor.cells_executed == 1
    result = outcome.summaries["baseline"].results["+".join(MIX)]
    assert result.chip["contention"]["model"] == "shared_llc"
    assert result.provenance["contention"] == "shared_llc"
    assert "replayed" not in result.provenance


def test_campaign_cells_carry_the_contention_axis():
    cells = _campaign("shared_llc").cells()
    assert all(cell.contention == "shared_llc" for cell in cells)
    assert all(not cell.replayable for cell in cells)
    plain = _campaign().cells()
    assert cells[0].cache_key() != plain[0].cache_key()
