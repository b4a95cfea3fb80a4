"""Byte-identity lock: the native workload front end against the Python generator.

:func:`repro.sim.native.generate_decoded` generates a workload and decodes
it in one pass in C.  Every array it writes must equal, byte for byte, the
decode of the golden Python generator's micro-ops:
``decode_workload(TraceGenerator(benchmark, seed).generate(n).uops)``.

The lock covers every SPEC profile and every scenario, three seeds each, at
three lengths: one uop, a length that ends in the middle of a loop body,
and a length that spans phase changes.  The Python generator is the cost of
this file, so the long length is three phases or :data:`LONG_CAP` uops, whichever is
shorter; the short-phase profiles (e.g. ``phase_alternating``,
``trace_cache_pressure``) change phase several times within the cap, and
:func:`test_lock_covers_both_phase_changes` checks that the locked traces
include both kinds of phase change (next region and the random jump).  A
synthetic profile with a multi-gigabyte working set drives ``randrange``
past 32 random bits.

Without the native core, a :class:`~repro.workloads.generator.WorkloadSpec`
handed to ``SimulationEngine`` must fall back to the reference path with a
recorded reason and give the bytes of the explicit ``MicroOp`` list; the
native engine-level pair lives with the other randomized cells in
``tests/test_timing_differential.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.presets import baseline_config
from repro.scenarios import SCENARIO_PROFILES
from repro.sim import native
from repro.sim.engine import SimulationEngine
from repro.sim.serialization import result_to_dict
from repro.workloads import SPEC2000_PROFILES, WorkloadProfile
from repro.workloads.decode import ARRAY_FIELDS, decode_workload
from repro.workloads.generator import TraceGenerator, WorkloadSpec, native_inputs

SEEDS = (0, 1, 7)
#: Longest trace the lock generates in Python per (profile, seed).
LONG_CAP = 4_000

PROFILES = {**SPEC2000_PROFILES, **SCENARIO_PROFILES}

#: A working set of 64 GiB: every loop's array spans more than 2**32 bytes,
#: so ``randrange`` draws two 32-bit words per candidate.
HUGE_WORKING_SET = WorkloadProfile(
    name="huge_working_set",
    is_fp=False,
    load_fraction=0.30,
    store_fraction=0.12,
    branch_fraction=0.10,
    branch_taken_rate=0.6,
    branch_misprediction_rate=0.05,
    fp_fraction=0.3,
    long_op_fraction=0.2,
    mean_dependency_distance=3.0,
    working_set_kb=64 * 1024 * 1024,
    spatial_locality=0.2,
    loop_body_uops=40,
    num_hot_loops=3,
    phase_length_uops=300,
)


def _body_length(profile) -> int:
    generator = TraceGenerator(profile)
    return generator.static_footprint_uops // profile.num_hot_loops


def _lengths(profile):
    body = _body_length(profile)
    return (1, body + body // 2 + 1, min(3 * profile.phase_length_uops + body, LONG_CAP))


def _assert_identical(profile, seed: int, n: int) -> None:
    __tracebackhide__ = True
    fast = native.generate_decoded(profile, seed, n)
    reference = decode_workload(TraceGenerator(profile, seed).generate(n).uops)
    assert fast.n == reference.n == n
    for name, _ in ARRAY_FIELDS:
        a, b = getattr(fast, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (profile.name, seed, n, name)
        assert a.tobytes() == b.tobytes(), (profile.name, seed, n, name)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_native_arrays_match_python_generator(native_core, name):
    profile = PROFILES[name]
    for seed in SEEDS:
        for n in _lengths(profile):
            _assert_identical(profile, seed, n)


def test_working_set_beyond_32_random_bits(native_core):
    profile = HUGE_WORKING_SET
    n = 3 * profile.phase_length_uops + 2 * _body_length(profile)
    for seed in SEEDS:
        _assert_identical(profile, seed, n)
    _, ints, _ = native_inputs(profile, 0)
    assert ints["span"] > 2**32
    addresses = native.generate_decoded(profile, 0, n).mem_addr
    assert (addresses - ints["data_base"] >= 2**32).any()


def test_lock_covers_both_phase_changes(native_core):
    """The locked traces take next-region moves and random jumps alike."""
    moves = set()
    for name in ("trace_cache_pressure", "phase_alternating", "branch_storm"):
        profile = PROFILES[name]
        _, ints, _ = native_inputs(profile, 0)
        for seed in SEEDS:
            n = _lengths(profile)[-1]
            pc = native.generate_decoded(profile, seed, n).pc
            loop = (pc - ints["code_base"]) // ints["loop_pc_stride"]
            changes = np.flatnonzero(np.diff(loop))
            for i in changes:
                after = (loop[i] + 1) % profile.num_hot_loops
                moves.add("next" if loop[i + 1] == after else "jump")
    assert moves == {"next", "jump"}


def test_shorter_trace_is_a_prefix(native_core):
    long = native.generate_decoded("gcc", 3, 2_000)
    short = native.generate_decoded("gcc", 3, 777)
    for name, _ in ARRAY_FIELDS:
        assert getattr(short, name).tobytes() == getattr(long, name)[:777].tobytes()


def test_native_generator_rejects_bad_lengths(native_core):
    with pytest.raises(ValueError):
        native.generate_decoded("gzip", 0, 0)
    with pytest.raises(ValueError):
        WorkloadSpec("gzip", 0, 0)


# ----------------------------------------------------------------------
# Engine level: a workload value with no native core
# ----------------------------------------------------------------------
def _result_bytes(source, timing_mode="auto"):
    engine = SimulationEngine(
        baseline_config().with_intervals(500),
        source,
        "gcc",
        timing_mode=timing_mode,
    )
    return engine, json.dumps(result_to_dict(engine.run()))


def test_workload_spec_without_native_core_expands_python_generator(monkeypatch):
    """No core: the reference path expands the value, records why, same bytes.

    Where the core builds, ``REPRO_NATIVE=0`` takes it away; on a host
    without a compiler the reason is the missing compiler.
    """
    spec = WorkloadSpec("gcc", 4, 1_200)
    _, reference_bytes = _result_bytes(spec.expand(), timing_mode="reference")
    if native.load_library() is not None:
        monkeypatch.setenv("REPRO_NATIVE", "0")
    engine, named_bytes = _result_bytes(spec)
    assert engine.resolved_timing_mode == "reference"
    assert engine.timing_fallback_reason == native.native_unavailable_reason(
        engine.config
    )
    assert engine.timing_fallback_reason is not None
    assert named_bytes == reference_bytes
