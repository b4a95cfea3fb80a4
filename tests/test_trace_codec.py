"""Binary activity-trace codec: round-trip and cache integration.

Traces are cached as compact ``*.trace.bin`` artifacts (zlib-compressed
struct/array payload behind the ``RTRC`` magic).  The codec must round-trip
every field bit-exactly — a replayed trace feeds the bit-identical exact
replay path — and the cache must treat corrupt binary blobs as misses
rather than errors.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.campaign.cache import TRACE_BIN_SUFFIX, ResultCache
from repro.campaign.executors import execute_cell_capture
from repro.campaign.spec import RunSpec
from repro.core.presets import bank_hopping_config, baseline_config
from repro.sim.activity_trace import (
    TRACE_BIN_MAGIC,
    TRACE_BIN_VERSION,
    ActivityTrace,
)


def _capture(config, uops=2_000, interval_cycles=800):
    from repro.campaign import scale_paper_intervals

    spec = RunSpec(
        config=scale_paper_intervals(config, interval_cycles),
        benchmark="gzip",
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


def _assert_traces_equal(a: ActivityTrace, b: ActivityTrace) -> None:
    assert a.to_json() == b.to_json()
    assert a.benchmark == b.benchmark
    assert a.block_names == b.block_names
    assert a.interval_cycles == b.interval_cycles
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.cycles, b.cycles)
    np.testing.assert_array_equal(a.end_cycles, b.end_cycles)
    if a.gated_masks is None:
        assert b.gated_masks is None
    else:
        np.testing.assert_array_equal(a.gated_masks, b.gated_masks)
    assert a.stats == b.stats
    assert a.provenance == b.provenance


def test_bytes_round_trip(captured):
    _, trace = captured
    blob = trace.to_bytes()
    assert blob.startswith(TRACE_BIN_MAGIC)
    assert blob[len(TRACE_BIN_MAGIC)] == TRACE_BIN_VERSION
    _assert_traces_equal(ActivityTrace.from_bytes(blob), trace)


def test_bytes_round_trip_with_gated_masks(captured_hopping):
    _, trace = captured_hopping
    assert trace.gated_masks is not None and trace.gated_masks.any()
    _assert_traces_equal(ActivityTrace.from_bytes(trace.to_bytes()), trace)


def test_binary_is_smaller_than_json(captured):
    _, trace = captured
    assert len(trace.to_bytes()) < len(trace.to_json().encode())


def test_save_load_bytes(tmp_path, captured):
    _, trace = captured
    path = trace.save_bytes(tmp_path / "t.trace.bin")
    assert path.read_bytes().startswith(TRACE_BIN_MAGIC)
    _assert_traces_equal(ActivityTrace.load_bytes(path), trace)


def test_pickle_uses_binary_codec(captured):
    _, trace = captured
    clone = pickle.loads(pickle.dumps(trace))
    _assert_traces_equal(clone, trace)
    # __reduce__ routes through the codec: re-encoding is byte-stable.
    assert clone.to_bytes() == trace.to_bytes()


def test_from_bytes_rejects_bad_magic_and_version(captured):
    _, trace = captured
    blob = trace.to_bytes()
    with pytest.raises(ValueError):
        ActivityTrace.from_bytes(b"NOPE" + blob[4:])
    bumped = bytearray(blob)
    bumped[len(TRACE_BIN_MAGIC)] = TRACE_BIN_VERSION + 1
    with pytest.raises(ValueError):
        ActivityTrace.from_bytes(bytes(bumped))


def test_cache_stores_binary_artifacts(tmp_path, captured):
    spec, trace = captured
    cache = ResultCache(tmp_path)
    path = cache.store_trace(spec.timing_key(), trace)
    assert path.name.endswith(TRACE_BIN_SUFFIX)
    loaded = cache.load_trace(spec.timing_key())
    assert loaded is not None
    _assert_traces_equal(loaded, trace)
    assert cache.trace_hits == 1 and cache.trace_misses == 0


def test_cache_treats_corrupt_blob_as_miss(tmp_path, captured):
    spec, trace = captured
    cache = ResultCache(tmp_path)
    path = cache.trace_path_for(spec.timing_key())
    blob = trace.to_bytes()
    path.write_bytes(blob[: len(blob) // 2])  # truncated zlib stream
    assert cache.load_trace(spec.timing_key()) is None
    assert cache.trace_misses == 1
    path.write_bytes(b"garbage that is not a trace at all")
    assert cache.load_trace(spec.timing_key()) is None
    assert cache.trace_misses == 2
