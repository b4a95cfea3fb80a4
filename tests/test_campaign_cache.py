"""Unit tests of the content-keyed result cache (round-trip through
sim/serialization, miss handling, key hygiene)."""

import json

import pytest

from repro.campaign import Campaign, ExperimentSettings, ResultCache, execute_cell
from repro.core.presets import baseline_config
from repro.sim.serialization import (
    RESULT_BIN_MAGIC,
    RESULT_BIN_VERSION,
    SCHEMA_VERSION,
    Frame,
    pack_frame,
)


@pytest.fixture(scope="module")
def cell():
    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_500)
    return Campaign.single(baseline_config(), settings).cells()[0]


@pytest.fixture(scope="module")
def simulated(cell):
    return execute_cell(cell)


def test_store_then_load_roundtrips_through_serialization(tmp_path, cell, simulated):
    cache = ResultCache(tmp_path / "cache")
    assert cache.load(cell) is None
    assert cache.misses == 1

    path = cache.store(cell, simulated)
    assert path.exists() and path.name.endswith(".result.bin")
    frame = Frame(path.read_bytes(), RESULT_BIN_MAGIC, RESULT_BIN_VERSION, "result")
    assert frame.header["schema_version"] == SCHEMA_VERSION

    loaded = cache.load(cell)
    assert cache.hits == 1
    assert loaded is not None
    assert loaded.stats.cycles == simulated.stats.cycles
    assert loaded.provenance == simulated.provenance
    for group in ("Frontend", "TraceCache"):
        original = simulated.temperature_metrics(group)
        restored = loaded.temperature_metrics(group)
        for metric, value in original.items():
            assert restored[metric] == pytest.approx(value)
    assert len(cache) == 1


def test_cache_key_embeds_schema_and_package_versions(tmp_path, cell):
    import repro

    cache = ResultCache(tmp_path / "cache")
    assert cache.path_for(cell).name.startswith(
        f"v{SCHEMA_VERSION}-{repro.__version__}-"
    )


def test_cache_directory_expands_user(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = ResultCache("~/repro-cache")
    assert cache.directory == tmp_path / "repro-cache"
    assert "~" not in str(cache.directory)


def test_corrupt_entries_are_misses(tmp_path, cell, simulated):
    cache = ResultCache(tmp_path / "cache")
    cache.store(cell, simulated)
    cache.path_for(cell).write_text("{not json")
    assert cache.load(cell) is None

    # A well-formed frame with a wrong schema is also a miss, not an error.
    cache.path_for(cell).write_bytes(
        pack_frame(RESULT_BIN_MAGIC, RESULT_BIN_VERSION, {"schema_version": 999}, [])
    )
    assert cache.load(cell) is None
    assert cache.misses == 2


def test_cache_directory_is_created(tmp_path):
    nested = tmp_path / "a" / "b" / "cache"
    ResultCache(nested)
    assert nested.is_dir()


# ----------------------------------------------------------------------
# Activity-trace artifacts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def captured(cell):
    from repro.campaign import execute_cell_capture

    _, trace = execute_cell_capture(cell)
    return trace


def test_trace_artifacts_roundtrip(tmp_path, cell, captured):
    import numpy as np

    cache = ResultCache(tmp_path / "cache")
    key = cell.timing_key()
    assert cache.load_trace(key) is None
    assert cache.trace_misses == 1

    path = cache.store_trace(key, captured)
    assert path.exists() and path.name.endswith(".trace.bin")
    loaded = cache.load_trace(key)
    assert cache.trace_hits == 1
    assert loaded.to_json() == captured.to_json()
    assert np.array_equal(loaded.counts, captured.counts)
    # Trace artifacts are not campaign cells.
    assert len(cache) == 0


def test_trace_key_embeds_schema_and_package_versions(tmp_path, cell):
    import repro
    from repro.sim.activity_trace import TRACE_SCHEMA_VERSION

    cache = ResultCache(tmp_path / "cache")
    assert cache.trace_path_for(cell.timing_key()).name.startswith(
        f"trace-v{TRACE_SCHEMA_VERSION}-{repro.__version__}-"
    )


def test_corrupt_trace_artifacts_are_misses(tmp_path, cell, captured):
    cache = ResultCache(tmp_path / "cache")
    key = cell.timing_key()
    cache.store_trace(key, captured)
    cache.trace_path_for(key).write_text("{not json")
    assert cache.load_trace(key) is None
    cache.trace_path_for(key).write_text(json.dumps({"trace_schema_version": 999}))
    assert cache.load_trace(key) is None
    assert cache.trace_misses == 2


# ----------------------------------------------------------------------
# Housekeeping: stats and prune
# ----------------------------------------------------------------------
def test_stats_report_results_and_traces_separately(tmp_path, cell, simulated, captured):
    cache = ResultCache(tmp_path / "cache")
    assert cache.stats() == {
        "results": 0,
        "result_bytes": 0,
        "traces": 0,
        "trace_bytes": 0,
        "total_bytes": 0,
    }
    cache.store(cell, simulated)
    cache.store_trace(cell.timing_key(), captured)
    stats = cache.stats()
    assert stats["results"] == 1 and stats["traces"] == 1
    assert stats["result_bytes"] > 0 and stats["trace_bytes"] > 0
    assert stats["total_bytes"] == stats["result_bytes"] + stats["trace_bytes"]


def test_prune_removes_oldest_entries_down_to_the_budget(
    tmp_path, cell, simulated, captured
):
    import os

    cache = ResultCache(tmp_path / "cache")
    result_path = cache.store(cell, simulated)
    trace_path = cache.store_trace(cell.timing_key(), captured)
    # Make the result strictly older than the trace artifact.
    os.utime(result_path, (1, 1))

    stats = cache.stats()
    report = cache.prune(max_bytes=stats["trace_bytes"])
    assert report["removed"] == 1
    assert not result_path.exists() and trace_path.exists()
    assert report["remaining_bytes"] == cache.stats()["total_bytes"]

    # Prune to zero clears everything; pruning an empty cache is a no-op.
    assert cache.prune(max_bytes=0)["removed"] == 1
    assert cache.prune(max_bytes=0) == {
        "removed": 0,
        "removed_bytes": 0,
        "remaining_bytes": 0,
    }
    with pytest.raises(ValueError):
        cache.prune(max_bytes=-1)


def test_stats_and_prune_tolerate_entries_vanishing_after_listing(
    tmp_path, cell, simulated, captured
):
    """The list-then-stat window of a shared cache directory is racy.

    A concurrent prune (another process, the service janitor) can evict an
    entry between the directory listing and the ``stat`` call; both
    ``stats()`` and ``prune()`` must treat the vanished file as already gone
    instead of raising ``FileNotFoundError``.
    """
    cache = ResultCache(tmp_path / "cache")
    cache.store(cell, simulated)
    cache.store_trace(cell.timing_key(), captured)
    ghost = cache.directory / "v0-0.0-evicted-by-a-concurrent-prune.result.bin"
    real_all_files = cache._all_files
    cache._all_files = lambda: real_all_files() + [ghost]

    stats = cache.stats()
    assert stats["results"] == 1 and stats["traces"] == 1

    report = cache.prune(max_bytes=0)
    assert report["removed"] == 2
    assert report["remaining_bytes"] == 0


def test_concurrent_stores_prunes_and_stats_never_raise(tmp_path, cell, simulated):
    """Stores, prunes and stats hammering one directory stay exception-free."""
    import threading

    cache = ResultCache(tmp_path / "cache")
    errors = []
    stop = threading.Event()

    def guard(fn):
        try:
            while not stop.is_set():
                fn()
        except BaseException as error:  # noqa: BLE001 - recorded for the assert
            errors.append(error)

    def writer():
        cache.store(cell, simulated)

    def pruner():
        cache.prune(max_bytes=0)

    def reader():
        cache.stats()

    threads = [
        threading.Thread(target=guard, args=(fn,))
        for fn in (writer, pruner, reader, pruner)
    ]
    for thread in threads:
        thread.start()
    # Let the writer/pruner/stats loops overlap for a moment, then stop.
    import time

    time.sleep(0.5)
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not errors, errors
