"""Tests of the multi-tenant sharded result cache: shard layout, per-shard
stats, LRU budget eviction, tenant accounting and concurrent-writer
safety (atomic rename, last-writer-wins, no torn reads)."""

import multiprocessing
import os

import pytest

from repro.campaign import Campaign, ExperimentSettings, ResultCache, execute_cell
from repro.core.presets import baseline_config
from repro.service.cache import ShardedResultCache
from repro.sim.serialization import result_from_bytes, result_to_dict


@pytest.fixture(scope="module")
def cells():
    settings = ExperimentSettings(
        benchmarks=("gzip", "swim", "mcf"), uops_per_benchmark=1_000
    )
    return Campaign.single(baseline_config(), settings).cells()


@pytest.fixture(scope="module")
def simulated(cells):
    return [execute_cell(cell) for cell in cells]


def test_entries_land_in_shard_directories(tmp_path, cells, simulated):
    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    for cell, result in zip(cells, simulated):
        path = cache.store(cell, result)
        assert path.parent.name == cache.shard_name(cell.cache_key())
        assert path.parent.parent == cache.directory
    assert len(cache) == len(cells)
    for cell in cells:
        assert cache.load(cell) is not None
    assert cache.hits == len(cells)


def test_shard_name_is_stable_and_bounded(tmp_path):
    cache = ShardedResultCache(tmp_path / "cache", shards=8)
    names = {cache.shard_name(f"{n:064x}") for n in range(1000)}
    assert names <= {f"shard-{i:02d}" for i in range(8)}
    assert cache.shard_name("ab" * 32) == cache.shard_name("ab" * 32)


def test_traces_shard_too(tmp_path, cells):
    from repro.campaign.executors import execute_cell_capture

    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    _, trace = execute_cell_capture(cells[0])
    key = cells[0].timing_key()
    path = cache.store_trace(key, trace)
    assert path.parent.name == cache.shard_name(key)
    assert cache.load_trace(key) is not None
    assert cache.trace_hits == 1


def test_stats_break_down_per_shard_and_tenant(tmp_path, cells, simulated):
    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    view = cache.for_tenant("acme")
    for cell, result in zip(cells, simulated):
        view.store(cell, result)
    view.load(cells[0])
    stats = cache.stats()
    assert stats["results"] == len(cells)
    shard_entries = sum(s["entries"] for s in stats["shards"].values())
    assert shard_entries == len(cells)
    shard_bytes = sum(s["bytes"] for s in stats["shards"].values())
    assert shard_bytes == stats["total_bytes"]
    assert stats["tenants"]["acme"]["stores"] == len(cells)
    assert stats["tenants"]["acme"]["hits"] == 1


def test_shard_stats_count_results_and_traces(tmp_path, cells, simulated):
    """Every entry kind is counted in its shard: the shards add up."""
    from repro.campaign.executors import execute_cell_capture

    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    result_path = cache.store(cells[0], simulated[0])
    _, trace = execute_cell_capture(cells[1])
    trace_path = cache.store_trace(cells[1].timing_key(), trace)
    stats = cache.stats()
    assert stats["results"] == 1 and stats["traces"] == 1
    shards = stats["shards"]
    assert sum(s["entries"] for s in shards.values()) == 2
    assert sum(s["bytes"] for s in shards.values()) == stats["total_bytes"]
    for path in (result_path, trace_path):
        assert shards[path.parent.name]["bytes"] >= path.stat().st_size


def test_tenants_share_identically_keyed_entries(tmp_path, cells, simulated):
    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    alpha, beta = cache.for_tenant("alpha"), cache.for_tenant("beta")
    assert cache.for_tenant("alpha") is alpha  # memoized
    alpha.store(cells[0], simulated[0])
    # beta's identically-keyed lookup hits alpha's stored entry: one file.
    assert beta.load(cells[0]) is not None
    assert beta.hits == 1 and beta.misses == 0
    assert alpha.stores == 1
    assert len(cache) == 1


def test_budget_eviction_is_lru(tmp_path, cells, simulated):
    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    paths = [cache.store(cell, result) for cell, result in zip(cells, simulated)]
    # Age the entries oldest-first, then touch the oldest by loading it.
    for offset, path in enumerate(paths):
        age = 1_000_000 + offset * 1000
        os.utime(path, (age, age))
    assert cache.load(cells[0]) is not None  # refreshes cells[0]'s mtime
    entry_bytes = [path.stat().st_size for path in paths]
    cache.max_bytes = entry_bytes[0] + entry_bytes[2]  # the expected survivors
    report = cache.enforce_budget()
    assert report["removed"] == 1
    # cells[1] was least recently used (cells[0] was touched by the load).
    assert not paths[1].exists()
    assert paths[0].exists() and paths[2].exists()


def test_sharded_hit_derives_the_cell_key_once(tmp_path, cells, simulated, monkeypatch):
    """One hit hashes the cell config once: the shard, the entry name and
    the LRU touch all come from one ``cache_key`` call."""
    cache = ShardedResultCache(tmp_path / "cache", shards=4)
    path = cache.store(cells[0], simulated[0])
    os.utime(path, (1_000_000, 1_000_000))
    spec_type = type(cells[0])
    original = spec_type.cache_key
    calls = []

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(spec_type, "cache_key", counting)
    assert cache.load(cells[0]) is not None
    assert len(calls) == 1
    assert path.stat().st_mtime > 1_000_000  # the hit still refreshed it


def test_enforce_budget_without_limit_is_noop(tmp_path, cells, simulated):
    cache = ShardedResultCache(tmp_path / "cache", shards=2)
    cache.store(cells[0], simulated[0])
    assert cache.enforce_budget()["removed"] == 0
    assert len(cache) == 1


def test_janitor_enforces_budget_in_background(tmp_path, cells, simulated):
    import time

    cache = ShardedResultCache(tmp_path / "cache", shards=2, max_bytes=0)
    cache.store(cells[0], simulated[0])
    cache.start_janitor(interval_seconds=0.05)
    try:
        deadline = time.monotonic() + 10
        while len(cache) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(cache) == 0
    finally:
        cache.stop_janitor()
    assert cache._janitor is None


def test_invalid_construction_rejected(tmp_path):
    with pytest.raises(ValueError):
        ShardedResultCache(tmp_path, shards=0)
    with pytest.raises(ValueError):
        ShardedResultCache(tmp_path, max_bytes=-1)


# ----------------------------------------------------------------------
# Satellite: prune determinism on the base cache
# ----------------------------------------------------------------------


def test_prune_order_is_deterministic_under_equal_mtimes(
    tmp_path, cells, simulated
):
    reports = []
    for round_ in range(2):
        cache = ResultCache(tmp_path / f"cache-{round_}")
        paths = [
            cache.store(cell, result) for cell, result in zip(cells, simulated)
        ]
        for path in paths:  # identical mtimes: only the name can order them
            os.utime(path, (1_000_000, 1_000_000))
        keep = max(path.stat().st_size for path in paths)
        cache.prune(keep)
        reports.append(sorted(p.name for p in (tmp_path / f"cache-{round_}").glob("*.result.bin")))
    assert reports[0] == reports[1]
    assert len(reports[0]) >= 1


# ----------------------------------------------------------------------
# Satellite: concurrent writers race safely (atomic rename)
# ----------------------------------------------------------------------


def _hammer_store(directory, cell_payload, rounds, writer_id):
    """Child process: repeatedly store the same key with its own payload."""
    from repro.campaign.spec import Campaign, ExperimentSettings
    from repro.core.presets import baseline_config
    from repro.service.cache import ShardedResultCache
    from repro.sim.serialization import result_from_dict

    cache = ShardedResultCache(directory, shards=4)
    cell = Campaign.single(
        baseline_config(),
        ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_000),
    ).cells()[0]
    result = result_from_dict(cell_payload)
    for _ in range(rounds):
        cache.store(cell, result)
    os._exit(0)


def test_concurrent_writers_never_tear_entries(tmp_path, cells, simulated):
    """Two processes hammering one key: every read parses, last write wins."""
    directory = tmp_path / "cache"
    cache = ShardedResultCache(directory, shards=4)
    cell = cells[0]
    payload = result_to_dict(simulated[0])
    context = multiprocessing.get_context()
    writers = [
        context.Process(
            target=_hammer_store, args=(str(directory), payload, 40, i)
        )
        for i in range(2)
    ]
    for writer in writers:
        writer.start()
    # Read concurrently with the writers: a torn write would surface as a
    # ValueError from the frame decoder (truncated body), and with
    # identical payloads every decode that finds the file must round-trip.
    path = cache.path_for(cell)
    reads = torn = 0
    while any(w.is_alive() for w in writers):
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            continue
        try:
            decoded = result_from_bytes(data)
        except ValueError:
            torn += 1
        else:
            reads += 1
            assert decoded.stats.cycles == simulated[0].stats.cycles
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0
    assert torn == 0
    assert reads > 0
    # Last-writer-wins: the surviving entry is a complete, loadable result.
    final = cache.load(cell)
    assert final is not None
    assert final.stats.cycles == simulated[0].stats.cycles
    # No scratch files were left behind by the atomic writes.
    assert not list(directory.rglob(".*.tmp"))
