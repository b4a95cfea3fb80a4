"""Binary result codec: what the campaign result cache stores.

``result_to_bytes``/``result_from_bytes`` must carry every field of
``result_to_dict`` exactly, so a cached cell is indistinguishable from a
fresh one in every digest and metric.  The locks: canonical-JSON equality
after a round trip for every kind of result the program produces (golden
campaign cells, a 16-core chip, DTM cells, exact and batched replays, a
dict-backed result loaded from JSON); per-block areas and warm-up
temperatures travel as vectors and decode in the JSON document's mapping
order, and a frame of the first container layout is a miss; the trace frame, which shares the
container, stays byte-identical; a decoded result holds views of the frame
and no record or per-block mapping; and every malformed entry is a cache
miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    ExecutionOptions,
    ExperimentSettings,
    ResultCache,
    SerialExecutor,
    execute_cell,
    run_campaign,
    scale_paper_intervals,
)
from repro.campaign.executors import execute_cell_capture
from repro.campaign.spec import RunSpec
from repro.core.presets import baseline_config
from repro.service.cache import ShardedResultCache
from repro.sim.results import IntervalTable
from repro.sim.serialization import (
    RESULT_BIN_MAGIC,
    RESULT_BIN_VERSION,
    Frame,
    pack_frame,
    result_from_bytes,
    result_from_dict,
    result_to_bytes,
    result_to_dict,
)

from test_golden_metrics import _golden_campaigns
from test_interval_table import footprint

#: sha256 of ``ActivityTrace.to_bytes()`` for the gzip capture below.
TRACE_SHA256 = "0ba9dd829e03e1470a3629987558547d20083464f4fc520d1962107897dab7b5"


def _canonical(result) -> bytes:
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _results(outcome):
    return [
        result
        for summary in outcome.summaries.values()
        for result in summary.results.values()
    ]


def _assert_round_trips(result) -> None:
    decoded = result_from_bytes(result_to_bytes(result))
    assert _canonical(decoded) == _canonical(result)


@pytest.fixture(scope="module")
def cell():
    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_500)
    return Campaign.single(baseline_config(), settings).cells()[0]


@pytest.fixture(scope="module")
def simulated(cell):
    return execute_cell(cell)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["centralized", "distributed_hopping", "dtm"])
def test_golden_campaign_cells_round_trip(name):
    results = _results(run_campaign(_golden_campaigns()[name]))
    assert results
    if name == "dtm":
        assert all(result.dtm for result in results)
    for result in results:
        _assert_round_trips(result)


def test_sixteen_core_chip_result_round_trips():
    settings = ExperimentSettings(
        benchmarks=("gzip", "swim", "mcf", "equake"), uops_per_benchmark=600, seed=2
    )
    campaign = Campaign(
        [baseline_config()],
        settings,
        name="chip16",
        cores=16,
        per_core_scenarios=[("gzip", "swim", "mcf", "equake") * 4],
    )
    (result,) = _results(run_campaign(campaign))
    assert result.chip["cores"] == 16
    _assert_round_trips(result)


@pytest.mark.parametrize("mode", ["exact", "batched"])
def test_replayed_results_round_trip(mode):
    base = baseline_config()
    configs = [
        dataclasses.replace(
            base,
            name=f"lk{i}",
            power=dataclasses.replace(
                base.power, leakage_fraction_at_ambient=0.20 + 0.05 * i
            ),
        )
        for i in range(3)
    ]
    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_500)
    executor = SerialExecutor(ExecutionOptions(replay_mode=mode))
    outcome = run_campaign(Campaign(configs, settings), executor=executor)
    assert outcome.cells_replayed == 2
    results = _results(outcome)
    assert sum(bool(r.provenance.get("replayed")) for r in results) == 2
    for result in results:
        _assert_round_trips(result)


def test_dict_backed_result_round_trips(simulated):
    loaded = result_from_dict(json.loads(json.dumps(result_to_dict(simulated))))
    assert isinstance(loaded.intervals, IntervalTable)
    _assert_round_trips(loaded)
    assert _canonical(loaded) == _canonical(simulated)


# ----------------------------------------------------------------------
# Per-block vectors (container version 2)
# ----------------------------------------------------------------------
def test_header_carries_no_per_block_mappings(simulated):
    header = Frame(
        result_to_bytes(simulated), RESULT_BIN_MAGIC, RESULT_BIN_VERSION, "result"
    ).header
    assert "block_areas_mm2" not in header
    assert "warmup_temperature" not in header


def test_decoded_mappings_match_the_json_decode_in_order(simulated):
    """Field for field, mapping order included, as the JSON document decodes."""
    from_json = result_from_dict(json.loads(_canonical(simulated)))
    decoded = result_from_bytes(result_to_bytes(simulated))
    for name in ("block_areas_mm2", "warmup_temperature", "block_groups"):
        assert list(getattr(decoded, name).items()) == list(
            getattr(from_json, name).items()
        ), name
    assert list(decoded.block_names) == list(from_json.block_names)


@pytest.mark.parametrize(
    "changes",
    [
        {"warmup_temperature": {}},
        {"warmup_temperature": {"ROB": 50.0}},
        {"block_areas_mm2": {"ROB": 1, "extra": 2.5}},
    ],
    ids=["empty warm-up", "partial warm-up", "other blocks"],
)
def test_mappings_keyed_by_other_blocks_round_trip(simulated, changes):
    result = dataclasses.replace(simulated, **changes)
    blob = result_to_bytes(result)
    header = Frame(blob, RESULT_BIN_MAGIC, RESULT_BIN_VERSION, "result").header
    assert all(header[key] == value for key, value in changes.items())
    _assert_round_trips(result)


def test_version_one_frame_is_a_cache_miss(tmp_path, cell, simulated):
    """A frame of the first container layout (per-block mappings in its
    header, no vectors) is not read, so the cell is simulated again."""
    cache = ResultCache(tmp_path / "cache")
    path = cache.store(cell, simulated)
    frame = Frame(path.read_bytes(), RESULT_BIN_MAGIC, RESULT_BIN_VERSION, "result")
    header = dict(
        frame.header,
        block_areas_mm2=dict(simulated.block_areas_mm2),
        warmup_temperature=dict(simulated.warmup_temperature),
    )
    count, width = header["intervals"], len(header["block_names"])
    arrays = [frame.take(count, "<i8"), frame.take(count * (1 + 3 * width), "<f8")]
    path.write_bytes(pack_frame(RESULT_BIN_MAGIC, 1, header, arrays))
    assert cache.load(cell) is None
    assert cache.misses == 1


# ----------------------------------------------------------------------
# What a decoded result holds
# ----------------------------------------------------------------------
def test_decoded_records_hold_arrays_and_no_mappings(simulated):
    """No record and no per-block mapping until asked: the table and the
    per-block vectors are read-only views of the one frame buffer."""
    decoded = result_from_bytes(result_to_bytes(simulated))
    assert len(decoded.intervals) == len(simulated.intervals)
    _, _, per_block_dicts, records = footprint(decoded)
    assert (per_block_dicts, records) == (0, 0)
    arrays = list(decoded.intervals.arrays)
    arrays += [decoded.block_areas_mm2.vector, decoded.warmup_temperature.vector]
    buffers = set()
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        buffers.add(id(getattr(array.base, "obj", array.base)))
    assert len(buffers) == 1
    assert not any(array.flags.writeable for array in arrays)
    assert decoded.intervals.temperature.shape == (
        len(decoded.intervals),
        len(decoded.block_names),
    )


def test_result_to_dict_does_not_cache_mappings(simulated):
    decoded = result_from_bytes(result_to_bytes(simulated))
    for result in (simulated, decoded):
        held = footprint(result)
        result_to_dict(result)
        assert footprint(result) == held
    assert footprint(decoded)[2:] == (0, 0)


def test_trace_frame_is_unchanged():
    spec = RunSpec(
        config=scale_paper_intervals(baseline_config(), 800),
        benchmark="gzip",
        trace_uops=2_000,
        interval_cycles=800,
        seed=7,
    )
    _, trace = execute_cell_capture(spec)
    assert hashlib.sha256(trace.to_bytes()).hexdigest() == TRACE_SHA256


# ----------------------------------------------------------------------
# Malformed entries are misses
# ----------------------------------------------------------------------
def _reframed(blob: bytes, **changes) -> bytes:
    """``blob`` with its header fields replaced (arrays untouched)."""
    frame = Frame(blob, RESULT_BIN_MAGIC, RESULT_BIN_VERSION, "result")
    (length,) = struct.unpack_from("<I", blob, 5)
    header = dict(frame.header, **changes)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (
        blob[:5] + struct.pack("<I", len(header_bytes)) + header_bytes
        + blob[9 + length:]
    )


def _corruptions(blob: bytes):
    version_bumped = bytearray(blob)
    version_bumped[len(RESULT_BIN_MAGIC)] = RESULT_BIN_VERSION + 1
    intervals = Frame(blob, RESULT_BIN_MAGIC, RESULT_BIN_VERSION, "result").header[
        "intervals"
    ]
    return {
        "empty": b"",
        "magic only": blob[:5],
        "truncated": blob[: len(blob) // 2],
        "truncated by one byte": blob[:-1],
        "bad magic": b"NOPE" + blob[4:],
        "wrong version": bytes(version_bumped),
        "wrong schema": _reframed(blob, schema_version=3),
        "header length past the end": blob[:5] + struct.pack("<I", len(blob)) + blob[9:],
        "wrong interval count": _reframed(blob, intervals=intervals + 1),
        "negative interval count": _reframed(blob, intervals=-1),
        "trailing bytes": blob + b"\0" * 8,
        "header not a mapping": blob[:5] + struct.pack("<I", 2) + b"[]",
        "JSON text": json.dumps({"schema_version": 4}).encode(),
    }


def test_result_from_bytes_rejects_every_corruption(simulated):
    for what, data in _corruptions(result_to_bytes(simulated)).items():
        with pytest.raises(ValueError):
            result_from_bytes(data)
            pytest.fail(f"{what} decoded")


@pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
def test_every_corruption_is_a_cache_miss(tmp_path, cell, simulated, sharded):
    cache = (
        ShardedResultCache(tmp_path / "cache", shards=4)
        if sharded
        else ResultCache(tmp_path / "cache")
    )
    path = cache.store(cell, simulated)
    assert path.name.endswith(".result.bin")
    assert cache.load(cell) is not None
    corruptions = _corruptions(path.read_bytes())
    for what, data in corruptions.items():
        path.write_bytes(data)
        assert cache.load(cell) is None, what
    assert cache.misses == len(corruptions) and cache.hits == 1
    # The next store rewrites the entry, and it hits again.
    cache.store(cell, simulated)
    assert _canonical(cache.load(cell)) == _canonical(simulated)
