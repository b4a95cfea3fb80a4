"""Differential tests of the interval table (``repro.sim.results``).

A result holds one (intervals x blocks) table, and its metrics are
vectorized reductions over it.  These tests lock that representation
against the per-record loops results used before it: seeded random results
are built three ways — from per-block dictionaries, decoded from a cache
frame, and through the replay producer (exact and batched trajectory
layouts) — and every metric must equal the reference loops below bit for
bit.  Real results (every golden cell, a 16-core chip and a DTM cell) round
trip through bytes and JSON to the same canonical document, and what a
decoded result holds in memory is checked object by object.
"""

from __future__ import annotations

import gc
import json
import struct
import sys
import types
from types import SimpleNamespace

import numpy as np
import pytest

from repro.campaign import Campaign, ExperimentSettings, run_campaign
from repro.core.presets import baseline_config
from repro.sim.group_replay import _replayed_result
from repro.sim.results import IntervalRecord, SimulationResult
from repro.sim.serialization import (
    result_from_bytes,
    result_from_dict,
    result_to_bytes,
    result_to_dict,
)
from repro.sim.stats import SimulationStats

from test_golden_metrics import _golden_campaigns

INTERVAL_SECONDS = 1.3e-4
INTERVAL_CYCLES = 800


# ----------------------------------------------------------------------
# The reference: the per-record loops of the dict-per-interval results
# ----------------------------------------------------------------------
def _py_sum(values):
    """``sum()`` as Python computed it before 3.12: left to right from 0
    (3.12 compensates the rounding, which the reference must not)."""
    total = 0
    for value in values:
        total = total + value
    return total


def reference_temperature_metrics(records, blocks, amb):
    per_interval_max = []
    per_interval_avg = []
    abs_max = float("-inf")
    for record in records:
        temps = [record["temperature"][b] for b in blocks]
        interval_max = max(temps)
        per_interval_max.append(interval_max - amb)
        per_interval_avg.append(_py_sum(temps) / len(temps) - amb)
        abs_max = max(abs_max, interval_max)
    return {
        "AbsMax": abs_max - amb,
        "Average": _py_sum(per_interval_avg) / len(per_interval_avg),
        "AvgMax": _py_sum(per_interval_max) / len(per_interval_max),
    }


def reference_peak_temperature(records, amb):
    return max(max(r["temperature"].values()) for r in records) if records else amb


def reference_average_power(records, names):
    total = 0.0
    for record in records:
        total += _py_sum(
            record["dynamic_power"][b] + record["leakage_power"][b] for b in names
        )
    return total / len(records)


def reference_average_dynamic_power(records, names):
    total = 0.0
    for record in records:
        total += _py_sum(record["dynamic_power"][b] for b in names)
    return total / len(records)


def reference_total_seconds(records, interval_cycles):
    if not interval_cycles:
        return records[-1]["seconds"]
    interval_seconds = records[0]["seconds"]
    total = 0.0
    previous_cycle = 0
    for record in records:
        delta = record["cycle"] - previous_cycle
        previous_cycle = record["cycle"]
        if delta == 0:
            total += interval_seconds
        else:
            total += interval_seconds * (delta / interval_cycles)
    return total


def reference_time_slowdown(ours, base, ours_cycles, base_cycles):
    if ours_cycles and base_cycles:
        mine = reference_total_seconds(ours, ours_cycles)
        theirs = reference_total_seconds(base, base_cycles)
    else:
        mine, theirs = ours[-1]["seconds"], base[-1]["seconds"]
    return 0.0 if theirs <= 0 else mine / theirs - 1.0


# ----------------------------------------------------------------------
# Seeded random results
# ----------------------------------------------------------------------
BLOCK_COUNTS = (1, 2, 3, 7, 48, 129, 333, 800)


def random_case(seed: int):
    """Block names, groups, per-interval records and provenance of one case."""
    rng = np.random.default_rng(seed)
    width = BLOCK_COUNTS[seed % len(BLOCK_COUNTS)]
    intervals = int(rng.integers(1, 61))
    names = [f"b{i:03d}_{int(rng.integers(1000))}" for i in range(width)]
    deltas = rng.integers(1, INTERVAL_CYCLES + 1, size=intervals)
    gated = rng.random(intervals) < 0.2
    deltas[gated] = 0  # clock-gated intervals add no cycles
    cycles = np.cumsum(deltas)
    dynamic = rng.uniform(0.0, 6.0, (intervals, width)) * rng.integers(0, 2, (intervals, width))
    dynamic[gated] = 0.0
    # Temperatures with repeated values, so ties in the maxima occur too.
    temperature = np.round(rng.uniform(45.0, 115.0, (intervals, width)), int(rng.integers(1, 14)))
    records = [
        {
            "cycle": int(cycles[i]),
            "seconds": (i + 1) * INTERVAL_SECONDS,
            "dynamic_power": dict(zip(names, dynamic[i].tolist())),
            "leakage_power": dict(zip(names, rng.uniform(0.0, 2.0, width).tolist())),
            "temperature": dict(zip(names, temperature[i].tolist())),
        }
        for i in range(intervals)
    ]
    shuffled = list(names)
    rng.shuffle(shuffled)
    groups = {
        "All": list(names),
        "Reversed": names[::-1],
        "Shuffled": shuffled,
        "One": [names[int(rng.integers(width))]],
        "Some": sorted(shuffled[: max(1, width // 3)]),
    }
    provenance = {} if seed % 5 == 4 else {"interval_cycles": INTERVAL_CYCLES}
    return names, groups, records, provenance


def dict_built(case) -> SimulationResult:
    names, groups, records, provenance = case
    return SimulationResult(
        config_name="random",
        benchmark="synthetic",
        stats=SimulationStats(cycles=max(1, records[-1]["cycle"]), committed_uops=10),
        block_names=list(names),
        block_groups=groups,
        block_areas_mm2={name: 1.0 + i for i, name in enumerate(names)},
        intervals=[IntervalRecord(**record) for record in records],
        warmup_temperature={name: 50.0 + i for i, name in enumerate(names)},
        provenance=dict(provenance),
    )


def replayed(case, layout: str) -> SimulationResult:
    """A result from the replay producer, given trajectories laid out as the
    exact walk (C-order matrices) or the batched walk (cell ``k`` of
    ``(intervals x blocks x cells)`` trajectories) leaves them."""
    names, groups, records, provenance = case
    matrices = [
        np.array([[record[key][name] for name in names] for record in records])
        for key in ("dynamic_power", "leakage_power", "temperature")
    ]
    if layout == "batched":
        cells = 3
        matrices = [
            np.repeat(matrix[:, :, None], cells, axis=2).transpose(2, 0, 1)[1]
            for matrix in matrices
        ]
        assert not matrices[2].flags.c_contiguous
    chip_cycles = np.diff([0] + [record["cycle"] for record in records])
    shell = dict_built(case)
    die = SimpleNamespace(
        block_index=SimpleNamespace(names=tuple(names)),
        config=SimpleNamespace(thermal=SimpleNamespace(interval_seconds=INTERVAL_SECONDS)),
        new_result=lambda benchmark, table: SimulationResult(
            config_name="",
            benchmark=benchmark,
            stats=shell.stats,
            block_names=list(names),
            block_groups=groups,
            block_areas_mm2=shell.block_areas_mm2,
            intervals=table,
            provenance=dict(provenance),
        ),
    )
    cell = SimpleNamespace(
        config=SimpleNamespace(name="random"),
        finish=lambda result, die, stack, temperatures: result,
    )
    stack = SimpleNamespace(
        intervals=len(records), chip_cycles=chip_cycles, benchmark="synthetic"
    )
    result = _replayed_result(cell, die, stack, matrices, shell.warmup_temperature)
    result.provenance.pop("replayed")
    return result


def _builds(case):
    built = dict_built(case)
    return {
        "dict": built,
        "decoded": result_from_bytes(result_to_bytes(built)),
        "replayed-exact": replayed(case, "exact"),
        "replayed-batched": replayed(case, "batched"),
    }


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


SEEDS = range(56)


@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_equal_the_per_record_loops_bit_for_bit(seed):
    case = random_case(seed)
    names, groups, records, provenance = case
    amb = 45.0
    expected = {
        "peak": reference_peak_temperature(records, amb),
        "power": reference_average_power(records, names),
        "dynamic": reference_average_dynamic_power(records, names),
        "seconds": reference_total_seconds(records, provenance.get("interval_cycles")),
    }
    for group, blocks in groups.items():
        for metric, value in reference_temperature_metrics(records, blocks, amb).items():
            expected[f"{group}.{metric}"] = value
        expected[f"{group}.power"] = reference_average_power(records, blocks)
        expected[f"{group}.dynamic"] = reference_average_dynamic_power(records, blocks)
    for how, result in _builds(case).items():
        actual = {
            "peak": result.peak_temperature(),
            "power": result.average_power(),
            "dynamic": result.average_dynamic_power(),
            "seconds": result.total_seconds(),
        }
        for group, blocks in groups.items():
            for metric, value in result.temperature_metrics(group).items():
                actual[f"{group}.{metric}"] = value
            actual[f"{group}.power"] = result.average_group_power(group)
            actual[f"{group}.dynamic"] = result.average_dynamic_power(blocks)
        assert actual.keys() == expected.keys()
        for key, value in expected.items():
            assert isinstance(actual[key], float), (how, key)
            assert _bits(actual[key]) == _bits(value), (how, key, actual[key], value)


@pytest.mark.parametrize("seed", range(0, 56, 4))
def test_time_slowdown_equals_the_per_record_loops_bit_for_bit(seed):
    ours_case, base_case = random_case(seed), random_case(seed + 1)
    expected = reference_time_slowdown(
        ours_case[2],
        base_case[2],
        ours_case[3].get("interval_cycles"),
        base_case[3].get("interval_cycles"),
    )
    ours, base = _builds(ours_case), _builds(base_case)
    for how in ours:
        actual = ours[how].time_slowdown_vs(base[how])
        assert _bits(actual) == _bits(expected), (how, actual, expected)


@pytest.mark.parametrize("seed", range(0, 56, 7))
def test_every_build_gives_the_same_document(seed):
    documents = {
        how: _canonical(result) for how, result in _builds(random_case(seed)).items()
    }
    assert len(set(documents.values())) == 1, sorted(documents)


def test_sums_of_negative_zeros_start_from_zero_as_sum_does():
    names, groups, records, provenance = random_case(3)
    for record in records:
        record["dynamic_power"] = dict.fromkeys(names, -0.0)
    expected = reference_average_dynamic_power(records, names)
    for how, result in _builds((names, groups, records, provenance)).items():
        assert _bits(result.average_dynamic_power()) == _bits(expected), how


# ----------------------------------------------------------------------
# Real results: bytes -> result -> dict, and JSON -> result -> bytes
# ----------------------------------------------------------------------
def _canonical(result) -> bytes:
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _results(outcome):
    return [r for summary in outcome.summaries.values() for r in summary.results.values()]


@pytest.fixture(scope="module")
def real_results():
    """Every golden cell (DTM cells included) and a 16-core chip result."""
    results = {}
    for name, campaign in _golden_campaigns().items():
        for variant, summary in run_campaign(campaign).summaries.items():
            for benchmark, result in summary.results.items():
                results[f"{name}/{variant}/{benchmark}"] = result
    chip = Campaign(
        [baseline_config()],
        ExperimentSettings(benchmarks=("gzip", "swim"), uops_per_benchmark=600, seed=2),
        name="chip16",
        cores=16,
        per_core_scenarios=[("gzip", "swim", "mcf", "equake") * 4],
    )
    (results["chip16"],) = _results(run_campaign(chip))
    return results


def test_real_results_round_trip_through_bytes_and_json(real_results):
    assert real_results["chip16"].chip["cores"] == 16
    assert sum(bool(result.dtm) for result in real_results.values()) >= 4
    for name, result in real_results.items():
        document = _canonical(result)
        decoded = result_from_bytes(result_to_bytes(result))
        assert _canonical(decoded) == document, name
        loaded = result_from_dict(json.loads(document))
        assert _canonical(loaded) == document, name
        assert result_to_bytes(loaded) == result_to_bytes(decoded), name
        for metric in ("peak_temperature", "average_power", "total_seconds"):
            values = {getattr(r, metric)() for r in (result, decoded, loaded)}
            assert len(values) == 1, (name, metric)
        assert decoded.all_temperature_metrics() == result.all_temperature_metrics()


# ----------------------------------------------------------------------
# What a result holds
# ----------------------------------------------------------------------
_OPAQUE = (type(None), type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def held_objects(result) -> list:
    """Every object reachable from ``result``, not through types or modules."""
    seen, pending = {}, [result]
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen[id(obj)] = obj
        pending.extend(gc.get_referents(obj))
        # CPython creates an instance's attribute dict on first use; count
        # it either way, so reading an object does not change its footprint.
        pending.append(getattr(obj, "__dict__", None))
    return list(seen.values())


def footprint(result):
    """``(objects, bytes, per-block dicts, records)`` that ``result`` holds."""
    names = set(result.block_names)
    held = held_objects(result)
    return (
        len(held),
        sum(sys.getsizeof(obj) for obj in held),
        sum(isinstance(obj, dict) and bool(obj) and set(obj) <= names for obj in held),
        sum(isinstance(obj, IntervalRecord) for obj in held),
    )


def test_repr_of_a_record_changes_nothing(real_results):
    for name in ("chip16", "centralized/baseline/gzip"):
        decoded = result_from_bytes(result_to_bytes(real_results[name]))
        document, held = _canonical(decoded), footprint(decoded)
        assert held[2:] == (0, 0)
        for record in decoded.intervals:
            assert repr(record).startswith("IntervalRecord(cycle=")
        assert footprint(decoded) == held
        assert _canonical(decoded) == document


def test_records_are_views_built_on_each_access(real_results):
    result = real_results["centralized/baseline/gzip"]
    table = result.intervals
    assert result.intervals[0] is not result.intervals[0]
    assert len(result.intervals[1:]) == len(table) - 1
    last = table[-1]
    assert last.cycle == int(table.cycles[-1]) and isinstance(last.cycle, int)
    assert last.temperature == dict(zip(result.block_names, table.temperature[-1].tolist()))
    assert last.temperature is not last.temperature
    with pytest.raises(IndexError):
        table[len(table)]
