"""The warm cache's decoded-workload and native-layout memos.

Processors over one :class:`WorkloadSpec` share its decoded arrays, and
processors of one configuration share its parameter vector and block-id
tables.  Sharing is safe only because nothing writes them: the arrays are
read-only, the C core declares them ``const``, and a run leaves them
bit-identical.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.campaign import Campaign, ExperimentSettings, run_campaign
from repro.core.presets import bank_hopping_config, baseline_config
from repro.sim import native
from repro.sim.serialization import canonical_json, result_to_dict
from repro.sim.warmcache import WORKLOAD_BYTES, WORKLOAD_ENTRY_BYTES, warm_cache
from repro.workloads.decode import ARRAY_FIELDS
from repro.workloads.generator import WorkloadSpec

pytestmark = pytest.mark.skipif(
    native.load_library() is None, reason="the native core is unavailable"
)


@pytest.fixture(autouse=True)
def cold_warm_cache():
    warm_cache().clear()
    yield
    warm_cache().clear()


def _campaign():
    return Campaign(
        (baseline_config(), bank_hopping_config()),
        ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_200, seed=3),
    )


def _bytes(outcome):
    return [
        canonical_json(result_to_dict(result))
        for summary in outcome.summaries.values()
        for result in summary.results.values()
    ]


def _digest(decoded) -> str:
    sha = hashlib.sha256()
    for name, _ in ARRAY_FIELDS:
        sha.update(getattr(decoded, name).tobytes())
    return sha.hexdigest()


def test_shared_workload_gives_the_bytes_of_fresh_ones():
    """Two cells on one memoized workload equal two cells on fresh ones."""
    shared = run_campaign(_campaign(), replay=False)
    assert warm_cache().snapshot()["workload_hits"] >= 1
    fresh = []
    for config in _campaign().configs:
        warm_cache().clear()
        outcome = run_campaign(
            Campaign((config,), _campaign().settings), replay=False
        )
        assert warm_cache().snapshot()["workload_hits"] == 0
        fresh.extend(_bytes(outcome))
    assert _bytes(shared) == fresh


def test_memoized_arrays_are_read_only_and_unchanged_by_runs():
    spec = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_200, seed=3)
    run_campaign(Campaign.single(baseline_config(), spec), replay=False)
    workload = WorkloadSpec("gzip", 3, spec.trace_length("gzip"))
    decoded, pointers = warm_cache().get_workload(workload)
    assert len(pointers) == len(ARRAY_FIELDS)
    before = _digest(decoded)
    for name, _ in ARRAY_FIELDS:
        array = getattr(decoded, name)
        with pytest.raises(ValueError):
            array[0] = array[0]
    run_campaign(_campaign(), replay=False)
    again, _ = warm_cache().get_workload(workload)
    assert again is decoded
    assert _digest(decoded) == before
    # The fresh generation equals the memoized arrays byte for byte.
    fresh = native.generate_decoded("gzip", 3, workload.uops)
    assert _digest(fresh) == before


def test_layout_tables_are_shared_and_read_only():
    from repro.sim.fast_timing import FastProcessor, native_layout

    config = baseline_config()
    layout = native_layout(config)
    # Keyed on the die: the name and the power section do not matter.
    renamed = dataclasses.replace(
        config,
        name="renamed",
        power=dataclasses.replace(config.power, leakage_fraction_at_ambient=0.4),
    )
    assert native_layout(renamed) is layout
    assert native_layout(bank_hopping_config()) is not layout
    for table in layout.tables:
        with pytest.raises(ValueError):
            table[0] = 0
    # Each processor passes its own workload length over the shared vector.
    for uops in (600, 900):
        processor = FastProcessor(config, WorkloadSpec("gzip", 1, uops))
        processor.run()
        assert processor.stats.committed_uops == uops
    assert layout.params[native.PARAM_NAMES.index("n")] == 0


def test_entries_over_the_cap_are_not_admitted_and_clear_empties():
    cache = warm_cache()
    per_uop = sum(
        np.dtype(dtype).itemsize * (2 if name == "source_flats" else 1)
        for name, dtype in ARRAY_FIELDS
    )
    big = WorkloadSpec("gzip", 1, WORKLOAD_ENTRY_BYTES // per_uop + 1)
    from repro.sim.fast_timing import FastProcessor

    FastProcessor(baseline_config(), big)
    assert cache.get_workload(big) is None
    assert cache.info()["workloads_cached"] == 0

    small = WorkloadSpec("gzip", 1, WORKLOAD_ENTRY_BYTES // per_uop)
    FastProcessor(baseline_config(), small)
    assert cache.get_workload(small) is not None
    assert cache.info()["workload_bytes"] <= WORKLOAD_BYTES

    cache.clear()
    assert cache.get_workload(small) is None
    assert cache.info()["workloads_cached"] == 0
    assert cache.info()["workload_bytes"] == 0


def test_the_memo_evicts_down_to_its_byte_bound():
    cache = warm_cache()
    entry = WORKLOAD_ENTRY_BYTES
    count = WORKLOAD_BYTES // entry + 3
    for seed in range(count):
        cache.put_workload(WorkloadSpec("gzip", seed, 10), object(), entry)
    assert cache.info()["workload_bytes"] <= WORKLOAD_BYTES
    assert cache.get_workload(WorkloadSpec("gzip", 0, 10)) is None
    assert cache.get_workload(WorkloadSpec("gzip", count - 1, 10)) is not None
