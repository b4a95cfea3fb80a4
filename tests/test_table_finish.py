"""A coupled run's interval table is trimmed to its rows and read-only, and
block positions come from one shared map per block order."""

import pytest

from repro.campaign import Campaign, ExperimentSettings, run_campaign
from repro.core.presets import baseline_config
from repro.sim.warmcache import warm_cache


def _gzip_result():
    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=1_500)
    outcome = run_campaign(Campaign.single(baseline_config(), settings), replay=False)
    return outcome.summaries["baseline"].results["gzip"]


def test_coupled_table_holds_exactly_its_rows():
    result = _gzip_result()
    table = result.intervals
    assert len(table) == 3
    assert [array.shape for array in table._arrays[2:]] == [(3, 48)] * 3
    assert table._arrays[0].shape == table._arrays[1].shape == (3,)
    for array in table._arrays:
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        table.temperature[0, 0] = 0.0
    # A finished table still grows if a caller appends to it.
    table.append(1, 1.0, [0.0] * 48, [0.0] * 48, [45.0] * 48)
    assert len(table) == 4


def test_block_positions_are_shared_per_block_order():
    first, second = _gzip_result(), _gzip_result()
    assert first.intervals is not second.intervals
    assert first.intervals.positions is second.intervals.positions
    names = list(first.block_names)
    assert first.intervals.positions == {name: i for i, name in enumerate(names)}
    warm_cache().clear()
    rebuilt = first.intervals.positions
    assert rebuilt == second.intervals.positions
