"""Pinned content keys: every cache and sharing key stays byte-identical.

Result-cache entries, trace artifacts, batched-replay sub-groups and warm
solver bundles are all looked up by a sha256 over canonical JSON
(:func:`repro.sim.serialization.content_key`).  A key that drifts silently
turns every cached result and trace into a miss, so the literal hex values
below were computed once and must never change unless the key material
changes on purpose.
"""

from __future__ import annotations

import pytest

from repro.campaign.spec import RunSpec
from repro.chip.spec import ChipRunSpec
from repro.core.presets import baseline_config
from repro.power.energy import build_block_parameters
from repro.sim.group_replay import thermal_group_key
from repro.sim.warmcache import solver_key
from repro.thermal.floorplan import build_floorplan

HYBRID = "hybrid:target=45,emergency=50"


@pytest.fixture(scope="module")
def areas():
    return {n: p.area_mm2 for n, p in build_block_parameters(baseline_config()).items()}


def test_run_spec_keys_are_pinned():
    plain = RunSpec(baseline_config(), "gzip", 3000, 800, 7)
    managed = RunSpec(baseline_config(), "gzip", 3000, 800, 7, dtm_policy=HYBRID)
    assert plain.cache_key() == (
        "25df0134bdec01a0d0d0219e25225d550d4b3aa1bb1a422b3f07e6d94b64308b"
    )
    assert managed.cache_key() == (
        "dbebf2905ee2f1fe9a16c9cc5b702b285033ef84d8532502e34f645947b566ab"
    )
    timing = "6f8909e818531e6fbce1da0db34ad8c21d3a4ecd4f4ba491f15528b0dd54923e"
    assert plain.timing_key() == managed.timing_key() == timing


def test_chip_run_spec_key_is_pinned():
    spec = ChipRunSpec(
        baseline_config(),
        2,
        ("gzip", "swim"),
        (3000, 3000),
        800,
        7,
        chip_policy="core_migration",
        contention="shared_llc",
    )
    assert spec.cache_key() == (
        "7d47c9f1b2d91ca5b1f2cc469e81cb0fef8d0af034f2c7583ea9faf052d72530"
    )


def test_thermal_group_and_solver_keys_are_pinned(areas):
    config = baseline_config()
    assert thermal_group_key(config, areas) == (
        "475fbdca83b45089466bea5c30ac358e753ec9b6c8ec30187a146cced0dbb569"
    )
    plan = build_floorplan(config, areas)
    assert solver_key(plan, config.thermal) == (
        "b92095009498c2878b91337474dc3f147119c1bbeb37c098d706aa5b6ec6a50b"
    )
