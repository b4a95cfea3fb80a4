"""Spliced content keys: each key equals ``content_key`` of its material.

``RunSpec`` and ``ChipRunSpec`` encode a configuration's canonical JSON
once per config object (``config_json``) and splice that text into every
key they derive, instead of re-encoding the configuration per key.  The
pinned hex values in ``tests/test_content_keys.py`` lock a few keys; this
seeded property test locks the identity itself over random
``ConfigBuilder`` configurations: presets, cluster counts, steering, bank
hopping and biasing, leakage and convection, with and without DTM policies,
chip policies and contention.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.campaign import Campaign, ConfigBuilder, ExperimentSettings, scale_paper_intervals
from repro.campaign.spec import RunSpec, config_json
from repro.chip.spec import ChipRunSpec
from repro.core.presets import FrontendOrganization, config_for
from repro.sim.config import SteeringPolicy
from repro.sim.serialization import content_key

#: Property-test budget (seeds), at least 50.
SEEDS = 64

BENCHMARKS = ("gzip", "swim", "mcf", "equake", "thermal_virus", "idle_crawl")
DTM_POLICIES = (None, "none", "dvfs", "fetch_throttle:trigger=80", "hybrid:target=45,emergency=50")
CHIP_POLICIES = (None, "none", "core_migration", "chip_dvfs:target=85")
CONTENTIONS = (None, "shared_llc", "shared_llc:service=32")


def random_config(rng: random.Random):
    """A random scaled configuration built through :class:`ConfigBuilder`."""
    builder = ConfigBuilder(config_for(rng.choice(list(FrontendOrganization))))
    if rng.random() < 0.5:
        builder = builder.distributed(rng.choice((1, 2)))
    builder = builder.backend(num_clusters=rng.choice((2, 4, 8)))
    builder = builder.steering(rng.choice(list(SteeringPolicy)))
    if rng.random() < 0.5:
        builder = builder.bank_hopping(rng.choice((3, 4)))
    if rng.random() < 0.5:
        builder = builder.trace_cache(hop_interval_cycles=rng.choice((400, 10_000_000)))
    if rng.random() < 0.4:
        builder = builder.biased_mapping(rng.choice((None, 2.0, 3.5)))
    builder = (
        builder.power(leakage_fraction_at_ambient=rng.uniform(0.1, 0.5))
        .thermal(convection_resistance_k_per_w=rng.uniform(0.1, 0.5))
        .named(f"random-{rng.randrange(10**6)}")
    )
    return scale_paper_intervals(builder.build(), rng.choice((800, 1_600, 6_000)))


@pytest.mark.parametrize("seed", range(SEEDS))
def test_spliced_keys_equal_content_key_of_material(seed):
    rng = random.Random(seed)
    config = random_config(rng)
    interval = config.thermal.interval_cycles
    spec = RunSpec(
        config,
        rng.choice(BENCHMARKS),
        rng.randint(500, 9_000),
        interval,
        rng.randint(0, 99),
        dtm_policy=rng.choice(DTM_POLICIES),
    )
    assert spec.cache_key() == content_key(spec.key_material())
    assert spec.timing_key() == content_key(spec.timing_key_material())
    # An equal configuration without the memo mints the same keys.
    fresh = dataclasses.replace(spec, config=dataclasses.replace(config))
    assert fresh.cache_key() == spec.cache_key()
    assert fresh.timing_key() == spec.timing_key()

    cores = rng.choice((1, 2, 4, 16))
    mix = tuple(rng.choice(BENCHMARKS) for _ in range(rng.randint(1, cores)))
    chip = ChipRunSpec(
        config,
        cores,
        mix,
        tuple(rng.randint(500, 9_000) for _ in mix),
        interval,
        rng.randint(0, 99),
        chip_policy=rng.choice(CHIP_POLICIES),
        contention=rng.choice(CONTENTIONS),
    )
    assert chip.cache_key() == content_key(chip.key_material())
    for core in chip.core_specs():
        assert core.timing_key() == content_key(core.timing_key_material())


def test_memo_lives_on_the_config_object_only():
    """Each ``cells()`` call scales fresh configurations, so a campaign's
    second pass derives its keys from scratch, and the memo never travels
    in a pickle."""
    settings = ExperimentSettings(benchmarks=("gzip", "swim"), uops_per_benchmark=1_000)
    campaign = Campaign([config_for(FrontendOrganization.BASELINE)], settings)
    first = campaign.cells()
    keys = [cell.cache_key() for cell in first]
    memo = config_json(first[0].config)
    assert first[0].config is first[1].config  # one memo per config object
    second = campaign.cells()
    assert second[0].config is not first[0].config
    assert not any(name.startswith("_") for name in vars(second[0].config))
    assert [cell.cache_key() for cell in second] == keys
    shipped = pickle.loads(pickle.dumps(first[0]))
    assert not any(name.startswith("_") for name in vars(shipped.config))
    assert shipped.cache_key() == keys[0]
    assert config_json(shipped.config) == memo
