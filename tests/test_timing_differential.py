"""Randomized differential lock: the native timing core against the reference.

A seeded generator draws whole cells over :class:`ConfigBuilder`: a preset,
1, 2 or 4 frontend partitions, a steering policy, bank hopping and biased
mapping on or off, the interval size, a DTM policy, the benchmark, its seed
and the trace length.  Each cell runs on the per-uop reference
``Processor`` and on the native core and must produce byte-identical
results (``result_to_dict``), stats payloads and, where the cell can be
captured for replay, activity-trace JSON.  A second pair runs the same
cells natively from a :class:`~repro.workloads.generator.WorkloadSpec`
(generated and decoded by the native front end) against the explicit
``MicroOp`` list.  The hand-picked locks in
``test_fast_timing_equivalence.py`` pin the paper's presets; this file
covers the combinations between them.

The budget is fixed and small (``SAMPLES`` cells of at most a few thousand
uops); every failure names the sample, so a failing cell can be re-run on
its own from the printed parameters.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.campaign.builder import ConfigBuilder
from repro.core.presets import ALL_CONFIGURATIONS, FrontendOrganization, config_for
from repro.dtm.policies import make_policy
from repro.sim.config import ProcessorConfig, SteeringPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.serialization import result_to_dict
from repro.workloads import SPEC2000_PROFILES
from repro.workloads.generator import TraceGenerator, WorkloadSpec

#: Cells drawn per tier-1 run, and the generator seed that fixes them.
SAMPLES = 20
MASTER_SEED = 2005

#: DTM specs with triggers low enough to actuate within a short trace.
DTM_SPECS = (
    None,
    "fetch_throttle:trigger=50,duty=0.25",
    "clock_gate:trigger=50",
    "dvfs:target=50",
    "hybrid:target=50,emergency=55",
)


@dataclass(frozen=True)
class Sample:
    """One randomly drawn cell."""

    preset: FrontendOrganization
    num_frontends: int
    steering: SteeringPolicy
    hopping: bool
    biasing: bool
    interval_cycles: int
    dtm: Optional[str]
    benchmark: str
    seed: int
    uops: int

    def config(self) -> ProcessorConfig:
        builder = (
            ConfigBuilder.from_config(config_for(self.preset))
            .distributed(self.num_frontends)
            .steering(self.steering)
        )
        if self.hopping:
            builder = builder.bank_hopping()
        if self.biasing:
            builder = builder.biased_mapping()
        return builder.build().with_intervals(self.interval_cycles)


def draw_samples(count: int, seed: int):
    rng = random.Random(seed)
    benchmarks = sorted(SPEC2000_PROFILES)
    return [
        Sample(
            preset=rng.choice(ALL_CONFIGURATIONS),
            num_frontends=rng.choice((1, 2, 4)),
            steering=rng.choice(tuple(SteeringPolicy)),
            hopping=rng.random() < 0.3,
            biasing=rng.random() < 0.3,
            interval_cycles=rng.choice((300, 500, 800, 1200)),
            dtm=rng.choice(DTM_SPECS),
            benchmark=rng.choice(benchmarks),
            seed=rng.randrange(1, 1000),
            uops=rng.randrange(600, 2400),
        )
        for _ in range(count)
    ]


def _run(sample: Sample, source, mode: str):
    engine = SimulationEngine(
        sample.config(),
        source,
        sample.benchmark,
        dtm_policy=make_policy(sample.dtm) if sample.dtm else None,
        timing_mode=mode,
    )
    assert engine.resolved_timing_mode == mode, sample
    if engine.replay_safe_reason is None:
        result, trace = engine.run_with_trace()
        return result, trace.to_json()
    return engine.run(), None


@pytest.mark.parametrize(
    "sample",
    draw_samples(SAMPLES, MASTER_SEED),
    ids=[f"sample{i:02d}" for i in range(SAMPLES)],
)
def test_random_cells_native_matches_reference(native_core, sample):
    uops = TraceGenerator(sample.benchmark, seed=sample.seed).generate(sample.uops).uops
    ref, ref_trace = _run(sample, list(uops), "reference")
    fast, fast_trace = _run(sample, list(uops), "fast")
    assert json.dumps(result_to_dict(ref)) == json.dumps(result_to_dict(fast)), sample
    assert ref.stats.to_payload() == fast.stats.to_payload(), sample
    assert ref_trace == fast_trace, sample


#: Cells of the workload-value pair (the first of the drawn samples).
WORKLOAD_SAMPLES = 6


@pytest.mark.parametrize(
    "sample",
    draw_samples(SAMPLES, MASTER_SEED)[:WORKLOAD_SAMPLES],
    ids=[f"sample{i:02d}" for i in range(WORKLOAD_SAMPLES)],
)
def test_workload_value_matches_explicit_uops(native_core, sample):
    spec = WorkloadSpec(sample.benchmark, sample.seed, sample.uops)
    named, named_trace = _run(sample, spec, "fast")
    explicit, explicit_trace = _run(sample, spec.expand(), "fast")
    assert json.dumps(result_to_dict(named)) == json.dumps(result_to_dict(explicit)), sample
    assert named.stats.to_payload() == explicit.stats.to_payload(), sample
    assert named_trace == explicit_trace, sample
