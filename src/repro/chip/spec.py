"""Declarative chip cells: one multi-core simulation as a campaign unit.

A :class:`ChipRunSpec` is the chip analogue of a
:class:`~repro.campaign.spec.RunSpec`: everything needed to simulate one
(configuration, core count, workload mix, chip DTM policy) cell in
isolation, content-hashable for the result cache and picklable into worker
processes.

The crucial structural property: a chip cell's *timing* decomposes into its
threads' single-core timing runs.  :meth:`ChipRunSpec.core_specs` projects
the cell onto per-thread single-core :class:`RunSpec` objects whose
``timing_key()`` is exactly the key a single-core campaign cell of the same
(config, workload, seed, interval) would mint.  A single-core cell is the
one-thread layout of the same projection (:meth:`RunSpec.core_specs` is the
cell itself), so the one campaign plan of :mod:`repro.campaign.core` groups,
captures and replays both kinds of cell alike: a multi-core physics sweep
replays N *cached single-core* activity traces (captured by this campaign,
a previous one, or a plain single-core sweep) instead of re-running any
per-uop timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.campaign.spec import ExecutionOptions, RunSpec, _jsonable, variant_name
from repro.sim.config import ProcessorConfig
from repro.sim.serialization import content_key


def mix_name(benchmarks: Tuple[str, ...]) -> str:
    """Canonical display name of a workload mix (``"gzip+swim"``)."""
    return "+".join(benchmarks)


@dataclass(frozen=True)
class ChipRunSpec:
    """One independent chip cell: N threads on one composite die.

    ``benchmarks`` lists the thread workloads in core order (thread ``t``
    starts on core ``t``); fewer threads than ``cores`` leave idle cores —
    the blank silicon chip-level migration trades against.  ``chip_policy``
    optionally names a chip-level DTM policy
    (a :func:`repro.chip.make_chip_policy` spec string such as
    ``"core_migration"`` or ``"chip_dvfs:target=85"``).

    ``contention`` optionally names a shared-LLC contention model
    (a :func:`repro.chip.make_contention` spec string such as
    ``"shared_llc"`` or ``"shared_llc:service=32"``); contended cells
    couple threads through memory latency and are therefore never
    replayable.

    ``options`` are the :class:`~repro.campaign.spec.ExecutionOptions`
    the cell runs under (timing and replay mode) — deliberately excluded
    from :meth:`key_material` and :meth:`provenance` so a cell keeps one
    cache identity across modes.
    """

    config: ProcessorConfig
    cores: int
    benchmarks: Tuple[str, ...]
    trace_uops: Tuple[int, ...]
    interval_cycles: int
    seed: int
    chip_policy: Optional[str] = None
    contention: Optional[str] = None
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("a chip cell needs at least one core")
        if not self.benchmarks:
            raise ValueError("a chip cell needs at least one thread")
        if len(self.benchmarks) > self.cores:
            raise ValueError(
                f"{len(self.benchmarks)} threads do not fit on {self.cores} cores"
            )
        if len(self.trace_uops) != len(self.benchmarks):
            raise ValueError(
                f"{len(self.trace_uops)} trace lengths for "
                f"{len(self.benchmarks)} threads"
            )
        if self.contention is not None:
            from repro.chip.contention import make_contention

            # Fail fast on malformed specs, and normalize disabled spellings
            # ("none", "") to None so they cannot mint a cache key distinct
            # from the contention-free cell they are identical to.
            if make_contention(self.contention) is None:
                object.__setattr__(self, "contention", None)

    # ------------------------------------------------------------------
    @property
    def benchmark(self) -> str:
        """The mix's display name — the per-benchmark key of summaries."""
        return mix_name(self.benchmarks)

    @property
    def variant(self) -> str:
        """Name of this cell's (configuration, chip policy) combination."""
        return variant_name(self.config.name, self.chip_policy)

    def provenance(self) -> Dict[str, object]:
        """Settings provenance recorded into the produced result."""
        provenance: Dict[str, object] = {
            "cores": self.cores,
            "benchmarks": list(self.benchmarks),
            "trace_uops": list(self.trace_uops),
            "interval_cycles": self.interval_cycles,
            "seed": self.seed,
        }
        if self.chip_policy is not None:
            provenance["chip_policy"] = self.chip_policy
        if self.contention is not None:
            provenance["contention"] = self.contention
        return provenance

    def key_material(self) -> Dict[str, object]:
        """The canonical content this cell is identified by.

        Chip keys live in their own namespace (the ``"chip"`` marker): a
        1-core chip cell is *not* the single-core cell of the same workload
        — its result carries chip telemetry and chip block names — so the
        two must never collide in the result cache.
        """
        material: Dict[str, object] = {
            "chip": True,
            "cores": self.cores,
            "config": _jsonable(self.config),
            "benchmarks": list(self.benchmarks),
            "trace_uops": list(self.trace_uops),
            "interval_cycles": self.interval_cycles,
            "seed": self.seed,
        }
        if self.chip_policy is not None:
            material["chip_policy"] = self.chip_policy
        # Contention enters the material only when set, so every cache key
        # minted before it existed still matches its cell.  The solver's
        # factorization needs no entry: the die's node count, a function of
        # ``cores``, picks it.
        if self.contention is not None:
            material["contention"] = self.contention
        return material

    def cache_key(self) -> str:
        """Stable content hash identifying this cell across processes/runs."""
        return content_key(self.key_material())

    # ------------------------------------------------------------------
    # Two-stage execution: the per-thread single-core projection
    # ------------------------------------------------------------------
    def core_specs(self) -> Tuple[RunSpec, ...]:
        """Single-core cells whose timing this chip cell is composed of.

        Their :meth:`~repro.campaign.spec.RunSpec.timing_key` values are the
        trace-artifact keys the chip replay path loads (or captures) — the
        same keys a plain single-core campaign of the same settings uses.
        """
        return tuple(
            RunSpec(
                config=self.config,
                benchmark=benchmark,
                trace_uops=uops,
                interval_cycles=self.interval_cycles,
                seed=self.seed,
            )
            for benchmark, uops in zip(self.benchmarks, self.trace_uops)
        )

    def replay_reason(self) -> Optional[str]:
        """Why this cell must be simulated coupled (``None`` = replayable)."""
        from repro.chip.engine import chip_feedback_reason

        return chip_feedback_reason(self.config, self.contention, self.chip_policy)

    @property
    def replayable(self) -> bool:
        """Whether this cell can be replayed from cached per-core traces."""
        return self.replay_reason() is None
