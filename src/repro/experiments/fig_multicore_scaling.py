"""Multi-core scaling: core count x workload-mix sweep over the chip layer.

The paper's single-core techniques reshape heat *within* one core; the chip
layer (:mod:`repro.chip`) composes cores into one package, where two new
effects dominate: neighbour heating through the shared silicon/spreader,
and the idle headroom that chip-level migration exploits.  This driver
quantifies both by scaling the same configuration across 1/2/4/16-core dies
under two mix shapes:

* **homogeneous** — the thermal virus on every core: the chip's worst case,
  every core heating its neighbours;
* **heterogeneous** — a mixed-intensity bag (hot loop, virus, memory-bound,
  idle): hot cores next to cool ones, the shape migration and per-core DVFS
  are designed for.

Each core count is one chip :class:`~repro.campaign.Campaign` (so the sweep
parallelizes and caches like everything else), and because chip cells replay
cached *single-core* traces, the whole figure re-runs per-uop timing only
once per distinct scenario.  Exposed on the CLI as
``repro-campaign run --figure multicore``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.campaign import Campaign, Executor, ResultCache, run_campaign
from repro.campaign.spec import ExperimentSettings
from repro.core.presets import baseline_config
from repro.experiments.reporting import Figure, format_value_table, single_config
from repro.sim.config import ProcessorConfig

#: Core counts swept by default (the grid degenerates gracefully: 1 core is
#: exactly the single-core engine, which anchors the scaling curves).  The
#: 16-core die crosses the thermal solver's sparse threshold, so the default
#: sweep exercises both factorization backends.
DEFAULT_CORE_COUNTS: Tuple[int, ...] = (1, 2, 4, 16)

#: The homogeneous mix replicates the maximum-power scenario on every core.
HOMOGENEOUS_SCENARIO = "thermal_virus"

#: The heterogeneous bag, hottest-next-to-coolest by design; a ``cores``-core
#: mix takes the first ``cores`` entries, and wider dies tile the bag (so a
#: 16-core mix is four hot/virus/memory/idle quadrants — hot cores always
#: adjacent to cool ones).
HETEROGENEOUS_MIX: Tuple[str, ...] = (
    "hot_loop",
    "thermal_virus",
    "memory_bound",
    "idle_crawl",
)


def _mixes_for(cores: int) -> Tuple[Tuple[str, ...], ...]:
    heterogeneous = tuple(
        HETEROGENEOUS_MIX[c % len(HETEROGENEOUS_MIX)] for c in range(cores)
    )
    return (
        (HOMOGENEOUS_SCENARIO,) * cores,
        heterogeneous,
    )


@dataclass
class MulticoreScalingResult:
    """Per-(core count, mix shape) aggregates of the scaling sweep."""

    config_name: str
    #: Row label ("2 cores homogeneous") -> metrics.
    data: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cells_replayed: int = 0
    traces_captured: int = 0

    def payload(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "rows": {label: dict(metrics) for label, metrics in self.data.items()},
        }

    def format_table(self) -> str:
        return format_value_table(
            f"Multi-core scaling on '{self.config_name}' "
            f"(temperature increases over 45 C ambient; "
            f"{self.cells_replayed} of the chip cells replayed cached "
            "single-core traces)",
            self.data,
            columns=(
                "Peak dT (C)",
                "AvgMax dT (C)",
                "chip IPC",
                "spread (C)",
            ),
            precision=2,
        )


def run_multicore_scaling(
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    config: Optional[ProcessorConfig] = None,
    uops_per_thread: int = 2_500,
    seed: int = 7,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> MulticoreScalingResult:
    """Run the core-count x mix grid and aggregate per (count, shape).

    ``core spread`` is the difference between the hottest and coolest
    core's peak temperature — zero for a perfectly homogeneous die, large
    when hot cores sit next to idle silicon (the headroom chip-level DTM
    trades against).  The 16-core dies solve their thermal network with
    sparse SuperLU and the small anchors stay on the dense bit-identical
    path (see :mod:`repro.thermal.solver`).
    """
    if config is None:
        config = baseline_config()
    if cache is None:
        # The core counts run as separate campaigns, and per-thread traces
        # only cross campaigns through a cache — without one, every count
        # would re-capture the same scenarios' timing.  A throwaway cache
        # keeps the "one timing run per distinct scenario" promise.
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-multicore-") as tmp:
            return run_multicore_scaling(
                core_counts=core_counts,
                config=config,
                uops_per_thread=uops_per_thread,
                seed=seed,
                executor=executor,
                cache=ResultCache(tmp),
            )
    scenarios = tuple(
        dict.fromkeys((HOMOGENEOUS_SCENARIO,) + HETEROGENEOUS_MIX)
    )
    settings = ExperimentSettings(
        benchmarks=scenarios,
        uops_per_benchmark=uops_per_thread,
        seed=seed,
        honor_relative_length=False,
    )
    result = MulticoreScalingResult(config_name=config.name)
    for cores in core_counts:
        campaign = Campaign(
            (config,),
            settings,
            name=f"multicore_{cores}",
            cores=cores,
            per_core_scenarios=_mixes_for(cores),
        )
        outcome = run_campaign(campaign, executor=executor, cache=cache)
        result.cells_replayed += outcome.cells_replayed
        result.traces_captured += outcome.traces_captured
        summary = outcome.summaries[config.name]
        for shape, mix in zip(("homogeneous", "heterogeneous"), _mixes_for(cores)):
            cell = summary.results["+".join(mix)]
            metrics = cell.temperature_metrics("Processor")
            per_core = cell.chip["per_core"]
            peaks = [entry["peak_celsius"] for entry in per_core.values()]
            result.data[f"{cores} cores {shape}"] = {
                "Peak dT (C)": metrics["AbsMax"],
                "AvgMax dT (C)": metrics["AvgMax"],
                "chip IPC": cell.chip["aggregate"]["chip_ipc"],
                "spread (C)": max(peaks) - min(peaks),
            }
    return result


def _run_from_payload(payload, executor, cache) -> MulticoreScalingResult:
    kwargs = {}
    if payload.get("cores") is not None:
        # Scale 1 -> N in powers of two (always anchored at the 1-core run,
        # which is bit-identical to the single-core engine).
        counts = [1]
        while counts[-1] * 2 <= payload["cores"]:
            counts.append(counts[-1] * 2)
        if counts[-1] != payload["cores"]:
            counts.append(payload["cores"])
        kwargs["core_counts"] = tuple(counts)
    return run_multicore_scaling(
        config=single_config(payload, "multicore"),
        uops_per_thread=payload.get("uops", 2_500),
        seed=payload.get("seed", 7),
        executor=executor,
        cache=cache,
        **kwargs,
    )


FIGURE = Figure(
    "multicore", ("configs", "cores", "uops", "seed"), _run_from_payload
)
