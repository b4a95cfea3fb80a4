"""Ablations of the distributed frontend's design choices.

These experiments go beyond the paper's figures and quantify the sensitivity
of the proposed techniques to their main knobs:

* the bank-hop interval (the paper uses 10 M cycles — one thermal interval);
* the biased-mapping halving threshold (the paper uses 3 C);
* the number of frontend partitions (the paper uses 2);
* the steering policy (the paper uses dependence-based steering).

Each sweep is expressed as one :class:`~repro.campaign.Campaign` (the swept
variants are derived with the fluent
:class:`~repro.campaign.ConfigBuilder`), so a parallel executor fans the
whole sweep out at once and a result cache makes re-runs free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import (
    Campaign,
    ConfigBuilder,
    Executor,
    ResultCache,
    run_campaign,
)
from repro.core.presets import (
    bank_hopping_biasing_config,
    bank_hopping_config,
    baseline_config,
    distributed_rename_commit_config,
)
from repro.experiments.reporting import format_value_table
from repro.campaign import ExperimentSettings
from repro.sim.config import ProcessorConfig, SteeringPolicy


@dataclass
class AblationResult:
    """Sweep outcome: one row per swept value."""

    name: str
    #: rows[swept value] -> {"metric name": value}
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format_table(self) -> str:
        columns = []
        for row in self.rows.values():
            for column in row:
                if column not in columns:
                    columns.append(column)
        return format_value_table(f"Ablation: {self.name}", self.rows, columns, precision=3)


def _run_sweep(
    name: str,
    labelled_configs: Sequence[Tuple[str, ProcessorConfig]],
    settings: ExperimentSettings,
    executor: Optional[Executor],
    cache: Optional[ResultCache],
    include_baseline: bool = True,
):
    """Run baseline + swept variants as one campaign; returns the outcome."""
    configs: List[ProcessorConfig] = [baseline_config()] if include_baseline else []
    configs.extend(config for _, config in labelled_configs)
    campaign = Campaign(configs, settings, name=f"ablation-{name}")
    return run_campaign(campaign, executor, cache)


def run_hop_interval_ablation(
    settings: ExperimentSettings,
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> AblationResult:
    """Sweep the bank-hop interval relative to the thermal interval."""
    interval = settings.resolved_interval_cycles()
    labelled = [
        (
            f"{multiplier:g}x",
            ConfigBuilder.from_config(bank_hopping_config())
            .trace_cache(
                hop_interval_cycles=max(1, int(interval * multiplier)),
                remap_interval_cycles=interval,
            )
            .thermal(interval_cycles=interval)
            .named(f"hop_x{multiplier:g}")
            .build(),
        )
        for multiplier in multipliers
    ]
    outcome = _run_sweep("hop-interval", labelled, settings, executor, cache)
    baseline = outcome.summaries["baseline"]
    result = AblationResult(name="bank-hop interval (x thermal interval)")
    for label, config in labelled:
        summary = outcome.summaries[config.name]
        reductions = summary.mean_reductions_vs(baseline, "TraceCache")
        result.rows[label] = {
            "TC AbsMax reduction": reductions["AbsMax"],
            "TC Average reduction": reductions["Average"],
            "slowdown": summary.mean_slowdown_vs(baseline),
            "hit-rate loss": baseline.mean_trace_cache_hit_rate()
            - summary.mean_trace_cache_hit_rate(),
        }
    return result


def run_bias_threshold_ablation(
    settings: ExperimentSettings,
    thresholds_celsius: Sequence[float] = (1.5, 3.0, 6.0),
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> AblationResult:
    """Sweep the temperature difference that halves a bank's mapping share."""
    labelled = [
        (
            f"{threshold:g} C",
            ConfigBuilder.from_config(bank_hopping_biasing_config())
            .biased_mapping(threshold_celsius=threshold)
            .named(f"bias_{threshold:g}C")
            .build(),
        )
        for threshold in thresholds_celsius
    ]
    outcome = _run_sweep("bias-threshold", labelled, settings, executor, cache)
    baseline = outcome.summaries["baseline"]
    result = AblationResult(name="biased-mapping halving threshold (C)")
    for label, config in labelled:
        summary = outcome.summaries[config.name]
        reductions = summary.mean_reductions_vs(baseline, "TraceCache")
        result.rows[label] = {
            "TC AbsMax reduction": reductions["AbsMax"],
            "TC Average reduction": reductions["Average"],
            "slowdown": summary.mean_slowdown_vs(baseline),
        }
    return result


def run_partition_count_ablation(
    settings: ExperimentSettings,
    partition_counts: Sequence[int] = (2, 4),
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> AblationResult:
    """Sweep the number of frontend partitions of the distributed rename/commit."""
    labelled = [
        (
            str(count),
            ConfigBuilder.from_config(distributed_rename_commit_config(num_frontends=count))
            .named(f"distributed_rc_{count}")
            .build(),
        )
        for count in partition_counts
    ]
    outcome = _run_sweep("partition-count", labelled, settings, executor, cache)
    baseline = outcome.summaries["baseline"]
    result = AblationResult(name="frontend partitions")
    for label, config in labelled:
        summary = outcome.summaries[config.name]
        rob = summary.mean_reductions_vs(baseline, "ReorderBuffer")
        rat = summary.mean_reductions_vs(baseline, "RenameTable")
        result.rows[label] = {
            "ROB Average reduction": rob["Average"],
            "RAT Average reduction": rat["Average"],
            "slowdown": summary.mean_slowdown_vs(baseline),
            "inter-frontend copy requests": sum(
                r.stats.copy_requests_between_frontends for r in summary.results.values()
            )
            / len(summary.results),
        }
    return result


def run_steering_policy_ablation(
    settings: ExperimentSettings,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> AblationResult:
    """Compare steering policies on the baseline (temperature and IPC)."""
    policies = (SteeringPolicy.DEPENDENCE, SteeringPolicy.LOAD_BALANCE, SteeringPolicy.ROUND_ROBIN)
    labelled = [
        (
            policy.value,
            ConfigBuilder.baseline()
            .steering(policy)
            .named(f"steer_{policy.value}")
            .build(),
        )
        for policy in policies
    ]
    outcome = _run_sweep(
        "steering-policy", labelled, settings, executor, cache, include_baseline=False
    )
    result = AblationResult(name="steering policy")
    # Slowdowns are reported against the paper's default policy (the first).
    reference = outcome.summaries[labelled[0][1].name]
    for label, config in labelled:
        summary = outcome.summaries[config.name]
        copies = sum(
            r.stats.copy_uops_generated for r in summary.results.values()
        ) / len(summary.results)
        result.rows[label] = {
            "IPC": summary.mean_ipc(),
            "Frontend Average (C)": summary.mean_metric("Frontend", "Average"),
            "Backend Average (C)": summary.mean_metric("Backend", "Average"),
            "copies per benchmark": copies,
            "slowdown vs dependence": summary.mean_slowdown_vs(reference),
        }
    return result
