"""Per-configuration aggregation of simulated results.

:class:`ConfigurationSummary` wraps the per-benchmark
:class:`~repro.sim.results.SimulationResult` objects of one configuration
and aggregates them the way the paper's figures do: averages over the
workloads of the temperature metrics, reductions versus a baseline, and
slowdowns.  It is produced by :func:`repro.campaign.core.run_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.results import METRIC_NAMES, SimulationResult

#: Block groups included in JSON summaries (the groups the paper reports on).
PAYLOAD_GROUPS = (
    "Processor",
    "Frontend",
    "Backend",
    "UL2",
    "ReorderBuffer",
    "RenameTable",
    "TraceCache",
)


@dataclass
class ConfigurationSummary:
    """Per-configuration aggregates over all simulated benchmarks."""

    config_name: str
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    def mean_metric(self, group: str, metric: str) -> float:
        """Average of a temperature metric (increase over ambient) over benchmarks."""
        values = [r.temperature_metrics(group)[metric] for r in self.results.values()]
        return sum(values) / len(values)

    def mean_metrics(self, group: str) -> Dict[str, float]:
        return {metric: self.mean_metric(group, metric) for metric in METRIC_NAMES}

    def mean_reductions_vs(
        self, baseline: "ConfigurationSummary", group: str
    ) -> Dict[str, float]:
        """Average per-benchmark fractional reductions versus a baseline."""
        reductions = {metric: [] for metric in METRIC_NAMES}
        for benchmark, result in self.results.items():
            base = baseline.results[benchmark]
            per_bench = result.temperature_reduction_vs(base, group)
            for metric in METRIC_NAMES:
                reductions[metric].append(per_bench[metric])
        return {
            metric: sum(values) / len(values) for metric, values in reductions.items()
        }

    def mean_slowdown_vs(self, baseline: "ConfigurationSummary") -> float:
        """Average per-benchmark execution-time increase versus a baseline."""
        slowdowns = [
            result.slowdown_vs(baseline.results[benchmark])
            for benchmark, result in self.results.items()
        ]
        return sum(slowdowns) / len(slowdowns)

    def mean_time_slowdown_vs(self, baseline: "ConfigurationSummary") -> float:
        """Average per-benchmark wall-clock-time increase versus a baseline.

        The DTM performance-loss metric (dimensionless fraction): unlike
        :meth:`mean_slowdown_vs` it also charges whole clock-gated
        intervals, which add wall-clock seconds but no cycles.
        """
        slowdowns = [
            result.time_slowdown_vs(baseline.results[benchmark])
            for benchmark, result in self.results.items()
        ]
        return sum(slowdowns) / len(slowdowns)

    def mean_dtm(self, key: str, default: float = 0.0) -> float:
        """Average of a numeric DTM telemetry field over benchmarks.

        ``key`` names a scalar field of ``SimulationResult.dtm`` (e.g.
        ``"throttle_ratio"``, ``"mean_freq_ratio"``, ``"gated_intervals"``);
        results without DTM telemetry contribute ``default``.
        """
        values = [
            float(r.dtm.get(key, default)) for r in self.results.values()
        ]
        return sum(values) / len(values)

    def mean_power(self, group: Optional[str] = None) -> float:
        """Average total power (W), optionally restricted to a block group."""
        if group is None:
            values = [r.average_power() for r in self.results.values()]
        else:
            values = [r.average_group_power(group) for r in self.results.values()]
        return sum(values) / len(values)

    def mean_ipc(self) -> float:
        return sum(r.stats.ipc for r in self.results.values()) / len(self.results)

    def mean_trace_cache_hit_rate(self) -> float:
        return sum(
            r.stats.trace_cache_hit_rate for r in self.results.values()
        ) / len(self.results)

    def group_area_mm2(self, group: str) -> float:
        """Area of a block group (identical across benchmarks)."""
        first = next(iter(self.results.values()))
        return first.group_area_mm2(group)

    def payload(self) -> Dict[str, object]:
        """JSON summary: per-workload means, and DTM telemetry when present."""
        payload: Dict[str, object] = {
            "benchmarks": sorted(self.results),
            "mean_ipc": self.mean_ipc(),
            "mean_power_watts": self.mean_power(),
            "mean_trace_cache_hit_rate": self.mean_trace_cache_hit_rate(),
            "temperature_metrics": {
                group: self.mean_metrics(group) for group in PAYLOAD_GROUPS
            },
        }
        if any(r.dtm for r in self.results.values()):
            payload["dtm"] = {
                "mean_throttle_ratio": self.mean_dtm("throttle_ratio"),
                "mean_gated_intervals": self.mean_dtm("gated_intervals"),
                "mean_freq_ratio": self.mean_dtm("mean_freq_ratio", default=1.0),
            }
        return payload
