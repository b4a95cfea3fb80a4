"""Figure 12: temperature reduction of the distributed rename and commit.

The paper reports, averaged over the 26 SPEC2000 applications, the reduction
of the reorder buffer, rename table and trace cache temperatures (AbsMax,
Average and AvgMax, as reductions of the increase over ambient) obtained by
distributing the rename table and the reorder buffer over two frontend
partitions, together with the slowdown (2%), the processor-area overhead
(3%) and the reorder-buffer power reduction (11%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.campaign import Campaign, Executor, ResultCache, run_campaign
from repro.core.presets import baseline_config, distributed_rename_commit_config
from repro.experiments.reporting import (
    configurations_payload,
    format_key_values,
    format_percentage_table,
    settings_figure,
)
from repro.campaign import ConfigurationSummary, ExperimentSettings
from repro.sim.results import METRIC_NAMES

#: Approximate values read off Figure 12 of the paper (fractional reductions).
PAPER_FIGURE12 = {
    "ReorderBuffer": {"AbsMax": 0.32, "Average": 0.33, "AvgMax": 0.33},
    "RenameTable": {"AbsMax": 0.34, "Average": 0.35, "AvgMax": 0.35},
    "TraceCache": {"AbsMax": 0.10, "Average": 0.11, "AvgMax": 0.11},
}
PAPER_SLOWDOWN = 0.02
PAPER_AREA_OVERHEAD = 0.03
PAPER_ROB_POWER_REDUCTION = 0.11

FIGURE12_GROUPS = ("ReorderBuffer", "RenameTable", "TraceCache")


@dataclass
class Figure12Result:
    """Measured reductions, slowdown, power and area effects."""

    baseline: ConfigurationSummary
    distributed: ConfigurationSummary
    reductions: Dict[str, Dict[str, float]] = field(default_factory=dict)
    slowdown: float = 0.0
    rob_power_reduction: float = 0.0
    rat_power_reduction: float = 0.0
    area_overhead: float = 0.0

    def format_table(self) -> str:
        table = format_percentage_table(
            "Figure 12: distributed rename and commit, reduction of the "
            "temperature increase over ambient",
            self.reductions,
            columns=METRIC_NAMES,
            paper_reference=PAPER_FIGURE12,
        )
        extras = format_key_values(
            "Derived quantities (Section 4.1)",
            {
                "slowdown (paper 2%)": f"{self.slowdown * 100:.1f}%",
                "ROB power reduction (paper 11%)": f"{self.rob_power_reduction * 100:.1f}%",
                "RAT power reduction": f"{self.rat_power_reduction * 100:.1f}%",
                "processor area overhead (paper 3%)": f"{self.area_overhead * 100:.1f}%",
            },
        )
        return table + "\n\n" + extras

    def payload(self) -> Dict[str, object]:
        return configurations_payload(self.baseline, self.distributed)


def run_fig12(
    settings: ExperimentSettings,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> Figure12Result:
    """Simulate the baseline and the distributed rename/commit configuration."""
    campaign = Campaign(
        [baseline_config(), distributed_rename_commit_config()], settings, name="fig12"
    )
    outcome = run_campaign(campaign, executor, cache)
    baseline = outcome.summaries["baseline"]
    distributed = outcome.summaries["distributed_rc"]

    reductions = {
        group: distributed.mean_reductions_vs(baseline, group)
        for group in FIGURE12_GROUPS
    }
    rob_power_reduction = 1.0 - (
        distributed.mean_power("ReorderBuffer") / baseline.mean_power("ReorderBuffer")
    )
    rat_power_reduction = 1.0 - (
        distributed.mean_power("RenameTable") / baseline.mean_power("RenameTable")
    )
    area_overhead = (
        distributed.group_area_mm2("Processor") - baseline.group_area_mm2("Processor")
    ) / baseline.group_area_mm2("Processor")
    return Figure12Result(
        baseline=baseline,
        distributed=distributed,
        reductions=reductions,
        slowdown=distributed.mean_slowdown_vs(baseline),
        rob_power_reduction=rob_power_reduction,
        rat_power_reduction=rat_power_reduction,
        area_overhead=area_overhead,
    )


FIGURE = settings_figure("fig12", run_fig12)
