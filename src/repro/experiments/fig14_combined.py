"""Figure 14: the complete distributed frontend.

The paper combines the distributed rename/commit mechanism with the
thermal-aware, bank-hopping trace cache and compares the combination against
each individual technique.  The combination reduces the reorder-buffer,
rename-table and trace-cache temperature increases over ambient by roughly
35%, 32% and 25% respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.campaign import Campaign, Executor, ResultCache, run_campaign
from repro.core.presets import (
    bank_hopping_biasing_config,
    baseline_config,
    distributed_frontend_config,
    distributed_rename_commit_config,
)
from repro.experiments.reporting import (
    configurations_payload,
    format_key_values,
    format_percentage_table,
    settings_figure,
)
from repro.campaign import ConfigurationSummary, ExperimentSettings
from repro.sim.results import METRIC_NAMES

FIGURE14_GROUPS = ("ReorderBuffer", "RenameTable", "TraceCache")

CONFIG_LABELS = {
    "hopping_biasing": "Bank Hopping + Address Biasing",
    "distributed_rc": "Distributed Rename and Commit",
    "distributed_frontend": "Distributed Rename and Commit + Bank Hopping + Address Biasing",
}

#: Paper values for the combined configuration (Section 4.3 / conclusions).
PAPER_COMBINED = {
    "ReorderBuffer": {"AbsMax": 0.35, "Average": 0.35, "AvgMax": 0.35},
    "RenameTable": {"AbsMax": 0.32, "Average": 0.32, "AvgMax": 0.32},
    "TraceCache": {"AbsMax": 0.25, "Average": 0.25, "AvgMax": 0.25},
}


@dataclass
class Figure14Result:
    """Measured reductions for the combined frontend and its components."""

    baseline: ConfigurationSummary
    summaries: Dict[str, ConfigurationSummary] = field(default_factory=dict)
    reductions: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    slowdowns: Dict[str, float] = field(default_factory=dict)

    def format_table(self) -> str:
        sections = []
        for label, groups in self.reductions.items():
            reference = PAPER_COMBINED if label == CONFIG_LABELS["distributed_frontend"] else {}
            sections.append(
                format_percentage_table(
                    f"Figure 14 [{label}]: reduction of the temperature increase "
                    "over ambient",
                    groups,
                    columns=METRIC_NAMES,
                    paper_reference=reference,
                )
            )
        sections.append(
            format_key_values(
                "Slowdowns",
                {label: f"{value * 100:.1f}%" for label, value in self.slowdowns.items()},
            )
        )
        return "\n\n".join(sections)

    def payload(self) -> Dict[str, object]:
        return configurations_payload(self.baseline, *self.summaries.values())

    def combination_is_synergistic(self) -> bool:
        """The combined frontend should beat each individual technique on its
        own target structure (ROB/RAT for distribution, TC for hopping)."""
        combined = self.reductions[CONFIG_LABELS["distributed_frontend"]]
        hopping = self.reductions[CONFIG_LABELS["hopping_biasing"]]
        distributed = self.reductions[CONFIG_LABELS["distributed_rc"]]
        return (
            combined["TraceCache"]["Average"] >= distributed["TraceCache"]["Average"]
            and combined["ReorderBuffer"]["Average"] >= hopping["ReorderBuffer"]["Average"]
        )


def run_fig14(
    settings: ExperimentSettings,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> Figure14Result:
    """Simulate the combined distributed frontend and its two components."""
    configs = [
        bank_hopping_biasing_config(),
        distributed_rename_commit_config(),
        distributed_frontend_config(),
    ]
    campaign = Campaign([baseline_config()] + configs, settings, name="fig14")
    outcome = run_campaign(campaign, executor, cache)
    baseline = outcome.summaries["baseline"]
    result = Figure14Result(baseline=baseline)
    for config in configs:
        label = CONFIG_LABELS[config.name]
        summary = outcome.summaries[config.name]
        result.summaries[label] = summary
        result.reductions[label] = {
            group: summary.mean_reductions_vs(baseline, group)
            for group in FIGURE14_GROUPS
        }
        result.slowdowns[label] = summary.mean_slowdown_vs(baseline)
    return result


FIGURE = settings_figure("fig14", run_fig14)
