"""Figure 13: sub-banked thermal-aware trace cache.

The paper compares four trace-cache organizations against the baseline
two-banked cache with a balanced mapping function:

* **Address Biasing** — the thermal-aware biased mapping function alone;
* **Blank silicon** — three banks with one statically gated;
* **Bank Hopping** — three banks, one Vdd-gated in rotation;
* **Bank Hopping + Address Biasing** — both mechanisms combined.

For each it reports the reduction of the reorder-buffer, rename-table and
trace-cache temperature increases over ambient (AbsMax / Average / AvgMax)
and the slowdown.  Section 4.2 also quotes a trace-cache hit-ratio loss below
1% from hopping and a 1.6% processor-area overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.campaign import Campaign, Executor, ResultCache, run_campaign
from repro.core.presets import (
    address_biasing_config,
    bank_hopping_biasing_config,
    bank_hopping_config,
    baseline_config,
    blank_silicon_config,
)
from repro.experiments.reporting import (
    configurations_payload,
    format_key_values,
    format_percentage_table,
    settings_figure,
)
from repro.campaign import ConfigurationSummary, ExperimentSettings
from repro.sim.results import METRIC_NAMES

FIGURE13_GROUPS = ("ReorderBuffer", "RenameTable", "TraceCache")

#: Approximate values read off Figure 13 (fractional reductions) for the two
#: headline configurations, plus the numbers quoted in the text.
PAPER_FIGURE13 = {
    "Address Biasing": {
        "TraceCache": {"AbsMax": 0.04, "Average": 0.01, "AvgMax": 0.03},
    },
    "Bank Hopping": {
        "TraceCache": {"AbsMax": 0.12, "Average": 0.17, "AvgMax": 0.15},
        "RenameTable": {"AbsMax": 0.16, "Average": 0.15, "AvgMax": 0.15},
    },
    "Bank Hopping + Address Biasing": {
        "TraceCache": {"AbsMax": 0.14, "Average": 0.18, "AvgMax": 0.17},
    },
}
PAPER_SLOWDOWNS = {
    "Address Biasing": 0.02,
    "Blank silicon": 0.0,
    "Bank Hopping": 0.03,
    "Bank Hopping + Address Biasing": 0.04,
}
PAPER_HIT_RATIO_LOSS = 0.01
PAPER_AREA_OVERHEAD = 0.016

#: Display label of each evaluated configuration, keyed by preset name.
CONFIG_LABELS = {
    "address_biasing": "Address Biasing",
    "blank_silicon": "Blank silicon",
    "bank_hopping": "Bank Hopping",
    "hopping_biasing": "Bank Hopping + Address Biasing",
}


@dataclass
class Figure13Result:
    """Measured reductions and slowdowns of the four trace-cache techniques."""

    baseline: ConfigurationSummary
    summaries: Dict[str, ConfigurationSummary] = field(default_factory=dict)
    #: reductions[label][group][metric]
    reductions: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    slowdowns: Dict[str, float] = field(default_factory=dict)
    hit_ratio_loss: Dict[str, float] = field(default_factory=dict)
    area_overhead: Dict[str, float] = field(default_factory=dict)

    def format_table(self) -> str:
        sections = []
        for label, groups in self.reductions.items():
            sections.append(
                format_percentage_table(
                    f"Figure 13 [{label}]: reduction of the temperature increase "
                    "over ambient",
                    groups,
                    columns=METRIC_NAMES,
                    paper_reference=PAPER_FIGURE13.get(label, {}),
                )
            )
            sections.append(
                format_key_values(
                    f"{label}: derived quantities",
                    {
                        f"slowdown (paper {PAPER_SLOWDOWNS[label] * 100:.0f}%)":
                            f"{self.slowdowns[label] * 100:.1f}%",
                        "trace-cache hit-ratio loss (paper <1%)":
                            f"{self.hit_ratio_loss[label] * 100:.2f}%",
                        "processor area overhead (paper 1.6%)":
                            f"{self.area_overhead[label] * 100:.1f}%",
                    },
                )
            )
        return "\n\n".join(sections)

    def payload(self) -> Dict[str, object]:
        return configurations_payload(self.baseline, *self.summaries.values())

    def hopping_beats_blank_silicon(self) -> bool:
        """Paper claim: the proposed techniques outperform the blank-silicon option."""
        hopping = self.reductions["Bank Hopping"]["TraceCache"]
        blank = self.reductions["Blank silicon"]["TraceCache"]
        return hopping["AvgMax"] >= blank["AvgMax"]


def run_fig13(
    settings: ExperimentSettings,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> Figure13Result:
    """Simulate the baseline and the four trace-cache configurations."""
    configs = [
        address_biasing_config(),
        blank_silicon_config(),
        bank_hopping_config(),
        bank_hopping_biasing_config(),
    ]
    campaign = Campaign([baseline_config()] + configs, settings, name="fig13")
    outcome = run_campaign(campaign, executor, cache)
    baseline = outcome.summaries["baseline"]
    result = Figure13Result(baseline=baseline)
    base_hit_rate = baseline.mean_trace_cache_hit_rate()
    base_area = baseline.group_area_mm2("Processor")
    for config in configs:
        label = CONFIG_LABELS[config.name]
        summary = outcome.summaries[config.name]
        result.summaries[label] = summary
        result.reductions[label] = {
            group: summary.mean_reductions_vs(baseline, group)
            for group in FIGURE13_GROUPS
        }
        result.slowdowns[label] = summary.mean_slowdown_vs(baseline)
        result.hit_ratio_loss[label] = base_hit_rate - summary.mean_trace_cache_hit_rate()
        result.area_overhead[label] = (
            summary.group_area_mm2("Processor") - base_area
        ) / base_area
    return result


FIGURE = settings_figure("fig13", run_fig13)
