"""Figure 1: temperature of the different processor elements (baseline).

The paper's Figure 1 shows the peak and average temperature increase over
ambient of the whole processor, the frontend, the backend and the UL2, for
the baseline clustered architecture averaged over the 26 SPEC2000
applications.  The frontend exhibits some of the highest temperatures
(about 62 C over ambient at the peak, 25 C on average in the paper), which is
the motivation for distributing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.campaign import Campaign, Executor, ResultCache, run_campaign
from repro.core.presets import baseline_config
from repro.experiments.reporting import (
    configurations_payload,
    format_value_table,
    settings_figure,
)
from repro.campaign import ConfigurationSummary, ExperimentSettings

#: Approximate values read off the paper's Figure 1 (increase over ambient, C).
PAPER_FIGURE1 = {
    "Processor": {"Peak": 62.0, "Average": 26.0},
    "Frontend": {"Peak": 62.0, "Average": 25.0},
    "Backend": {"Peak": 53.0, "Average": 24.0},
    "UL2": {"Peak": 23.0, "Average": 18.0},
}

#: The element groups of Figure 1, in the paper's order.
FIGURE1_GROUPS = ("Processor", "Frontend", "Backend", "UL2")


@dataclass
class Figure1Result:
    """Measured peak/average temperature increase over ambient per element."""

    summary: ConfigurationSummary
    values: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format_table(self) -> str:
        rows = {}
        for group in FIGURE1_GROUPS:
            rows[group] = {
                "Peak (C)": self.values[group]["Peak"],
                "paper Peak": PAPER_FIGURE1[group]["Peak"],
                "Average (C)": self.values[group]["Average"],
                "paper Avg": PAPER_FIGURE1[group]["Average"],
            }
        return format_value_table(
            "Figure 1: temperature increase over ambient (45 C), baseline",
            rows,
            columns=("Peak (C)", "paper Peak", "Average (C)", "paper Avg"),
        )

    def payload(self) -> Dict[str, object]:
        return configurations_payload(self.summary)

    def frontend_is_hottest_element(self) -> bool:
        """The paper's headline observation: the frontend runs hottest."""
        frontend = self.values["Frontend"]["Peak"]
        return frontend >= self.values["Backend"]["Peak"] and frontend >= self.values["UL2"]["Peak"]


def run_fig01(
    settings: ExperimentSettings,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> Figure1Result:
    """Simulate the baseline and compute the Figure 1 groups."""
    campaign = Campaign.single(baseline_config(), settings, name="fig01")
    summary = run_campaign(campaign, executor, cache).summaries["baseline"]
    values: Dict[str, Dict[str, float]] = {}
    for group in FIGURE1_GROUPS:
        metrics = summary.mean_metrics(group)
        values[group] = {
            # Figure 1 reports the peak (AbsMax) and the time-and-space
            # average, both as increases over the 45 C ambient.
            "Peak": metrics["AbsMax"],
            "Average": metrics["Average"],
        }
    return Figure1Result(summary=summary, values=values)


FIGURE = settings_figure("fig01", run_fig01)
