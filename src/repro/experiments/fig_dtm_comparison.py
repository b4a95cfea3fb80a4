"""DTM comparison: policy x scenario sweep of the thermal-management space.

The paper evaluates *layout* responses to heat; this driver evaluates the
*control* responses built in :mod:`repro.dtm` over the scenario library
(:mod:`repro.scenarios`), producing the classic DTM trade-off table: how
much peak temperature each policy buys, and how much performance it costs.

One declarative :class:`~repro.campaign.Campaign` with a DTM policy axis
covers the whole grid — by default 5 policies x 11 scenarios = 55 cells —
so the sweep parallelizes (``executor=``) and caches (``cache=``) like any
other campaign.  Exposed on the CLI as ``repro-campaign run --figure dtm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.campaign import Campaign, Executor, ResultCache, run_campaign
from repro.campaign.spec import ExperimentSettings, variant_name
from repro.campaign.summary import ConfigurationSummary
from repro.core.presets import bank_hopping_biasing_config
from repro.experiments.reporting import Figure, format_value_table, single_config
from repro.scenarios import SCENARIO_NAMES
from repro.sim.config import ProcessorConfig

#: The default policy axis: the no-op baseline plus the four mechanisms.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "none",
    "fetch_throttle",
    "clock_gate",
    "dvfs",
    "hybrid",
)


def dtm_settings(
    scenarios: Optional[Sequence[str]] = None,
    uops_per_scenario: int = 8_000,
    seed: int = 7,
) -> ExperimentSettings:
    """Experiment settings for a DTM sweep over the scenario library.

    Scenario traces ignore the SPEC relative-length table (every scenario
    runs its full ``uops_per_scenario`` micro-ops), and the scale defaults
    to 8 000 micro-ops so each run spans enough thermal intervals for a
    reactive policy's trigger/hysteresis loop to matter.
    """
    return ExperimentSettings(
        benchmarks=tuple(scenarios if scenarios is not None else SCENARIO_NAMES),
        uops_per_benchmark=uops_per_scenario,
        seed=seed,
        honor_relative_length=False,
    )


@dataclass
class DTMComparisonResult:
    """Per-policy aggregates of one policy x scenario sweep.

    ``summaries`` is keyed by policy spec string (the campaign variant name
    minus the shared configuration prefix); ``baseline_policy`` names the
    summary the trade-off columns compare against (normally ``"none"``).
    """

    config_name: str
    baseline_policy: str
    summaries: Dict[str, ConfigurationSummary] = field(default_factory=dict)

    def policy_names(self) -> Tuple[str, ...]:
        return tuple(self.summaries)

    @property
    def baseline(self) -> ConfigurationSummary:
        return self.summaries[self.baseline_policy]

    # ------------------------------------------------------------------
    def peak_reduction(self, policy: str) -> float:
        """Mean reduction of the Processor AbsMax increase over ambient.

        Fractional, the paper's reporting style: 0.06 means the peak
        temperature increase over the 45 C ambient is 6% lower than under
        ``baseline_policy``.
        """
        ours = self.summaries[policy].mean_metric("Processor", "AbsMax")
        base = self.baseline.mean_metric("Processor", "AbsMax")
        return (base - ours) / base if base > 0 else 0.0

    def performance_loss(self, policy: str) -> float:
        """Mean wall-clock-time increase versus ``baseline_policy`` (fraction)."""
        return self.summaries[policy].mean_time_slowdown_vs(self.baseline)

    def performance_loss_vs_peak_temp(self) -> Dict[str, Dict[str, float]]:
        """The DTM trade-off: per policy, what peak reduction costs in time.

        Returns ``{policy: {"peak_reduction": ..., "performance_loss": ...,
        "peak_celsius_over_ambient": ...}}`` — the (x, y) pairs of the
        classic DTM Pareto plot, plus the absolute peak for reference.
        """
        return {
            policy: {
                "peak_reduction": self.peak_reduction(policy),
                "performance_loss": self.performance_loss(policy),
                "peak_celsius_over_ambient": summary.mean_metric(
                    "Processor", "AbsMax"
                ),
            }
            for policy, summary in self.summaries.items()
        }

    # ------------------------------------------------------------------
    def format_table(self) -> str:
        rows: Dict[str, Dict[str, float]] = {}
        for policy, summary in self.summaries.items():
            rows[policy] = {
                "Peak dT (C)": summary.mean_metric("Processor", "AbsMax"),
                "AvgMax dT (C)": summary.mean_metric("Processor", "AvgMax"),
                "peak red. %": self.peak_reduction(policy) * 100.0,
                "perf loss %": self.performance_loss(policy) * 100.0,
                "throttle %": summary.mean_dtm("throttle_ratio") * 100.0,
                "gated/run": summary.mean_dtm("gated_intervals"),
                "mean f/f0": summary.mean_dtm("mean_freq_ratio", default=1.0),
            }
        return format_value_table(
            f"DTM policy comparison on '{self.config_name}' "
            f"(means over {len(self.baseline.results)} scenarios; "
            "temperature increases over 45 C ambient)",
            rows,
            columns=(
                "Peak dT (C)",
                "AvgMax dT (C)",
                "peak red. %",
                "perf loss %",
                "throttle %",
                "gated/run",
                "mean f/f0",
            ),
            precision=2,
        )

    def payload(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "performance_loss_vs_peak_temp": self.performance_loss_vs_peak_temp(),
            "policies": {
                policy: summary.payload() for policy, summary in self.summaries.items()
            },
        }


def run_dtm_comparison(
    settings: Optional[ExperimentSettings] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    config: Optional[ProcessorConfig] = None,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> DTMComparisonResult:
    """Run the policy x scenario grid and aggregate per policy.

    ``settings`` defaults to :func:`dtm_settings` (all scenarios); pass one
    with SPEC benchmark names to sweep policies over the paper's workloads
    instead.  ``config`` defaults to the ``hopping_biasing`` preset so the
    hybrid policy actually layers on the paper's thermal-aware mapping and
    bank hopping.  The first policy is the comparison baseline; include
    ``"none"`` first (the default) for the conventional no-DTM reference.
    """
    if settings is None:
        settings = dtm_settings()
    if config is None:
        config = bank_hopping_biasing_config()
    policies = tuple(policies)
    if not policies:
        raise ValueError("at least one DTM policy is required")
    campaign = Campaign(
        (config,),
        settings,
        name="dtm_comparison",
        dtm_policies=policies,
    )
    outcome = run_campaign(campaign, executor, cache)
    result = DTMComparisonResult(
        config_name=config.name, baseline_policy=policies[0]
    )
    for policy in policies:
        result.summaries[policy] = outcome.summaries[variant_name(config.name, policy)]
    return result


def _run_from_payload(payload, executor, cache) -> DTMComparisonResult:
    from repro.service.codec import benchmarks_from

    benchmarks = payload.get("benchmarks")
    settings = dtm_settings(
        scenarios=benchmarks_from(benchmarks) if benchmarks else None,
        uops_per_scenario=payload.get("uops", 8_000),
        seed=payload.get("seed", 7),
    )
    return run_dtm_comparison(
        settings,
        policies=payload.get("dtm_policies") or DEFAULT_POLICIES,
        config=single_config(payload, "dtm"),
        executor=executor,
        cache=cache,
    )


FIGURE = Figure(
    "dtm", ("configs", "benchmarks", "uops", "seed", "dtm"), _run_from_payload
)
