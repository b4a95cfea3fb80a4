"""Experiment drivers that regenerate every figure of the paper's evaluation.

Each ``figXX_*`` module exposes a ``run_*`` function that simulates the
required configurations over a set of SPEC2000-like workloads and returns a
structured result with a ``format_table()`` method printing the same rows the
paper's figure reports, next to the paper's reference values.

Each figure module also declares its ``FIGURE``
(:class:`~repro.experiments.reporting.Figure`): its name, the ``run`` flags
it reads and how it runs from a campaign payload.  :data:`FIGURES` collects
them; ``repro-campaign run --figure NAME`` dispatches over it and writes
each result's ``payload()``.

Every driver runs through the declarative :mod:`repro.campaign` layer: it
builds one :class:`~repro.campaign.Campaign` for all of its configurations
and accepts optional ``executor`` (serial or process-pool) and ``cache``
(content-keyed on-disk result cache) arguments, so figures can be
regenerated in parallel and re-runs skip simulation entirely.

The experiments are scaled down (shorter traces, proportionally shorter
thermal / hopping / remapping intervals) so they run in minutes of pure
Python; :func:`repro.campaign.builder.scale_paper_intervals` scales the
paper's 10 M-cycle intervals down with the traces.
"""

from repro.campaign import (
    ConfigurationSummary,
    ExperimentSettings,
    run_configuration,
    summarize,
    summarize_many,
)
from repro.experiments import (
    fig01_baseline_temperature,
    fig12_distributed_rename_commit,
    fig13_trace_cache,
    fig14_combined,
    fig_dtm_comparison,
    fig_multicore_scaling,
)
from repro.experiments.fig01_baseline_temperature import run_fig01, Figure1Result
from repro.experiments.fig12_distributed_rename_commit import run_fig12, Figure12Result
from repro.experiments.fig13_trace_cache import run_fig13, Figure13Result
from repro.experiments.fig14_combined import run_fig14, Figure14Result
from repro.experiments.fig_dtm_comparison import (
    DTMComparisonResult,
    dtm_settings,
    run_dtm_comparison,
)
from repro.experiments.fig_multicore_scaling import (
    MulticoreScalingResult,
    run_multicore_scaling,
)
from repro.experiments.floorplans import describe_floorplans, floorplan_report_for
from repro.experiments.reporting import Figure
from repro.experiments.ablations import (
    run_hop_interval_ablation,
    run_bias_threshold_ablation,
    run_partition_count_ablation,
    run_steering_policy_ablation,
)

#: The figures of ``repro-campaign run --figure``, by name.
FIGURES = {
    module.FIGURE.name: module.FIGURE
    for module in (
        fig01_baseline_temperature,
        fig12_distributed_rename_commit,
        fig13_trace_cache,
        fig14_combined,
        fig_dtm_comparison,
        fig_multicore_scaling,
    )
}

__all__ = [
    "FIGURES",
    "Figure",
    "ExperimentSettings",
    "ConfigurationSummary",
    "run_configuration",
    "summarize",
    "summarize_many",
    "run_fig01",
    "Figure1Result",
    "run_fig12",
    "Figure12Result",
    "run_fig13",
    "Figure13Result",
    "run_fig14",
    "Figure14Result",
    "run_dtm_comparison",
    "DTMComparisonResult",
    "dtm_settings",
    "run_multicore_scaling",
    "MulticoreScalingResult",
    "describe_floorplans",
    "floorplan_report_for",
    "run_hop_interval_ablation",
    "run_bias_threshold_ablation",
    "run_partition_count_ablation",
    "run_steering_policy_ablation",
]
