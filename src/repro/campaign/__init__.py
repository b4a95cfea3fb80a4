"""Declarative experiment orchestration for the reproduction.

``repro.campaign`` is the public experiment API: declare *what* to simulate
(a :class:`Campaign`: configurations x benchmarks x an
:class:`ExperimentSettings` scale), pick *how* to run it (a
:class:`SerialExecutor`, or a :class:`ParallelExecutor` over a persistent
pool of worker processes, each holding the timing and replay modes as one
:class:`ExecutionOptions`), and optionally *where* to remember it (a
content-keyed :class:`ResultCache`), then call :func:`run_campaign`::

    from repro.campaign import (
        Campaign, ConfigBuilder, ExperimentSettings, ParallelExecutor,
        ResultCache, run_campaign,
    )

    campaign = Campaign(
        configs=[baseline_config(), distributed_frontend_config()],
        settings=ExperimentSettings.quick(),
    )
    with ParallelExecutor(jobs=4) as executor:
        outcome = run_campaign(
            campaign, executor=executor, cache=ResultCache("~/.cache/repro")
        )
    outcome.summaries["distributed_frontend"].mean_metrics("Frontend")

A campaign optionally sweeps a dynamic-thermal-management axis
(``Campaign(..., dtm_policies=("none", "dvfs", ...))``, see
:mod:`repro.dtm`): every (config, benchmark) cell is then simulated once per
policy and summaries are keyed ``"<config>@<policy>"``.

Campaigns execute through the engine's two-stage simulation core: cells
whose configurations differ only in physics-side parameters (package,
leakage, frequency — anything the timing model never reads) share one
:meth:`~repro.campaign.spec.RunSpec.timing_key`, capture the per-uop timing
simulation once as an :class:`~repro.sim.activity_trace.ActivityTrace`
(stored as a content-keyed artifact in the :class:`ResultCache`) and replay
the array-backed physics stage over it — bit-identical to the coupled run.
Cells with temperature-into-timing feedback (thermal-aware mapping,
feedback-bearing DTM policies) are detected automatically and simulated
coupled.

Every figure driver in :mod:`repro.experiments`, the ``repro-campaign`` CLI
and the benchmark harness run through this layer; the single-configuration
helpers :func:`run_configuration`/:func:`summarize`/:func:`summarize_many`
are conveniences over it.
"""

from repro.campaign.builder import ConfigBuilder, scale_paper_intervals
from repro.campaign.cache import ResultCache
from repro.campaign.core import (
    CampaignOutcome,
    run_campaign,
    run_configuration,
    summarize,
    summarize_many,
)
from repro.campaign.executors import (
    Executor,
    ExecutorTaskError,
    ParallelExecutor,
    SerialExecutor,
    execute_cell,
    execute_cell_capture,
    execute_replay_group,
    make_executor,
)
from repro.campaign.spec import (
    QUICK_BENCHMARKS,
    Campaign,
    ExecutionOptions,
    ExperimentSettings,
    RunSpec,
    available_benchmarks,
)
from repro.campaign.summary import ConfigurationSummary

__all__ = [
    "Campaign",
    "CampaignOutcome",
    "ConfigBuilder",
    "ConfigurationSummary",
    "ExecutionOptions",
    "Executor",
    "ExecutorTaskError",
    "ExperimentSettings",
    "ParallelExecutor",
    "QUICK_BENCHMARKS",
    "ResultCache",
    "RunSpec",
    "SerialExecutor",
    "available_benchmarks",
    "execute_cell",
    "execute_cell_capture",
    "execute_replay_group",
    "make_executor",
    "run_campaign",
    "run_configuration",
    "scale_paper_intervals",
    "summarize",
    "summarize_many",
]
