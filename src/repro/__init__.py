"""Reproduction of *Distributing the Frontend for Temperature Reduction* (HPCA 2005).

The package implements, from scratch, every system the paper's evaluation
depends on:

* a cycle-level timing simulator of a clustered microarchitecture with a
  trace-cache frontend (:mod:`repro.sim`, :mod:`repro.frontend`,
  :mod:`repro.backend`, :mod:`repro.memory`, :mod:`repro.interconnect`),
* a Wattch-style activity-based dynamic power model with temperature-dependent
  leakage (:mod:`repro.power`),
* a HotSpot-style dynamic compact thermal RC model with floorplans, heat
  spreader and heat sink (:mod:`repro.thermal`),
* synthetic SPEC2000-like workloads (:mod:`repro.workloads`), and
* the paper's contribution — the distributed frontend: distributed rename and
  commit, trace-cache bank hopping and the thermal-aware biased bank mapping
  function (:mod:`repro.core`).

Experiments are declared and executed through :mod:`repro.campaign`: a
:class:`Campaign` (configurations x benchmarks x an
:class:`ExperimentSettings` scale) expands into independent cells that run on
a pluggable executor — serially or across a persistent pool of worker
processes (:class:`ParallelExecutor`), under the timing and replay modes of
one :class:`ExecutionOptions` — with an optional content-keyed on-disk
:class:`ResultCache` so repeated runs skip simulation.  Ad-hoc configuration
variants are derived with the fluent :class:`ConfigBuilder`.  The figure
drivers in :mod:`repro.experiments` are thin layers over this API, and the
``repro-campaign`` console script exposes it from the shell.

Beyond the paper's layout techniques, :mod:`repro.dtm` adds the *control*
side of thermal management — sensor-triggered fetch throttling, stop-go
clock gating, per-cluster DVFS and a hybrid policy — swept over the named
workload scenarios of :mod:`repro.scenarios` via the campaign's
``dtm_policies`` axis (``repro-campaign run --figure dtm``).

:mod:`repro.chip` composes everything into chip multiprocessors: N per-core
timing stages over one composite-die physics stage (namespaced floorplan
composition, cross-core thermal coupling through the shared silicon,
spreader and sink), chip-level DTM (``core_migration``, ``chip_dvfs``), and
campaign ``cores`` / ``per_core_scenarios`` axes whose replay path reuses
cached *single-core* activity traces (``repro-campaign run --figure
multicore``).  The full documentation lives under ``docs/``.
"""

from repro.sim.config import ProcessorConfig
from repro.sim.processor import Processor
from repro.sim.results import SimulationResult
from repro.workloads.profiles import SPEC2000_PROFILES, WorkloadProfile
from repro.workloads.generator import TraceGenerator
from repro.core.presets import (
    FrontendOrganization,
    baseline_config,
    distributed_rename_commit_config,
    address_biasing_config,
    blank_silicon_config,
    bank_hopping_config,
    bank_hopping_biasing_config,
    distributed_frontend_config,
)
from repro.campaign import (
    Campaign,
    CampaignOutcome,
    ConfigBuilder,
    ConfigurationSummary,
    ExecutionOptions,
    ExperimentSettings,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    run_campaign,
)
from repro.dtm import (
    DTMPolicy,
    available_policies,
    make_policy,
)
from repro.chip import (
    ChipEngine,
    ChipRunSpec,
    available_chip_policies,
    make_chip_policy,
    replay_chip,
)
from repro.scenarios import SCENARIOS, SCENARIO_NAMES, Scenario, get_scenario

__version__ = "1.6.0"

__all__ = [
    "ProcessorConfig",
    "Processor",
    "SimulationResult",
    "WorkloadProfile",
    "SPEC2000_PROFILES",
    "TraceGenerator",
    "FrontendOrganization",
    "baseline_config",
    "distributed_rename_commit_config",
    "address_biasing_config",
    "blank_silicon_config",
    "bank_hopping_config",
    "bank_hopping_biasing_config",
    "distributed_frontend_config",
    "Campaign",
    "CampaignOutcome",
    "ConfigBuilder",
    "ConfigurationSummary",
    "ExecutionOptions",
    "ExperimentSettings",
    "ParallelExecutor",
    "ResultCache",
    "RunSpec",
    "SerialExecutor",
    "run_campaign",
    "DTMPolicy",
    "available_policies",
    "make_policy",
    "ChipEngine",
    "ChipRunSpec",
    "available_chip_policies",
    "make_chip_policy",
    "replay_chip",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "Scenario",
    "get_scenario",
    "__version__",
]
