"""Declarative experiment specifications.

The paper's evaluation is a grid: ~8 frontend configurations x 26 SPEC2000
workloads x ablation sweeps.  A :class:`Campaign` describes one such grid
declaratively — a set of configurations, a set of benchmarks and an
:class:`ExperimentSettings` scale — and expands it into independent
:class:`RunSpec` cells.  Each cell carries everything needed to simulate it
in isolation (configuration, benchmark, trace length, interval, seed), which
is what makes the pluggable executors in :mod:`repro.campaign.executors`
free to run cells serially, in a process pool, or — later — on remote
shards, while the content-derived :meth:`RunSpec.cache_key` lets the result
cache recognise already-simulated cells across runs.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.campaign.builder import scale_paper_intervals
from repro.sim.activity_trace import timing_feedback_reason
from repro.sim.config import ProcessorConfig
from repro.sim.serialization import content_key
from repro.workloads.profiles import SPEC2000_PROFILES, get_profile

#: Sections of :meth:`ProcessorConfig.to_dict` that the timing stage never
#: reads.  Everything else — pipeline widths, steering, clustering, caches,
#: the trace-cache banking/hopping knobs — shapes the instruction stream and
#: therefore participates in :meth:`RunSpec.timing_key`.  The thermal
#: section's one timing-relevant value (``interval_cycles``) is keyed
#: explicitly through :attr:`RunSpec.interval_cycles`.
PHYSICS_CONFIG_SECTIONS = ("power", "thermal")

#: A representative subset used by the quick settings: mixes integer and FP,
#: small and large working sets, high and low branch predictability.
QUICK_BENCHMARKS: Tuple[str, ...] = ("gzip", "gcc", "mcf", "crafty", "swim", "equake", "mesa", "lucas")


def available_benchmarks() -> Tuple[str, ...]:
    """Names of every synthetic SPEC2000-like workload, in profile order."""
    return tuple(SPEC2000_PROFILES)


@dataclass(frozen=True)
class ExperimentSettings:
    """Controls the scale of an experiment run.

    The paper simulates 200 M-instruction slices and updates temperature
    every 10 M cycles; the reproduction scales both down together so each run
    still spans a comparable number of thermal intervals (each representing
    the same 1 ms of heating).
    """

    benchmarks: Tuple[str, ...] = tuple(SPEC2000_PROFILES)
    uops_per_benchmark: int = 8_000
    #: Thermal / hop / remap interval in cycles.  ``None`` derives it from the
    #: trace length so that every run spans roughly ``target_intervals``.
    interval_cycles: Optional[int] = None
    target_intervals: int = 25
    seed: int = 1
    honor_relative_length: bool = True

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("at least one benchmark is required")
        if self.uops_per_benchmark <= 0:
            raise ValueError("uops_per_benchmark must be positive")
        if self.target_intervals <= 0:
            raise ValueError("target_intervals must be positive")
        for name in self.benchmarks:
            get_profile(name)  # raises KeyError for unknown benchmarks

    @classmethod
    def full(cls) -> "ExperimentSettings":
        """All 26 SPEC2000 workloads at the default scaled-down length."""
        return cls()

    @classmethod
    def quick(cls, uops_per_benchmark: int = 6_000) -> "ExperimentSettings":
        """A representative 8-benchmark subset (used by the benchmark harness)."""
        return cls(benchmarks=QUICK_BENCHMARKS, uops_per_benchmark=uops_per_benchmark)

    @classmethod
    def smoke(cls) -> "ExperimentSettings":
        """Tiny two-benchmark run used by the integration tests."""
        return cls(benchmarks=("gzip", "swim"), uops_per_benchmark=3_000)

    def with_benchmarks(self, benchmarks: Iterable[str]) -> "ExperimentSettings":
        return replace(self, benchmarks=tuple(benchmarks))

    def resolved_interval_cycles(self) -> int:
        """Interval length in cycles, derived from the trace length if unset.

        The floor of 800 cycles keeps the bank-hop period large compared to
        the time the trace cache needs to refill a flushed bank; hopping at a
        much finer grain than the paper's 10 M cycles would otherwise turn
        every hop into a hit-rate cliff that the paper's configuration never
        experiences.
        """
        if self.interval_cycles is not None:
            return self.interval_cycles
        # Assume roughly one committed micro-op per cycle when sizing the
        # interval; the exact IPC does not matter, only that every run spans
        # a few tens of intervals.
        return max(800, self.uops_per_benchmark // self.target_intervals)

    def trace_length(self, benchmark: str) -> int:
        """Micro-ops generated for ``benchmark`` at this scale."""
        length = self.uops_per_benchmark
        if self.honor_relative_length:
            profile = get_profile(benchmark)
            length = max(500, int(round(length * profile.relative_length)))
        return length


def _jsonable(value):
    """Recursively convert a value into canonical JSON-serializable form.

    A dataclass instance converts field by field to the same form as its
    :func:`dataclasses.asdict` would, without ``asdict``'s deep copies.
    """
    if type(value) in _PLAIN_TYPES:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {name: _jsonable(getattr(value, name)) for name in _field_names(type(value))}
    return value


#: Values :func:`_jsonable` returns as they are (exact types, not subclasses).
_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _field_names(cls) -> Tuple[str, ...]:
    return tuple(field.name for field in fields(cls))


@dataclass(frozen=True)
class ExecutionOptions:
    """How a campaign's cells execute — never what they compute.

    ``timing_mode`` selects the engines' timing path (``"auto"``,
    ``"fast"`` or ``"reference"``; the fast path is byte-identical to the
    per-uop reference wherever ``auto`` takes it) and ``replay_mode`` how a
    replay group's physics is computed (``"exact"`` per cell or
    ``"batched"`` multi-RHS; see :mod:`repro.sim.group_replay` — batched
    results match exact ones within rtol/atol 1e-8).  An executor holds one
    instance; :func:`~repro.campaign.core.run_campaign` stamps it onto every
    cell it dispatches and echoes it in ``CampaignOutcome.runtime["options"]``.  The options never enter a
    cache key or a result's provenance, so a cell keeps one identity
    across modes.
    """

    timing_mode: str = "auto"
    replay_mode: str = "exact"

    def __post_init__(self) -> None:
        from repro.sim.group_replay import validate_replay_mode
        from repro.sim.stages import TIMING_MODES

        if self.timing_mode not in TIMING_MODES:
            raise ValueError(
                f"timing_mode must be one of {', '.join(TIMING_MODES)}, "
                f"not {self.timing_mode!r}"
            )
        object.__setattr__(self, "replay_mode", validate_replay_mode(self.replay_mode))

    def to_dict(self) -> Dict[str, str]:
        return {"timing_mode": self.timing_mode, "replay_mode": self.replay_mode}


def variant_name(config_name: str, dtm_policy: Optional[str]) -> str:
    """Canonical name of a (configuration, DTM policy) combination.

    The key of :attr:`CampaignOutcome.summaries`: the plain configuration
    name for cells without a policy (so pre-DTM campaigns key exactly as
    before), ``"<config>@<policy>"`` otherwise.  Defined once here —
    :attr:`RunSpec.variant`, :meth:`Campaign.variant_names` and the DTM
    comparison driver all go through it.
    """
    if dtm_policy is None:
        return config_name
    return f"{config_name}@{dtm_policy}"


@dataclass(frozen=True)
class RunSpec:
    """One independent cell of a campaign: a (config, benchmark) simulation.

    The configuration stored here is the *scaled* one (intervals already
    reduced to the experiment scale), so executing a cell needs no further
    context — any executor on any host produces the same result from the
    same spec, and the cell's identity can be hashed for the result cache.

    ``dtm_policy`` optionally names a dynamic-thermal-management policy
    (a :func:`repro.dtm.make_policy` spec string such as ``"dvfs"`` or
    ``"fetch_throttle:trigger=80"``) instantiated fresh inside the executing
    process; ``None`` (the default) simulates without DTM, exactly as before
    the policy axis existed.

    ``options`` are the :class:`ExecutionOptions` the cell runs under —
    how, not what: they are deliberately excluded from :meth:`key_material`
    / :meth:`timing_key_material` / :meth:`provenance`, so cells keep one
    cache identity across modes.
    """

    config: ProcessorConfig
    benchmark: str
    trace_uops: int
    interval_cycles: int
    seed: int
    dtm_policy: Optional[str] = None
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    @property
    def variant(self) -> str:
        """Name of this cell's (configuration, DTM policy) combination.

        See :func:`variant_name` — the key of
        :attr:`CampaignOutcome.summaries`.
        """
        return variant_name(self.config.name, self.dtm_policy)

    def provenance(self) -> Dict[str, object]:
        """Settings provenance recorded into the produced result."""
        provenance: Dict[str, object] = {
            "benchmark": self.benchmark,
            "trace_uops": self.trace_uops,
            "interval_cycles": self.interval_cycles,
            "seed": self.seed,
        }
        if self.dtm_policy is not None:
            provenance["dtm_policy"] = self.dtm_policy
        return provenance

    def key_material(self) -> Dict[str, object]:
        """The canonical content this cell is identified by.

        The DTM policy only enters the material when set, so every cache key
        minted before the policy axis existed still matches its cell.
        """
        material: Dict[str, object] = {
            "config": _jsonable(self.config),
            "benchmark": self.benchmark,
            "trace_uops": self.trace_uops,
            "interval_cycles": self.interval_cycles,
            "seed": self.seed,
        }
        if self.dtm_policy is not None:
            material["dtm_policy"] = self.dtm_policy
        return material

    def cache_key(self) -> str:
        """Stable content hash identifying this cell across processes/runs."""
        return content_key(self.key_material())

    # ------------------------------------------------------------------
    # Two-stage execution: the timing-relevant projection of a cell
    # ------------------------------------------------------------------
    def core_specs(self) -> Tuple["RunSpec", ...]:
        """The single-core timing runs this cell is composed of: itself.

        A single-core cell is the one-thread layout of a chip cell (see
        :meth:`repro.chip.ChipRunSpec.core_specs`), so the campaign plan
        treats both alike.
        """
        return (self,)

    def replay_reason(self) -> Optional[str]:
        """Why this cell must be simulated coupled (``None`` = replayable).

        Mirrors the engine's capture guard
        (:func:`repro.sim.activity_trace.timing_feedback_reason`):
        thermal-aware bank mapping and feedback-bearing DTM policies couple
        temperatures into timing, so their activity trace is a function of
        the physics parameters and cannot be shared across a sweep.
        """
        return timing_feedback_reason(self.config, self.dtm_policy)

    @property
    def replayable(self) -> bool:
        """Whether the cell's physics can be replayed over a shared trace."""
        return self.replay_reason() is None

    def timing_key_material(self) -> Dict[str, object]:
        """The timing-relevant subset of :meth:`key_material`.

        Two specs with equal material here produce *byte-identical*
        activity traces: the timing stage never reads the ``power`` /
        ``thermal`` config sections (nor the configuration's display name),
        and a non-feedback DTM policy never perturbs timing — so the DTM
        axis is deliberately absent (cells with ``dtm_policy=None`` and
        ``"none"`` share one trace; feedback-bearing policies never get
        here, they are excluded by :meth:`replay_reason`).
        """
        config = _jsonable(self.config)
        timing_config = {
            key: value
            for key, value in config.items()
            if key not in PHYSICS_CONFIG_SECTIONS and key != "name"
        }
        return {
            "config": timing_config,
            "benchmark": self.benchmark,
            "trace_uops": self.trace_uops,
            "interval_cycles": self.interval_cycles,
            "seed": self.seed,
        }

    def timing_key(self) -> str:
        """Content hash of the timing-relevant projection of this cell.

        Cells sharing a timing key capture one
        :class:`~repro.sim.activity_trace.ActivityTrace` between them; the
        campaign cache stores the trace artifact under this key.
        """
        return content_key(self.timing_key_material())


@dataclass(frozen=True)
class Campaign:
    """A declarative experiment grid: configs x DTM policies x benchmarks.

    ``dtm_policies`` is the optional dynamic-thermal-management axis: a
    tuple of :func:`repro.dtm.make_policy` spec strings (``"none"``,
    ``"dvfs"``, ``"fetch_throttle:trigger=80"``, ...).  Left empty — the
    default — the campaign has no policy axis and expands exactly as it did
    before DTM existed; with N policies every (config, benchmark) cell is
    simulated once per policy, and summaries are keyed by the cell
    :attr:`~RunSpec.variant` (``"<config>@<policy>"``).

    ``cores`` and ``per_core_scenarios`` are the chip-multiprocessor axes
    (see :mod:`repro.chip`).  With ``cores > 1`` (or any explicit scenario
    mixes) the campaign runs *chip* cells: every configuration is composed
    into a ``cores``-core die and simulated once per workload *mix*.  A mix
    is a tuple of benchmark/scenario names, one per thread (``("virus",
    "gzip")``; strings like ``"virus+gzip"`` are accepted and split); mixes
    shorter than ``cores`` leave idle cores.  ``per_core_scenarios`` left
    empty derives homogeneous mixes from ``settings.benchmarks`` (every
    benchmark replicated onto all cores).  In chip mode ``dtm_policies``
    names *chip-level* policies (:func:`repro.chip.make_chip_policy` specs:
    ``"none"``, ``"core_migration"``, ``"chip_dvfs:target=85"``, ...), and
    summaries are keyed per mix (``"virus+gzip"``) instead of per benchmark.

    ``contention`` (chip mode only) names a shared-LLC contention model
    (a :func:`repro.chip.make_contention` spec such as ``"shared_llc"``);
    contended cells couple threads through memory latency and are simulated
    with the coupled engine instead of trace replay.  How the cells execute
    (timing and replay mode) is not part of the campaign: it is the
    executor's :class:`ExecutionOptions`.
    """

    configs: Tuple[ProcessorConfig, ...]
    settings: ExperimentSettings
    name: str = "campaign"
    dtm_policies: Tuple[str, ...] = ()
    cores: int = 1
    per_core_scenarios: Tuple[Tuple[str, ...], ...] = ()
    contention: Optional[str] = None

    def __init__(
        self,
        configs: Iterable[ProcessorConfig],
        settings: ExperimentSettings,
        name: str = "campaign",
        dtm_policies: Iterable[str] = (),
        cores: int = 1,
        per_core_scenarios: Iterable = (),
        contention: Optional[str] = None,
    ) -> None:
        object.__setattr__(self, "configs", tuple(configs))
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dtm_policies", tuple(dtm_policies))
        object.__setattr__(self, "cores", int(cores))
        object.__setattr__(self, "contention", contention)
        mixes = tuple(
            tuple(mix.split("+")) if isinstance(mix, str) else tuple(mix)
            for mix in per_core_scenarios
        )
        object.__setattr__(self, "per_core_scenarios", mixes)
        if not self.configs:
            raise ValueError("a campaign needs at least one configuration")
        names = [config.name for config in self.configs]
        if len(set(names)) != len(names):
            raise ValueError(f"configuration names must be unique, got {names}")
        if len(set(self.dtm_policies)) != len(self.dtm_policies):
            raise ValueError(
                f"DTM policy specs must be unique, got {list(self.dtm_policies)}"
            )
        if self.cores < 1:
            raise ValueError("cores must be at least 1")
        if len(set(mixes)) != len(mixes):
            raise ValueError(
                f"per-core scenario mixes must be unique, got {list(mixes)}"
            )
        for mix in mixes:
            if not mix:
                raise ValueError("a per-core scenario mix needs at least one thread")
            if len(mix) > self.cores:
                raise ValueError(
                    f"mix {'+'.join(mix)!r} has {len(mix)} threads but the "
                    f"campaign runs {self.cores}-core chips"
                )
            for scenario in mix:
                get_profile(scenario)  # raises KeyError for unknown names
        if self.contention is not None:
            from repro.chip.contention import make_contention

            # Fail fast on malformed specs; normalize disabled spellings so
            # contention="none" campaigns mint the same cell keys as
            # contention-free ones.
            if make_contention(self.contention) is None:
                object.__setattr__(self, "contention", None)
            elif not self.is_chip:
                raise ValueError(
                    "contention couples the threads of a chip campaign; "
                    "single-core campaigns have no co-runners to contend with"
                )
        # Fail fast on unknown policies/parameters, before any simulation.
        # In chip mode the policy axis names chip-level policies.
        if self.is_chip:
            from repro.chip import make_chip_policy

            for policy in self.dtm_policies:
                make_chip_policy(policy)
        else:
            from repro.dtm import make_policy

            for policy in self.dtm_policies:
                make_policy(policy)

    @classmethod
    def single(
        cls,
        config: ProcessorConfig,
        settings: ExperimentSettings,
        name: Optional[str] = None,
    ) -> "Campaign":
        """A one-configuration campaign (the old ``summarize`` shape)."""
        return cls((config,), settings, name=name or config.name)

    @property
    def is_chip(self) -> bool:
        """Whether this campaign runs multi-core chip cells (see :mod:`repro.chip`)."""
        return self.cores > 1 or bool(self.per_core_scenarios)

    def mixes(self) -> Tuple[Tuple[str, ...], ...]:
        """The resolved workload mixes of a chip campaign.

        Explicit ``per_core_scenarios`` win; otherwise every benchmark of
        the settings is replicated onto all cores (homogeneous mixes — the
        ``cores`` axis alone).
        """
        if self.per_core_scenarios:
            return self.per_core_scenarios
        return tuple((b,) * self.cores for b in self.settings.benchmarks)

    def config_names(self) -> Tuple[str, ...]:
        return tuple(config.name for config in self.configs)

    def variant_names(self) -> Tuple[str, ...]:
        """Names of every (config, DTM policy) combination, in cell order.

        Without a policy axis these are exactly :meth:`config_names`.
        """
        if not self.dtm_policies:
            return self.config_names()
        return tuple(
            variant_name(config.name, policy)
            for config in self.configs
            for policy in self.dtm_policies
        )

    def cells(self) -> Tuple[RunSpec, ...]:
        """Expand the grid into independent, executor-ready cells.

        Cells are ordered configuration-major, then policy-major (all
        benchmarks of the first configuration's first policy first); with no
        policy axis the order matches the legacy serial loop.  A chip
        campaign expands into :class:`~repro.chip.ChipRunSpec` cells
        instead, one per (config, chip policy, workload mix).
        """
        interval = self.settings.resolved_interval_cycles()
        policies: Tuple[Optional[str], ...] = self.dtm_policies or (None,)
        specs = []
        if self.is_chip:
            from repro.chip import ChipRunSpec

            for config in self.configs:
                scaled = scale_paper_intervals(config, interval)
                for policy in policies:
                    for mix in self.mixes():
                        specs.append(
                            ChipRunSpec(
                                config=scaled,
                                cores=self.cores,
                                benchmarks=mix,
                                trace_uops=tuple(
                                    self.settings.trace_length(b) for b in mix
                                ),
                                interval_cycles=interval,
                                seed=self.settings.seed,
                                chip_policy=policy,
                                contention=self.contention,
                            )
                        )
            return tuple(specs)
        for config in self.configs:
            scaled = scale_paper_intervals(config, interval)
            for policy in policies:
                for benchmark in self.settings.benchmarks:
                    specs.append(
                        RunSpec(
                            config=scaled,
                            benchmark=benchmark,
                            trace_uops=self.settings.trace_length(benchmark),
                            interval_cycles=interval,
                            seed=self.settings.seed,
                            dtm_policy=policy,
                        )
                    )
        return tuple(specs)

    def __len__(self) -> int:
        per_config = (
            len(self.mixes()) if self.is_chip else len(self.settings.benchmarks)
        )
        return len(self.configs) * max(1, len(self.dtm_policies)) * per_config
