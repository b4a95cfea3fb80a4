"""Campaign orchestration: cache lookup, trace sharing, execution, aggregation.

:func:`run_campaign` is the single execution path of every experiment in the
reproduction.  It expands a declarative :class:`~repro.campaign.spec.Campaign`
into independent cells, satisfies as many as possible from the optional
:class:`~repro.campaign.cache.ResultCache`, and routes the remainder through
the two-stage simulation core:

1. cells whose timing depends on their physics (thermal-aware mapping,
   feedback-bearing DTM — see :meth:`RunSpec.replay_reason`) run the exact
   *coupled* path, as before;
2. replay-eligible cells are grouped by
   :meth:`~repro.campaign.spec.RunSpec.timing_key`; each group captures its
   per-uop timing simulation **once** (an
   :class:`~repro.sim.activity_trace.ActivityTrace`, stored as a
   content-keyed artifact in the cache) and every other cell of the group
   *replays* the physics stage over the shared trace — bit-identical to the
   coupled run, at array-pipeline speed.

Fresh results are stored back into the cache, and everything folds into
per-variant :class:`~repro.campaign.summary.ConfigurationSummary` objects —
keyed by configuration name, or by ``"<config>@<policy>"`` when the campaign
sweeps a DTM policy axis — the shape the figure drivers consume.

The single-configuration conveniences :func:`run_configuration`,
:func:`summarize` and :func:`summarize_many` live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.executors import (
    Executor,
    SerialExecutor,
    execute_campaign_task,
    execute_chip_cell,
    execute_chip_replay_group,
    execute_replay_group,
)
from repro.campaign.spec import Campaign, ExecutionOptions, ExperimentSettings, RunSpec
from repro.campaign.summary import ConfigurationSummary
from repro.sim.activity_trace import ActivityTrace
from repro.sim.config import ProcessorConfig
from repro.sim.results import SimulationResult


@dataclass
class CampaignOutcome:
    """Everything a finished campaign produced, plus execution provenance."""

    campaign: Campaign
    #: Per-variant aggregates in campaign order, keyed by configuration name
    #: — or, when the campaign has a DTM policy axis, by the
    #: ``"<config>@<policy>"`` variant name (see :attr:`RunSpec.variant`).
    summaries: Dict[str, ConfigurationSummary] = field(default_factory=dict)
    #: Number of cells that ran a coupled timing simulation (captures
    #: included) in the executor.
    cells_executed: int = 0
    #: Number of cells satisfied by replaying a shared activity trace.
    cells_replayed: int = 0
    #: Number of activity traces captured during this campaign.
    traces_captured: int = 0
    #: Number of cells satisfied from the result cache.
    cache_hits: int = 0
    #: Backend description (for reports / CLI output).
    executor_description: str = "SerialExecutor"
    #: Execution-runtime facts from the executor (mode, keepalive, warm
    #: solver/trace cache hit counters, worker respawns — whatever the
    #: backend can observe; see :meth:`Executor.runtime_info`) and, under
    #: ``"options"``, the :class:`ExecutionOptions` the cells ran under.
    #: Purely informational: never part of any cache key and never affects
    #: results.
    runtime: Dict[str, object] = field(default_factory=dict)

    @property
    def total_cells(self) -> int:
        return len(self.campaign)

    def summary_for(self, config_name: str) -> ConfigurationSummary:
        return self.summaries[config_name]

    def describe(self) -> str:
        policy_axis = (
            f"{len(self.campaign.dtm_policies)} DTM policies x "
            if self.campaign.dtm_policies
            else ""
        )
        if self.campaign.is_chip:
            workload_axis = (
                f"{len(self.campaign.mixes())} mixes on "
                f"{self.campaign.cores}-core chips"
            )
        else:
            workload_axis = f"{len(self.campaign.settings.benchmarks)} benchmarks"
        return (
            f"campaign '{self.campaign.name}': {self.total_cells} cells "
            f"({len(self.campaign.configs)} configs x {policy_axis}"
            f"{workload_axis}), "
            f"{self.cells_executed} simulated, {self.cells_replayed} replayed, "
            f"{self.cache_hits} from cache "
            f"[{self.executor_description}]"
        )


def _plan_two_stage(
    pending: Sequence[Tuple[int, RunSpec]],
    cache: Optional[ResultCache],
) -> Tuple[
    Dict[str, List[Tuple[int, RunSpec]]],
    List[Tuple[int, RunSpec, Optional[str]]],
    Dict[str, ActivityTrace],
]:
    """Split pending cells into replay groups and coupled stragglers.

    Returns ``(replays, phase1, cached_traces)`` where ``phase1`` holds
    ``(slot, spec, capture_key)`` tasks (``capture_key`` is the timing key
    to record a trace for, or ``None`` for a plain coupled run) and
    ``replays`` maps a timing key to the ``(slot, spec)`` cells replaying
    its trace, which comes either from ``cached_traces`` or from this
    campaign's capture cell.

    A replay-eligible singleton group only captures when a cache is
    attached (the trace then pays off across campaigns); without one, a
    trace nobody replays would be pure overhead.
    """
    replays: Dict[str, List[Tuple[int, RunSpec]]] = {}
    phase1: List[Tuple[int, RunSpec, Optional[str]]] = []
    cached_traces: Dict[str, ActivityTrace] = {}

    groups: Dict[str, List[Tuple[int, RunSpec]]] = {}
    for slot, spec in pending:
        if spec.replayable:
            groups.setdefault(spec.timing_key(), []).append((slot, spec))
        else:
            phase1.append((slot, spec, None))

    for key, members in groups.items():
        trace = cache.load_trace(key) if cache is not None else None
        if trace is not None:
            cached_traces[key] = trace
            replays[key] = members
            continue
        if len(members) == 1 and cache is None:
            slot, spec = members[0]
            phase1.append((slot, spec, None))
            continue
        (first_slot, first_spec), rest = members[0], members[1:]
        phase1.append((first_slot, first_spec, key))
        if rest:
            replays[key] = rest
    return replays, phase1, cached_traces


def _stamped(spec, options: ExecutionOptions):
    """``spec`` carrying the executor's options, as it is dispatched."""
    return spec if spec.options == options else replace(spec, options=options)


def _replay_groups(
    executor: Executor,
    fn,
    groups: Sequence[Tuple[object, List[Tuple[int, object]]]],
    results: List[Optional[SimulationResult]],
    cache: Optional[ResultCache],
) -> None:
    """Replay ``(traces, [(slot, spec), ...])`` groups into ``results``.

    One task per group of cells sharing their trace(s), so each trace
    crosses a process boundary once per group rather than once per cell;
    fresh results are stored in the cache.
    """
    tasks = [
        (traces, tuple(_stamped(spec, executor.options) for _, spec in members))
        for traces, members in groups
    ]
    outputs = executor.run_tasks(fn, tasks) if tasks else []
    if len(outputs) != len(tasks):
        raise RuntimeError(
            f"executor returned {len(outputs)} groups for {len(tasks)} replay groups"
        )
    for (_, members), group_results in zip(groups, outputs):
        if len(group_results) != len(members):
            raise RuntimeError(
                f"replay group returned {len(group_results)} results for "
                f"{len(members)} cells"
            )
        for (slot, spec), result in zip(members, group_results):
            results[slot] = result
            if cache is not None:
                cache.store(spec, result)


def _load_cached(
    cells: Sequence, cache: Optional[ResultCache]
) -> Tuple[List[Optional[SimulationResult]], List[Tuple[int, object]], int]:
    """Satisfy what the cache holds: ``(results, pending, cache_hits)``.

    ``results`` has one slot per cell (``None`` until filled) and
    ``pending`` the ``(slot, spec)`` cells the cache did not hold.
    """
    results: List[Optional[SimulationResult]] = [None] * len(cells)
    pending: List[Tuple[int, object]] = []
    for index, spec in enumerate(cells):
        cached = cache.load(spec) if cache is not None else None
        if cached is not None:
            results[index] = cached
        else:
            pending.append((index, spec))
    return results, pending, len(cells) - len(pending)


def _outcome(
    campaign: Campaign,
    executor: Executor,
    cells: Sequence,
    results: Sequence[Optional[SimulationResult]],
    **counts: int,
) -> CampaignOutcome:
    """Fold finished cell results into per-variant summaries.

    ``counts`` are the :class:`CampaignOutcome` counters (cells executed
    and replayed, traces captured, cache hits).
    """
    outcome = CampaignOutcome(
        campaign=campaign,
        executor_description=executor.describe(),
        runtime={**executor.runtime_info(), "options": executor.options.to_dict()},
        **counts,
    )
    for variant in campaign.variant_names():
        outcome.summaries[variant] = ConfigurationSummary(config_name=variant)
    for spec, result in zip(cells, results):
        assert result is not None
        outcome.summaries[spec.variant].results[spec.benchmark] = result
    return outcome


def run_campaign(
    campaign: Campaign,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    replay: bool = True,
) -> CampaignOutcome:
    """Execute a campaign and aggregate its results.

    ``executor`` defaults to a fresh :class:`SerialExecutor`; pass a
    :class:`~repro.campaign.executors.ParallelExecutor` to fan the cells out
    over worker processes.  Every cell is dispatched under the executor's
    :class:`~repro.campaign.spec.ExecutionOptions`.  With a ``cache``, cells
    whose content key is already present are loaded instead of simulated and
    fresh results are stored back, so a repeated campaign performs zero
    simulator invocations.

    ``replay`` enables the two-stage fast path (the default): cells sharing
    a :meth:`~repro.campaign.spec.RunSpec.timing_key` run the per-uop timing
    simulation once and replay the physics stage over the captured activity
    trace — bit-identical to the coupled path, which ``replay=False``
    forces for every cell (useful for benchmarking and equivalence tests).
    """
    if executor is None:
        executor = SerialExecutor()
    if campaign.is_chip:
        return _run_chip_campaign(campaign, executor, cache, replay)
    cells = campaign.cells()
    results, pending, cache_hits = _load_cached(cells, cache)
    if replay:
        replays, phase1, traces = _plan_two_stage(pending, cache)
    else:
        replays, phase1, traces = {}, [(s, spec, None) for s, spec in pending], {}

    # Phase 1: coupled timing simulations (some of them capturing a trace).
    executed_before = executor.cells_executed
    tasks = [
        ("capture" if key is not None else "run", _stamped(spec, executor.options))
        for _, spec, key in phase1
    ]
    outputs = executor.run_tasks(execute_campaign_task, tasks) if tasks else []
    executor.cells_executed += len(tasks)
    if len(outputs) != len(phase1):
        raise RuntimeError(
            f"executor returned {len(outputs)} results for {len(phase1)} cells"
        )
    traces_captured = 0
    for (slot, spec, key), (result, trace) in zip(phase1, outputs):
        results[slot] = result
        if cache is not None:
            cache.store(spec, result)
        if key is not None:
            if trace is None:
                raise RuntimeError(
                    f"capture cell {spec.benchmark!r} returned no activity trace"
                )
            traces[key] = trace
            traces_captured += 1
            if cache is not None:
                cache.store_trace(key, trace)

    # Phase 2: physics-only replays, one task per timing-key group.
    _replay_groups(
        executor,
        execute_replay_group,
        [(traces[key], members) for key, members in replays.items()],
        results,
        cache,
    )

    return _outcome(
        campaign,
        executor,
        cells,
        results,
        cells_executed=executor.cells_executed - executed_before,
        cells_replayed=sum(len(members) for members in replays.values()),
        traces_captured=traces_captured,
        cache_hits=cache_hits,
    )


def _run_chip_campaign(
    campaign: Campaign,
    executor: Executor,
    cache: Optional[ResultCache],
    replay: bool,
) -> CampaignOutcome:
    """Execute a chip campaign (the ``cores`` / ``per_core_scenarios`` axes).

    The chip analogue of the two-stage plan: every replay-eligible chip
    cell decomposes into per-thread *single-core* timing runs
    (:meth:`~repro.chip.ChipRunSpec.core_specs`), whose activity traces are
    looked up in the cache under the ordinary single-core timing keys.
    Missing traces are captured once each — a capture is a plain
    single-core cell, so its result seeds the cache for single-core
    campaigns too — and every chip cell then *replays* the composite-die
    physics over its threads' traces, bit-identical to the coupled chip
    run.  Cells whose chip policy migrates threads by temperature (or whose
    configuration couples temperature into timing) run the exact coupled
    path.
    """
    cells = campaign.cells()
    results, pending, cache_hits = _load_cached(cells, cache)
    executed_before = executor.cells_executed
    replay_cells: List[Tuple[int, object]] = []
    coupled_cells: List[Tuple[int, object]] = []
    for slot, spec in pending:
        if replay and spec.replayable:
            replay_cells.append((slot, spec))
        else:
            coupled_cells.append((slot, spec))

    # Phase 1: resolve the per-thread single-core traces (cache or capture).
    needed: Dict[str, object] = {}
    for _, spec in replay_cells:
        for core_spec in spec.core_specs():
            needed.setdefault(core_spec.timing_key(), core_spec)
    traces: Dict[str, ActivityTrace] = {}
    missing: List[Tuple[str, object]] = []
    for key, core_spec in needed.items():
        trace = cache.load_trace(key) if cache is not None else None
        if trace is not None:
            traces[key] = trace
        else:
            missing.append((key, core_spec))
    traces_captured = 0
    if missing:
        tasks = [
            ("capture", _stamped(core_spec, executor.options))
            for _, core_spec in missing
        ]
        outputs = executor.run_tasks(execute_campaign_task, tasks)
        executor.cells_executed += len(tasks)
        if len(outputs) != len(missing):
            raise RuntimeError(
                f"executor returned {len(outputs)} results for "
                f"{len(missing)} captures"
            )
        for (key, core_spec), (result, trace) in zip(missing, outputs):
            if trace is None:
                raise RuntimeError(
                    f"capture cell {core_spec.benchmark!r} returned no "
                    "activity trace"
                )
            traces[key] = trace
            traces_captured += 1
            if cache is not None:
                cache.store_trace(key, trace)
                cache.store(core_spec, result)

    # Phase 2: replay every eligible chip cell over its threads' traces, one
    # task per trace-set group (a physics sweep over one mix shares its
    # per-core traces).
    groups: Dict[Tuple[str, ...], List[Tuple[int, object]]] = {}
    for slot, spec in replay_cells:
        keys = tuple(cs.timing_key() for cs in spec.core_specs())
        groups.setdefault(keys, []).append((slot, spec))
    _replay_groups(
        executor,
        execute_chip_replay_group,
        [
            (tuple(traces[key] for key in keys), members)
            for keys, members in groups.items()
        ],
        results,
        cache,
    )

    # Phase 3: coupled chip cells (feedback-bearing chip policies).
    specs = [_stamped(spec, executor.options) for _, spec in coupled_cells]
    fresh = executor.run_tasks(execute_chip_cell, specs) if specs else []
    executor.cells_executed += len(specs)
    if len(fresh) != len(coupled_cells):
        raise RuntimeError(
            f"executor returned {len(fresh)} results for "
            f"{len(coupled_cells)} coupled chip cells"
        )
    for (slot, spec), result in zip(coupled_cells, fresh):
        results[slot] = result
        if cache is not None:
            cache.store(spec, result)

    return _outcome(
        campaign,
        executor,
        cells,
        results,
        cells_executed=executor.cells_executed - executed_before,
        cells_replayed=len(replay_cells),
        traces_captured=traces_captured,
        cache_hits=cache_hits,
    )


# ----------------------------------------------------------------------
# Single-configuration conveniences (the pre-campaign experiment API)
# ----------------------------------------------------------------------
def run_configuration(
    config: ProcessorConfig,
    settings: ExperimentSettings,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, SimulationResult]:
    """Simulate ``config`` on every benchmark of ``settings``.

    Returns the per-benchmark results, keyed by benchmark name.
    """
    outcome = run_campaign(Campaign.single(config, settings), executor, cache)
    return outcome.summaries[config.name].results


def summarize(
    config: ProcessorConfig,
    settings: ExperimentSettings,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> ConfigurationSummary:
    """Run a configuration over all benchmarks and wrap it in a summary."""
    outcome = run_campaign(Campaign.single(config, settings), executor, cache)
    return outcome.summaries[config.name]


def summarize_many(
    configs: Sequence[ProcessorConfig],
    settings: ExperimentSettings,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, ConfigurationSummary]:
    """Summaries for several configurations, keyed by configuration name."""
    outcome = run_campaign(Campaign(configs, settings), executor, cache)
    return outcome.summaries
