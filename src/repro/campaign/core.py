"""Campaign orchestration: cache lookup, trace sharing, execution, aggregation.

:func:`run_campaign` is the single execution path of every experiment in the
reproduction.  It expands a declarative :class:`~repro.campaign.spec.Campaign`
into independent cells and runs them through one two-stage plan, the same
for single-core (:class:`~repro.campaign.spec.RunSpec`) and chip
(:class:`~repro.chip.ChipRunSpec`) cells.  A cell's timing is the
single-core timing runs its :meth:`~repro.campaign.spec.RunSpec.core_specs`
name — a chip cell's threads, or a single-core cell itself, its own
one-thread layout:

1. cells the optional :class:`~repro.campaign.cache.ResultCache` holds are
   loaded;
2. cells whose timing depends on their physics (thermal-aware mapping,
   feedback-bearing DTM, thread migration — see ``replay_reason()``) run
   the exact *coupled* path; the rest are grouped by the tuple of their
   core :meth:`~repro.campaign.spec.RunSpec.timing_key` values;
3. each group's traces (:class:`~repro.sim.activity_trace.ActivityTrace`,
   content-keyed artifacts in the cache) are loaded, or captured **once**
   when a cell other than the capturing one replays them or a cache keeps
   them;
4. captures and coupled cells run in one fan-out (a capture of a pending
   single-core cell fills that cell) — except each single-core cell with a
   feedback DTM policy whose nominal *twin* (the same cell with policy
   ``"none"`` or ``None``) runs coupled in it or was a cache hit;
5. each such held cell is *derived* from its twin when its policy, walked
   over the twin's trajectory (:func:`repro.dtm.nominal_telemetry`), never
   leaves nominal — the twin's result with the cell's provenance and
   telemetry, bit-identical to the coupled run — and the others run
   coupled in one more fan-out;
6. every group then *replays* the physics stage over its traces in one
   task — bit-identical to the coupled run, at array-pipeline speed.

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
    execute_replay_group,
)
from repro.campaign.spec import (
    Campaign,
    ExecutionOptions,
    ExperimentSettings,
    RunSpec,
)
from repro.campaign.summary import ConfigurationSummary
from repro.dtm import make_policy, nominal_telemetry
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
    #: Number of timing simulations the executor ran: coupled cells and
    #: trace captures (a chip thread's capture included).
    cells_executed: int = 0
    #: Number of cells satisfied by replaying a shared activity trace.
    cells_replayed: int = 0
    #: Number of DTM cells derived from their nominal twin's result, their
    #: policy never having left nominal along its trajectory.
    cells_derived: int = 0
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
            f"{self.cache_hits} from cache, {self.cells_derived} derived "
            f"[{self.executor_description}]"
        )


def _stamped(spec, options: ExecutionOptions):
    """``spec`` carrying the executor's options, as it is dispatched."""
    return spec if spec.options == options else replace(spec, options=options)


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


def _plan(
    pending: Sequence[Tuple[int, object]],
    cache: Optional[ResultCache],
    replay: bool,
) -> Tuple[
    List[Tuple[Optional[int], str, object, Optional[str]]],
    Dict[Tuple[str, ...], List[Tuple[int, object]]],
    Dict[str, ActivityTrace],
]:
    """Split pending cells into phase-1 timing runs and replay groups.

    Returns ``(phase1, groups, traces)``.  ``phase1`` holds
    ``(slot, mode, spec, timing_key)`` tasks: coupled cells (``"run"``),
    captures that also fill a pending cell's ``slot`` (``"capture"``) and
    captures of a chip thread's single-core timing run, which fill no slot
    (``"trace"``).  ``groups`` maps the tuple of a cell's core timing keys
    (:meth:`RunSpec.core_specs`) to the ``(slot, spec)`` cells replaying
    those traces; ``traces`` holds the ones the cache already had.

    A missing trace is captured only when a cell other than the capturing
    one replays it, or a cache keeps it for later campaigns: a lone
    single-core cell without a cache just runs coupled, while a chip
    cell's threads are always captured (no thread is itself a cell).
    """
    phase1: List[Tuple[Optional[int], str, object, Optional[str]]] = []
    groups: Dict[Tuple[str, ...], List[Tuple[int, object]]] = {}
    for slot, spec in pending:
        if replay and spec.replayable:
            keys = tuple(core.timing_key() for core in spec.core_specs())
            groups.setdefault(keys, []).append((slot, spec))
        else:
            phase1.append((slot, "run", spec, None))

    traces: Dict[str, ActivityTrace] = {}
    capturing = set()
    for keys, members in list(groups.items()):
        slot, spec = members[0]
        for key, core in zip(keys, spec.core_specs()):
            if key in traces or key in capturing:
                continue
            trace = cache.load_trace(key) if cache is not None else None
            if trace is not None:
                traces[key] = trace
            elif core is not spec:
                capturing.add(key)
                phase1.append((None, "trace", core, key))
            elif len(members) > 1 or cache is not None:
                capturing.add(key)
                phase1.append((slot, "capture", spec, key))
                members.pop(0)
            else:
                phase1.append((slot, "run", spec, None))
                del groups[keys]
    return phase1, groups, traces


def _held_for_twins(
    cells: Sequence,
    results: Sequence[Optional[SimulationResult]],
    phase1: Sequence[Tuple[Optional[int], str, object, Optional[str]]],
) -> Dict[int, int]:
    """Coupled cells to derive from a nominal twin: ``{slot: twin slot}``.

    A single-core cell whose DTM policy actuates on temperatures is held
    back from phase 1 when its campaign has a *twin* — the same cell with
    ``dtm_policy`` ``"none"`` or ``None``, matched by content key — whose
    result exists once phase 1 ends: a coupled phase-1 run or a cache hit
    that was not itself replayed (a batched replay is only tolerance-equal
    to the coupled run).  A twin that captures or replays is skipped, so
    open-loop sweeps keep their fan-outs.
    """
    candidates = [
        (slot, spec)
        for slot, mode, spec, _ in phase1
        if mode == "run"
        and isinstance(spec, RunSpec)
        and spec.dtm_policy is not None
        and make_policy(spec.dtm_policy).feedback
    ]
    if not candidates:
        return {}
    coupled = {slot for slot, mode, _, _ in phase1 if mode == "run"}
    twins: Dict[str, int] = {}
    for slot, spec in enumerate(cells):
        if not isinstance(spec, RunSpec) or spec.dtm_policy not in (None, "none"):
            continue
        result = results[slot]
        cached = result is not None and not result.provenance.get("replayed")
        if slot in coupled or cached:
            twins[spec.cache_key()] = slot
    held: Dict[int, int] = {}
    for slot, spec in candidates:
        for twin_policy in ("none", None):
            twin = twins.get(replace(spec, dtm_policy=twin_policy).cache_key())
            if twin is not None:
                held[slot] = twin
                break
    return held


def _derived(spec: RunSpec, twin: SimulationResult) -> Optional[SimulationResult]:
    """``spec``'s result from its nominal ``twin``, or ``None`` if it acts.

    :func:`~repro.dtm.nominal_telemetry` walks the cell's policy over the
    twin's trajectory.  When the policy never leaves nominal, the coupled
    run is the twin's run bit for bit (the :class:`~repro.dtm.DTMControls`
    bit-exactness guard), so the result is the twin's — sharing its
    read-only table — with the cell's provenance and telemetry.
    """
    telemetry = nominal_telemetry(
        make_policy(spec.dtm_policy),
        spec.config,
        twin.block_names,
        twin.warmup_temperature,
        twin.intervals.temperature,
    )
    if telemetry is None:
        return None
    provenance = {**twin.provenance, **spec.provenance()}
    return replace(twin, provenance=provenance, dtm=telemetry)


def _run_timing(
    executor: Executor,
    phase: Sequence[Tuple[Optional[int], str, object, Optional[str]]],
    results: List[Optional[SimulationResult]],
    traces: Dict[str, ActivityTrace],
    cache: Optional[ResultCache],
) -> None:
    """One fan-out of timing runs: fill their slots, keep their traces."""
    tasks = [(mode, _stamped(spec, executor.options)) for _, mode, spec, _ in phase]
    outputs = executor.run_tasks(execute_campaign_task, tasks) if tasks else []
    executor.cells_executed += len(tasks)
    for (slot, mode, spec, key), (result, trace) in zip(
        phase, _checked(outputs, phase, "timing runs")
    ):
        if slot is not None:
            results[slot] = result
        if cache is not None:
            cache.store(spec, result)
        if key is not None:
            if trace is None:
                raise RuntimeError(
                    f"capture cell {spec.benchmark!r} returned no activity trace"
                )
            traces[key] = trace
            if cache is not None:
                cache.store_trace(key, trace)


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


def _checked(outputs: Sequence, tasks: Sequence, what: str) -> Sequence:
    if len(outputs) != len(tasks):
        raise RuntimeError(
            f"executor returned {len(outputs)} results for {len(tasks)} {what}"
        )
    return outputs


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
    their core timing keys run the per-uop timing simulation once and
    replay the physics stage over the captured activity traces, and DTM
    cells whose policy never acts are derived from their nominal twin —
    both bit-identical to the coupled path, which ``replay=False`` forces
    for every cell (useful for benchmarking and equivalence tests).
    """
    if executor is None:
        executor = SerialExecutor()
    cells = campaign.cells()
    results, pending, cache_hits = _load_cached(cells, cache)
    phase1, groups, traces = _plan(pending, cache, replay)
    held = _held_for_twins(cells, results, phase1) if replay else {}

    # Phase 1: coupled timing simulations, some of them capturing a trace.
    executed_before = executor.cells_executed
    first = [task for task in phase1 if task[0] not in held]
    _run_timing(executor, first, results, traces, cache)

    # Cells held for a twin: derived when their policy stays at nominal
    # along the twin's trajectory, else simulated coupled in one more fan-out.
    fallback = []
    for slot, twin in held.items():
        spec = cells[slot]
        result = _derived(spec, results[twin])
        if result is None:
            fallback.append((slot, "run", spec, None))
            continue
        results[slot] = result
        if cache is not None:
            cache.store(spec, result)
    cells_derived = len(held) - len(fallback)
    if cells_derived:
        executor.record_derived(cells_derived)
    _run_timing(executor, fallback, results, traces, cache)

    # Phase 2: physics-only replays, one task per group of cells sharing
    # their traces, so each trace crosses a process boundary once per group.
    replays = [(keys, members) for keys, members in groups.items() if members]
    tasks = [
        (
            tuple(traces[key] for key in keys),
            tuple(_stamped(spec, executor.options) for _, spec in members),
        )
        for keys, members in replays
    ]
    outputs = executor.run_tasks(execute_replay_group, tasks) if tasks else []
    for (_, members), group_results in zip(
        replays, _checked(outputs, tasks, "replay groups")
    ):
        for (slot, spec), result in zip(
            members, _checked(group_results, members, "replayed cells")
        ):
            results[slot] = result
            if cache is not None:
                cache.store(spec, result)

    return _outcome(
        campaign,
        executor,
        cells,
        results,
        cells_executed=executor.cells_executed - executed_before,
        cells_replayed=sum(len(members) for _, members in replays),
        cells_derived=cells_derived,
        traces_captured=sum(key is not None for *_, key in phase1),
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
