"""The coupled interval loop: N timing stages over one physics stage.

:class:`ChipEngine` holds the package's one coupled timing -> power ->
leakage -> thermal loop and the activity-trace capture riding on it.  A
chip run composes the two-stage simulation core one level up:

* **N per-core** :class:`~repro.sim.stages.TimingStage`\\ s — one per
  *thread*, each with its own workload, seed and (optional) per-core DTM
  policy, each emitting activity-count vectors over the single-core block
  order.  A thread's captured :class:`~repro.sim.activity_trace.ActivityTrace`
  is therefore the single-core capture of the same (config, workload, seed),
  so a multi-core physics sweep replays cached single-core traces.

* **one shared** :class:`~repro.sim.stages.PhysicsStage` over a *composite*
  die: per-core namespaced block parameters (``core0.ROB``, ``core1.ROB``,
  ...), a :func:`~repro.thermal.floorplan.compose_floorplans` core grid —
  abutting dies, so the RC network carries cross-core lateral coupling in
  addition to the shared spreader and sink — and chip-level block groups.
  Each interval, the per-core activity vectors concatenate into one
  chip-wide vector (a contiguous slice per core) and a *single* physics
  solve advances the whole package.

Time advances in lockstep thermal intervals.  Cores may run different cycle
counts within one interval (a thread's final interval is shorter; a finished
or empty core runs zero), so the power conversion divides each core's counts
by *its own* cycles while the thermal network advances by the chip interval
— the longest any core ran (the chip clock).  A core with no running thread
still dissipates idle (clock-distribution) and leakage power: idle silicon
is exactly what chip-level migration trades against.

The loop serves two *layouts*, which differ only in the die, the threads,
whether a per-core DTM policy may gate whole intervals, and the result
shape.  The chip layout is the composite die, a thread per core, no
per-core gating (stop-go is a package-level decision) and aggregate stats
plus ``result.chip``.  :class:`~repro.sim.engine.SimulationEngine` is the
one-core layout.  With one core the composite die is a pure rename of the
single-core die, and ``tests/test_chip.py`` locks a 1-core chip
bit-for-bit to the single-core engine.

Chip-level DTM (:mod:`repro.chip.policies`) hooks in before each interval:
the policy observes sensor-quantized per-core peak temperatures and may
migrate the hottest busy core's thread to the coolest idle core
(``core_migration``) or walk per-core DVFS domains (``chip_dvfs``).
Per-core policies from :mod:`repro.dtm` compose with it, strictest request
winning.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.chip.contention import ContentionConfig, SharedLLCContention, make_contention
from repro.chip.policies import ChipControls, ChipDTMPolicy, ChipObservation, make_chip_policy
from repro.dtm.controls import (
    FETCH_DUTY_PERIOD,
    DTMControls,
    DTMTelemetry,
    residency_by_freq_ratio,
)
from repro.dtm.policies import DTMPolicy, make_policy, step_policy
from repro.isa.microops import MicroOp
from repro.power.power_model import PowerModel
from repro.sim import blocks
from repro.sim.activity_trace import ActivityTrace, TraceRecorder, timing_feedback_reason
from repro.sim.block_index import BlockIndex
from repro.sim.config import ProcessorConfig
from repro.sim.group_replay import ReplayCell, TraceStack, replay_cells
from repro.sim.results import SimulationResult
from repro.sim.stages import PhysicsStage, TimingStage, select_timing_stage
from repro.sim.stats import SimulationStats
from repro.sim.warmcache import core_layout
from repro.thermal.floorplan import compose_floorplans
from repro.thermal.sensors import SensorBank

#: Separator between the core namespace and the block name.
CORE_SEPARATOR = "."


def core_prefix(core: int) -> str:
    """Namespace prefix of core ``core`` (``"core0"``, ``"core1"``, ...)."""
    return f"core{core}"


def chip_block_groups(config: ProcessorConfig, cores: int) -> Dict[str, List[str]]:
    """Block groups of a composite die.

    Every single-core group (``Processor``, ``Frontend``, ``TraceCache``,
    ...) becomes the union over cores — so ``Processor`` still means "the
    whole die" and every existing metric query works on a chip result — and
    each core additionally gets its own group (``core0``, ``core1``, ...)
    for per-core temperature metrics.
    """
    single = blocks.block_groups(config)
    groups: Dict[str, List[str]] = {
        group: [
            f"{core_prefix(c)}{CORE_SEPARATOR}{name}"
            for c in range(cores)
            for name in names
        ]
        for group, names in single.items()
    }
    all_names = blocks.all_blocks(config)
    for c in range(cores):
        groups[core_prefix(c)] = [
            f"{core_prefix(c)}{CORE_SEPARATOR}{name}" for name in all_names
        ]
    return groups


def chip_layout(config: ProcessorConfig, cores: int):
    """``(block parameters, floorplan, block groups)`` of the composite die.

    What :class:`PhysicsStage` is built over; like
    :func:`~repro.sim.warmcache.core_layout` it reads neither the power nor
    the thermal section, so the physics variants of one replay group share
    a single composition (:func:`replay_chip_group`).
    """
    if cores < 1:
        raise ValueError("a chip needs at least one core")
    core_parameters, core_plan, _ = core_layout(config)
    chip_plan = compose_floorplans(
        [core_plan] * cores,
        [core_prefix(c) for c in range(cores)],
        separator=CORE_SEPARATOR,
    )
    return (
        _chip_parameters(core_parameters, cores),
        chip_plan,
        chip_block_groups(config, cores),
    )


def build_chip_physics(
    config: ProcessorConfig,
    cores: int,
    interval_cycles: Optional[int] = None,
    layout=None,
) -> Tuple[PhysicsStage, BlockIndex, int]:
    """One :class:`PhysicsStage` over the composite ``cores``-core die.

    ``layout`` is :func:`chip_layout` of ``config`` and ``cores``, composed
    here unless given.  Returns ``(physics, core_index, blocks_per_core)``:
    ``core_index`` is the *single-core* block order (what each per-core
    timing stage emits), and core ``c`` occupies the contiguous chip-vector
    slice ``[c * blocks_per_core, (c + 1) * blocks_per_core)``.

    The die's node count picks the thermal solver's factorization (see
    :mod:`repro.thermal.solver`): small dies stay on the dense
    (bit-identical) path and the solver flips to sparse SuperLU at
    :data:`~repro.thermal.solver.SPARSE_NODE_THRESHOLD` nodes — in this
    composition, at 16 cores and above — where the composite Laplacian is
    ~99% zeros and sparse factorization is an order of magnitude faster.
    """
    parameters, floorplan, groups = layout or chip_layout(config, cores)
    physics = PhysicsStage(
        config,
        interval_cycles,
        block_parameters=parameters,
        floorplan=floorplan,
        block_groups=groups,
    )
    core_parameters = core_layout(config)[0]
    return physics, BlockIndex(core_parameters), len(core_parameters)


def _chip_parameters(core_parameters, cores: int):
    """Per-core block parameters laid out over the composite die.

    The chip block order is defined once, through the BlockIndex
    composition API: per-core namespaces concatenated in core order.  The
    parameter dict (whose key order seeds the PowerModel's index) and the
    composed floorplan both follow it.
    """
    core_index = BlockIndex(core_parameters)
    chip_index = BlockIndex.concat(
        [
            core_index.namespaced(core_prefix(c), separator=CORE_SEPARATOR)
            for c in range(cores)
        ]
    )
    return {
        name: core_parameters[name.split(CORE_SEPARATOR, 1)[1]]
        for name in chip_index.names
    }


def _aggregate_stats(
    per_thread: Sequence[SimulationStats], chip_cycles: int
) -> SimulationStats:
    """Chip-wide stats: per-thread counters summed, cycles = the chip clock.

    Lockstep intervals mean the chip's wall-cycle count is the per-interval
    maximum summed over intervals, not the per-thread sum — so ``ipc`` on
    the aggregate is genuine chip IPC (total committed micro-ops per chip
    cycle).  With one thread this reduces to that thread's own stats.
    """
    aggregate = SimulationStats()
    for stats in per_thread:
        for key, value in stats.to_payload().items():
            if key == "cycles":
                continue
            if isinstance(value, dict):
                merged = getattr(aggregate, key)
                for sub, count in value.items():
                    merged[sub] = merged.get(sub, 0) + count
            else:
                setattr(aggregate, key, getattr(aggregate, key) + value)
    aggregate.cycles = chip_cycles
    return aggregate


def _finish_chip_result(
    result: SimulationResult,
    *,
    cores: int,
    benchmarks: Sequence[str],
    per_thread_stats: Sequence[SimulationStats],
    final_cores: Sequence[int],
    temperatures: Sequence[np.ndarray],
    chip_cycles: int,
    policy_name: Optional[str],
    migration_log: Sequence[Dict],
    dvfs_residency: Optional[Dict[str, float]] = None,
    thread_dtm: Optional[Sequence[Optional[Dict]]] = None,
    contention: Optional[Dict[str, object]] = None,
) -> SimulationResult:
    """Fold the chip telemetry into a result (shared by coupled and replay).

    ``temperatures`` are the die's per-interval block-temperature vectors,
    folded into per-core peak and mean temperatures.  ``contention`` (the
    contention model's telemetry) is only present on contended runs: an
    uncontended result's payload is byte-identical to what it was before the
    contention model existed.
    """
    peak = np.full(cores, -np.inf)
    mean_sum = np.zeros(cores)
    for row in temperatures:
        per_core = row.reshape(cores, -1)
        peak = np.maximum(peak, per_core.max(axis=1))
        mean_sum += per_core.mean(axis=1)
    intervals = max(1, len(temperatures))
    result.stats = _aggregate_stats(per_thread_stats, chip_cycles)
    result.provenance["cores"] = cores
    threads = []
    for t, (benchmark, stats) in enumerate(zip(benchmarks, per_thread_stats)):
        summary = {
            "benchmark": benchmark,
            "final_core": int(final_cores[t]),
            "cycles": stats.cycles,
            "committed_uops": stats.committed_uops,
            "ipc": stats.ipc,
            "trace_cache_hit_rate": stats.trace_cache_hit_rate,
        }
        if thread_dtm is not None and thread_dtm[t] is not None:
            summary["dtm"] = thread_dtm[t]
        threads.append(summary)
    total_uops = sum(stats.committed_uops for stats in per_thread_stats)
    chip: Dict[str, object] = {
        "cores": cores,
        "benchmarks": list(benchmarks),
        "policy": policy_name,
        "migrations": len(migration_log),
        "migration_log": list(migration_log),
        "threads": threads,
        "per_core": {
            core_prefix(c): {
                "peak_celsius": float(peak[c]),
                "avg_celsius": float(mean_sum[c] / intervals),
            }
            for c in range(cores)
        },
        "aggregate": {
            "committed_uops": total_uops,
            "chip_ipc": total_uops / chip_cycles if chip_cycles else 0.0,
            "peak_celsius": float(peak.max()),
        },
    }
    if dvfs_residency is not None:
        chip["dvfs_residency"] = dvfs_residency
    if contention is not None:
        chip["contention"] = contention
    result.chip = chip
    return result


def chip_feedback_reason(
    config: ProcessorConfig,
    contention=None,
    chip_policy: Optional[Union[ChipDTMPolicy, str]] = None,
    core_policies: Sequence[Optional[DTMPolicy]] = (),
) -> Optional[str]:
    """Why a chip run's timing depends on its physics — or ``None``.

    :func:`~repro.sim.activity_trace.timing_feedback_reason` plus the chip's
    own couplings: shared-LLC contention ties threads together through
    memory latency, and a temperature-actuating chip or per-core policy
    steers timing by temperature.  The one authority for both the engine's
    capture guard and :meth:`~repro.chip.spec.ChipRunSpec.replay_reason`.
    """
    reason = timing_feedback_reason(config)
    if reason is not None:
        return reason
    if contention is not None:
        return "shared-LLC contention couples threads through memory latency"
    if isinstance(chip_policy, str):
        chip_policy = make_chip_policy(chip_policy)
    if chip_policy is not None and chip_policy.feedback:
        return f"chip DTM policy {chip_policy.name!r} actuates on temperatures"
    for policy in core_policies:
        if policy is not None and policy.feedback:
            return f"DTM policy {policy.name!r} actuates on temperatures"
    return None


class ChipEngine:
    """Runs one multi-programmed workload mix on an N-core chip.

    ``uop_sources`` / ``benchmarks`` describe the *threads* (at most one per
    core; fewer threads leave idle cores for migration to use).  A source is
    a :class:`~repro.workloads.generator.WorkloadSpec` (generated natively
    on the fast path), a ``MicroOp`` sequence or a ``MicroOp`` stream.  Thread
    ``t`` starts on core ``t``; only the ``core_migration`` chip policy ever
    moves it.

    ``chip_policy`` is a :class:`~repro.chip.policies.ChipDTMPolicy` (or a
    spec string for :func:`~repro.chip.policies.make_chip_policy`);
    ``core_policies`` optionally attaches a per-core
    :class:`~repro.dtm.policies.DTMPolicy` (or spec string) to each thread.
    Per-core whole-interval clock gating is denied (see the module
    docstring); everything else — fetch throttling, per-cluster DVFS —
    composes with the chip-level actuators, strictest request winning.

    Its interval loop and capture path are the package's only coupled ones;
    :class:`~repro.sim.engine.SimulationEngine` is their one-core layout.
    """

    #: Consecutive fully clock-gated intervals after which a run aborts: a
    #: sane stop-go policy releases as soon as leakage-only cooling brings
    #: the die below its trigger, so a streak this long means the trigger is
    #: unreachable (e.g. set below the ambient temperature).
    _MAX_GATED_STREAK = 10_000
    #: Whether per-core DTM policies may gate whole intervals.  Stop-go is a
    #: package-level decision, so only a layout whose one core is the whole
    #: package grants it.
    _core_gating = False

    # Chip-level couplings, set by ``__init__`` when configured.
    chip_policy: Optional[ChipDTMPolicy] = None
    chip_controls: Optional[ChipControls] = None
    contention: Optional[ContentionConfig] = None
    _contention_model: Optional[SharedLLCContention] = None
    _dvfs_residency: Optional[np.ndarray] = None

    def __init__(
        self,
        config: ProcessorConfig,
        uop_sources: Sequence[Iterable[MicroOp]],
        benchmarks: Sequence[str],
        cores: Optional[int] = None,
        interval_cycles: Optional[int] = None,
        prewarm_caches: bool = True,
        chip_policy: Optional[Union[ChipDTMPolicy, str]] = None,
        core_policies: Optional[Sequence[Optional[Union[DTMPolicy, str]]]] = None,
        timing_mode: str = "auto",
        contention: Optional[Union[ContentionConfig, str]] = None,
    ) -> None:
        if len(uop_sources) != len(benchmarks):
            raise ValueError(
                f"{len(uop_sources)} uop sources for {len(benchmarks)} benchmarks"
            )
        if not benchmarks:
            raise ValueError("a chip run needs at least one thread")
        self.cores = cores if cores is not None else len(benchmarks)
        if len(benchmarks) > self.cores:
            raise ValueError(
                f"{len(benchmarks)} threads do not fit on {self.cores} cores "
                "(at most one thread per core)"
            )
        self.physics, self.core_index, _ = build_chip_physics(
            config, self.cores, interval_cycles
        )

        # Shared-LLC / memory-bandwidth contention (repro.chip.contention).
        if isinstance(contention, str) or contention is None:
            contention = make_contention(contention)
        if contention is not None:
            self.contention = contention
            self._contention_model = SharedLLCContention(contention, config)
            #: Per-thread extra UL2 miss latency applied to the next interval
            #: (always zero on the first interval — the feedback lags one
            #: interval, like the thermal sensors).
            self._contention_extra: List[int] = [0] * len(benchmarks)
            self._contention_prev_misses: List[int] = [0] * len(benchmarks)

        # Chip-level DTM.
        if isinstance(chip_policy, str):
            chip_policy = make_chip_policy(chip_policy)
        if chip_policy is not None:
            self.chip_policy = chip_policy
            self.chip_controls = ChipControls(self.cores, table=chip_policy.table)
            self.chip_sensors = SensorBank(self.physics.block_index.names)
            chip_policy.bind(self.cores, config, self.chip_controls)
            self._dvfs_residency = np.zeros(len(self.chip_controls.table))
        self._bind_threads(
            config, uop_sources, benchmarks, core_policies, timing_mode, prewarm_caches
        )

    def _bind_threads(
        self,
        config: ProcessorConfig,
        uop_sources: Sequence[Iterable[MicroOp]],
        benchmarks: Sequence[str],
        core_policies: Optional[Sequence[Optional[Union[DTMPolicy, str]]]],
        timing_mode: str,
        prewarm_caches: bool,
    ) -> None:
        """Place the threads on the layout's die; shared by every layout.

        Expects ``self.cores``, ``self.physics`` and ``self.core_index``.
        """
        self.config = config
        self.benchmarks = tuple(benchmarks)
        self.interval_cycles = self.physics.interval_cycles
        self.block_index = self.physics.block_index
        self.blocks_per_core = len(self.core_index)
        self.num_threads = len(benchmarks)
        #: Core currently executing each thread.
        self.thread_core: List[int] = list(range(self.num_threads))
        #: Thread on each core (-1 = idle).
        self.core_thread: List[int] = [
            t if t < self.num_threads else -1 for t in range(self.cores)
        ]
        self._finished = [False] * self.num_threads
        self.migration_log: List[Dict] = []

        # Per-core (per-thread) DTM: a policy, its controls and telemetry per
        # thread (``None`` without a policy), all sampling one sensor bank.
        core_policies = core_policies or [None] * self.num_threads
        if len(core_policies) != self.num_threads:
            raise ValueError(
                f"{len(core_policies)} per-core policies for "
                f"{self.num_threads} threads"
            )
        self.core_policies: List[Optional[DTMPolicy]] = [
            make_policy(policy) if isinstance(policy, str) else policy
            for policy in core_policies
        ]
        self.core_controls: List[Optional[DTMControls]] = []
        self.core_telemetry: List[Optional[DTMTelemetry]] = []
        for policy in self.core_policies:
            controls = telemetry = None
            if policy is not None:
                controls = DTMControls(self.core_index, table=policy.table)
                policy.bind(self.core_index, config, controls)
                telemetry = DTMTelemetry(controls.table)
            self.core_controls.append(controls)
            self.core_telemetry.append(telemetry)
        if any(self.core_policies):
            self.core_sensors = SensorBank(self.core_index.names)

        # Timing-mode selection by capability: feedback (chip or per-core
        # policies, contention) only bars replay (``replay_safe_reason``);
        # the fast core takes it as interval-boundary control inputs.
        self.timing_mode = timing_mode
        stage_cls, self.timing_fallback_reason = select_timing_stage(
            timing_mode, config, uop_sources
        )
        self.resolved_timing_mode = (
            "reference" if self.timing_fallback_reason is not None else "fast"
        )
        self.timings: List[TimingStage] = [
            stage_cls(
                config,
                source,
                self.interval_cycles,
                self.core_index,
                prewarm_caches=prewarm_caches,
            )
            for source in uop_sources
        ]

    # ------------------------------------------------------------------
    def _core_slice(self, core: int) -> slice:
        return slice(core * self.blocks_per_core, (core + 1) * self.blocks_per_core)

    @property
    def replay_safe_reason(self) -> Optional[str]:
        """Why this run cannot be captured for replay (``None`` = it can)."""
        return chip_feedback_reason(
            self.config, self.contention, self.chip_policy, self.core_policies
        )

    # ------------------------------------------------------------------
    # DTM hooks
    # ------------------------------------------------------------------
    def _apply_policies(self, interval_index: int) -> Optional[DTMPolicy]:
        """Observe the die and actuate chip + per-core policies.

        Returns the per-core policy granted a fully clock-gated interval, if
        any.  Interval 0 is the post-warm-up observation: its cycles already
        ran, so migration and gating cannot apply; operating points can.
        """
        temps = self.physics.temperature_array
        if self.chip_policy is not None:
            readings = self.chip_sensors.read_array(temps)
            per_core = readings.reshape(self.cores, self.blocks_per_core)
            busy = np.array(
                [self.core_thread[c] >= 0 for c in range(self.cores)], dtype=bool
            )
            self.chip_controls.begin_interval(migration_allowed=interval_index > 0)
            self.chip_policy.apply(
                ChipObservation(interval_index, per_core.max(axis=1), busy),
                self.chip_controls,
            )
            self._execute_migration(interval_index)
        gating = None
        for t, policy in enumerate(self.core_policies):
            if policy is None or self._finished[t]:
                continue
            controls = self.core_controls[t]
            # The controller sees a denied gate request as denied.
            step_policy(
                policy,
                controls,
                self.core_sensors,
                temps[self._core_slice(self.thread_core[t])],
                interval_index,
                gating_allowed=self._core_gating and interval_index > 0,
            )
            if controls.gate_interval:
                gating = policy
        self._apply_fetch_gates()
        return gating

    def _execute_migration(self, interval_index: int) -> None:
        migration = self.chip_controls.migration
        if migration is None:
            return
        source, target = migration
        thread = self.core_thread[source]
        if thread < 0 or self._finished[thread] or self.core_thread[target] >= 0:
            return
        self.core_thread[source] = -1
        self.core_thread[target] = thread
        self.thread_core[thread] = target
        self.migration_log.append(
            {
                "interval": interval_index,
                "thread": thread,
                "from": source,
                "to": target,
            }
        )

    def _apply_fetch_gates(self) -> None:
        """Translate chip DVFS ratios and per-core duties into fetch gates.

        Each core is its own clock domain: a core's fetch duty is the
        stricter of its chip-level frequency ratio and whatever its per-core
        policy requested.
        """
        for t, timing in enumerate(self.timings):
            if self._finished[t]:
                continue
            on = FETCH_DUTY_PERIOD
            if self.chip_controls is not None:
                ratio = self.chip_controls.freq_ratio(self.thread_core[t])
                on = min(on, max(1, round(ratio * FETCH_DUTY_PERIOD)))
            controls = self.core_controls[t]
            if controls is not None:
                on = min(on, controls.effective_fetch_on_cycles)
            if on < FETCH_DUTY_PERIOD:
                timing.processor.set_fetch_gate(on, FETCH_DUTY_PERIOD)
            else:
                timing.processor.clear_fetch_gate()

    def _power_scales(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Chip-wide (dynamic, leakage) multiplier vectors, or ``(None, None)``.

        Chip-level DVFS scales whole cores; per-core policy scales apply to
        the thread's current core slice on top.  ``(None, None)`` while
        everything sits at nominal keeps the hot path bit-identical to the
        policy-free pipeline.
        """
        dynamic = leakage = None
        if self.chip_controls is not None and not self.chip_controls.at_nominal():
            dynamic = np.ones(len(self.block_index))
            leakage = np.ones(len(self.block_index))
            table = self.chip_controls.table
            for core in range(self.cores):
                step = self.chip_controls.core_step(core)
                if step:
                    point = table[step]
                    seg = self._core_slice(core)
                    dynamic[seg] = point.dynamic_scale
                    leakage[seg] = point.leakage_scale
        for t, controls in enumerate(self.core_controls):
            if controls is None or self._finished[t]:
                continue
            core_dynamic, core_leakage = controls.power_scales()
            if core_dynamic is None:
                continue
            if dynamic is None:
                dynamic = np.ones(len(self.block_index))
                leakage = np.ones(len(self.block_index))
            seg = self._core_slice(self.thread_core[t])
            dynamic[seg] *= core_dynamic
            leakage[seg] *= core_leakage
        return dynamic, leakage

    def _die_vector(self, parts, fill):
        """Lay ``(thread, per-core value)`` parts over the die, ``fill`` elsewhere.

        One core spans the whole die, so its part *is* the die-wide value; a
        scalar cycle count then stays a scalar, which the power model divides
        by bit-identically to a vector of equal entries.
        """
        if self.cores == 1:
            return parts[0][1]
        vector = np.full(len(self.block_index), fill)
        for t, part in parts:
            vector[self._core_slice(self.thread_core[t])] = part
        return vector

    def _gated_mask(self, threads: Sequence[int]) -> Optional[np.ndarray]:
        """Die-wide Vdd-gated-bank mask of ``threads``, or ``None``."""
        parts = [(t, self.timings[t].gated_state()[1]) for t in threads]
        parts = [(t, mask) for t, mask in parts if mask is not None]
        return self._die_vector(parts, False) if parts else None

    # ------------------------------------------------------------------
    # The coupled interval loop
    # ------------------------------------------------------------------
    def _run_threads(self, recorders: Optional[Sequence[TraceRecorder]]):
        """Advance every running thread by one interval.

        Returns the die-wide ``(counts, cycles, chip_cycles, gated_mask,
        ran)`` — ``chip_cycles`` is the longest any core ran, ``ran`` the
        threads that ran — or ``None`` once no thread has cycles left.
        """
        outputs = []
        for t, timing in enumerate(self.timings):
            if self._finished[t]:
                continue
            if self._contention_model is not None:
                # Actuate last interval's contention verdict: the thread's UL2
                # misses pay the queueing delay its co-runners' traffic
                # imposed (zero on interval 0 and when no co-runner missed).
                timing.processor.ul2.extra_miss_latency = self._contention_extra[t]
            thread_counts, thread_cycles = timing.run_interval(self.interval_cycles)
            if thread_counts is None:
                self._retire(t)
                continue
            outputs.append((t, thread_counts, thread_cycles))
            if recorders is not None:
                _, mask = timing.gated_state()
                recorders[t].record(
                    thread_counts, thread_cycles, timing.processor.cycle, mask
                )
        if not outputs:
            return None
        ran = [t for t, _, _ in outputs]
        chip_cycles = max(cycles for _, _, cycles in outputs)
        if self._contention_model is not None:
            deltas = []
            for t, timing in enumerate(self.timings):
                misses = timing.processor.ul2.misses
                deltas.append(misses - self._contention_prev_misses[t])
                self._contention_prev_misses[t] = misses
            self._contention_extra = self._contention_model.extra_latencies(
                deltas, chip_cycles if chip_cycles > 0 else self.interval_cycles
            )
        counts = self._die_vector([(t, c) for t, c, _ in outputs], 0.0)
        cycles = self._die_vector([(t, n) for t, _, n in outputs], self.interval_cycles)
        return counts, cycles, chip_cycles, self._gated_mask(ran), ran

    def _retire(self, thread: int) -> None:
        """Mark ``thread`` finished and leave its core idle."""
        self._finished[thread] = True
        self.core_thread[self.thread_core[thread]] = -1

    def _run(
        self,
        max_intervals: Optional[int],
        warmup: bool,
        recorders: Optional[Sequence[TraceRecorder]],
    ) -> SimulationResult:
        """The coupled loop of every layout; see :meth:`run`."""
        if recorders is not None:
            reason = self.replay_safe_reason
            if reason is not None:
                raise ValueError(f"cannot capture an activity trace: {reason}")
            if len(recorders) != self.num_threads:
                raise ValueError(
                    f"{len(recorders)} recorders for {self.num_threads} threads"
                )
        physics = self.physics
        result = physics.new_result("+".join(self.benchmarks))
        interval_seconds = self.config.thermal.interval_seconds
        any_policy = self.chip_policy is not None or any(
            policy is not None for policy in self.core_policies
        )
        interval_index = 0
        chip_cycle = 0
        gated_streak = 0

        # The run ends once every processor has drained its trace.
        while not all(timing.processor.finished for timing in self.timings):
            if max_intervals is not None and interval_index >= max_intervals:
                break
            gating = None
            if any_policy and interval_index > 0:
                gating = self._apply_policies(interval_index)
            seconds = (interval_index + 1) * interval_seconds
            if gating is not None:
                # Fully clock-gated interval (stop-go DTM): wall-clock
                # advances, no core does, and only leakage heats the die.
                gated_streak += 1
                if gated_streak > self._MAX_GATED_STREAK:
                    raise RuntimeError(
                        f"DTM policy {gating.name!r} clock-gated "
                        f"{gated_streak} consecutive intervals; its trigger "
                        "temperature is unreachable by cooling"
                    )
                ran = [t for t, done in enumerate(self._finished) if not done]
                _, leakage_scale = self._power_scales()
                physics.leakage_only_interval(
                    cycle=chip_cycle,
                    seconds=seconds,
                    gated_mask=self._gated_mask(ran),
                    leakage_scale=leakage_scale,
                )
            else:
                gated_streak = 0
                interval = self._run_threads(recorders)
                if interval is None:
                    break
                counts, cycles, chip_cycles, gated_mask, ran = interval
                if interval_index == 0 and warmup:
                    physics.warmup(counts, cycles, gated_mask)
                    if any_policy:
                        # Observe the warmed-up die before the first power
                        # step: under DTM the processor would have been
                        # managed throughout the warm-up history too, so
                        # interval 0's power already runs at the policies'
                        # operating points.  Its cycles already ran, so
                        # migration, gating and fetch actuation take effect
                        # from interval 1.
                        self._apply_policies(0)
                dynamic_scale, leakage_scale = (
                    self._power_scales() if any_policy else (None, None)
                )
                chip_cycle += chip_cycles
                physics.interval_pipeline(
                    counts,
                    cycles,
                    cycle=chip_cycle,
                    seconds=seconds,
                    gated_mask=gated_mask,
                    dynamic_scale=dynamic_scale,
                    leakage_scale=leakage_scale,
                    dt_cycles=chip_cycles,
                )
            if self._dvfs_residency is not None:
                steps = self.chip_controls.steps
                self._dvfs_residency += (
                    np.bincount(steps, minlength=len(self._dvfs_residency))
                    / self.cores
                )
            for t in ran:
                controls = self.core_controls[t]
                if controls is not None:
                    # Interval 0's cycles ran before any policy could gate
                    # fetch, so its duty and frequency are charged at nominal.
                    self.core_telemetry[t].record_interval(
                        controls,
                        gated=gating is not None,
                        fetch_actuated=interval_index > 0,
                    )
                if gating is None:
                    # Bank hops and remaps are clocked: a gated interval
                    # skips them.
                    self.timings[t].apply_bank_management(
                        interval_index,
                        physics.temperature_array[self._core_slice(self.thread_core[t])],
                    )
                if self.timings[t].processor.finished:
                    # Drained in this interval: the next policy step sees
                    # its core idle and can no longer migrate it.
                    self._retire(t)
            interval_index += 1

        physics.intervals.finish()
        result.warmup_temperature = physics.warmup_temperatures
        for timing in self.timings:
            stats = timing.processor.stats
            stats.trace_cache_hits = timing.processor.trace_cache.hits
            stats.trace_cache_misses = timing.processor.trace_cache.misses
            stats.trace_cache_hop_flushes = timing.processor.trace_cache.hop_flushes
        return self._finish(result, chip_cycle)

    def _finish(self, result: SimulationResult, chip_cycles: int):
        """The chip result shape: aggregate stats plus ``result.chip``."""
        temperatures = result.intervals.temperature
        dvfs_residency = None
        if self._dvfs_residency is not None and len(temperatures):
            dvfs_residency = residency_by_freq_ratio(
                self.chip_controls.table, self._dvfs_residency / len(temperatures)
            )
        return _finish_chip_result(
            result,
            cores=self.cores,
            benchmarks=self.benchmarks,
            per_thread_stats=[timing.processor.stats for timing in self.timings],
            final_cores=self.thread_core,
            temperatures=temperatures,
            chip_cycles=chip_cycles,
            policy_name=self.chip_policy.name if self.chip_policy else None,
            migration_log=self.migration_log,
            dvfs_residency=dvfs_residency,
            thread_dtm=[
                None if telemetry is None else telemetry.as_dict()
                for telemetry in self.core_telemetry
            ],
            contention=(
                self._contention_model.telemetry()
                if self._contention_model is not None
                else None
            ),
        )

    def run(
        self,
        max_intervals: Optional[int] = None,
        warmup: bool = True,
        recorders: Optional[Sequence[TraceRecorder]] = None,
    ) -> SimulationResult:
        """Run every thread to completion and return the chip-wide result.

        With ``recorders`` (one per thread), each thread's timing output is
        also captured as a per-core activity trace — refused when any policy
        couples temperatures back into timing.
        """
        return self._run(max_intervals, warmup, recorders)

    def run_with_traces(
        self,
        max_intervals: Optional[int] = None,
        warmup: bool = True,
        trace_provenances: Optional[Sequence[Optional[Dict]]] = None,
    ) -> Tuple[SimulationResult, Tuple[ActivityTrace, ...]]:
        """Coupled run that also captures every thread's activity trace.

        A thread's trace is the same whatever layout captured it — byte for
        byte as a canonical JSON document — which is what lets the campaign
        layer serve chip sweeps from cached single-core traces.
        ``trace_provenances`` (one per thread) may carry *timing-side*
        generation parameters only (seed, trace length).
        """
        if trace_provenances is None:
            trace_provenances = [None] * self.num_threads
        recorders = [
            TraceRecorder(
                benchmark,
                self.core_index.names,
                self.interval_cycles,
                provenance=provenance,
            )
            for benchmark, provenance in zip(self.benchmarks, trace_provenances)
        ]
        result = self.run(max_intervals=max_intervals, warmup=warmup, recorders=recorders)
        traces = tuple(
            recorder.finish(timing.processor.stats)
            for recorder, timing in zip(recorders, self.timings)
        )
        return result, traces


class ChipReplayCell(ReplayCell):
    """A chip cell of the replay path: N per-core traces on one composite die.

    Differs from the single-core :class:`~repro.sim.group_replay.ReplayCell`
    only in how its die and power model are built (per-core namespaced
    blocks, ``cores`` abutting dies) and in the chip telemetry folded into
    its result.  ``chip_policy`` may only be a non-feedback policy
    (``"none"``); a feedback-bearing chip policy migrates threads by
    temperature, so its cells must be simulated coupled.
    """

    policy_kind = "chip DTM policy"

    def __init__(
        self,
        config: ProcessorConfig,
        cores: int,
        interval_cycles: Optional[int] = None,
        chip_policy: Optional[Union[ChipDTMPolicy, str]] = None,
        layout=None,
    ) -> None:
        if isinstance(chip_policy, str):
            chip_policy = make_chip_policy(chip_policy)
        super().__init__(config, chip_policy, interval_cycles)
        self.cores = cores
        #: The composite die's :func:`chip_layout` (shared within a group).
        self.layout = layout or chip_layout(config, cores)

    def die(self) -> PhysicsStage:
        return build_chip_physics(
            self.config, self.cores, self.interval_cycles, self.layout
        )[0]

    def power_model(self) -> PowerModel:
        return PowerModel(self.config.power, self.layout[0])

    def finish(
        self, result: SimulationResult, die, stack: TraceStack, temperatures
    ) -> SimulationResult:
        """Fold the chip telemetry from the recorded temperature vectors."""
        traces = stack.traces
        # A non-feedback chip policy never leaves the nominal VF point, so its
        # residency is a pure function of the interval count — reconstruct it
        # exactly as the coupled loop records it.
        return _finish_chip_result(
            result,
            cores=self.cores,
            benchmarks=[trace.benchmark for trace in traces],
            per_thread_stats=[trace.stats_copy() for trace in traces],
            final_cores=list(range(len(traces))),
            temperatures=temperatures,
            chip_cycles=int(stack.chip_cycles.sum()),
            policy_name=self.policy.name if self.policy else None,
            migration_log=(),
            dvfs_residency=(
                {"1": 1.0} if self.policy is not None and len(temperatures) else None
            ),
            thread_dtm=[None] * len(traces),
        )


def replay_chip(
    config: ProcessorConfig,
    traces: Sequence[ActivityTrace],
    cores: Optional[int] = None,
    interval_cycles: Optional[int] = None,
    warmup: bool = True,
    chip_policy: Optional[Union[ChipDTMPolicy, str]] = None,
) -> SimulationResult:
    """Replay N per-core activity traces through one composite-die physics.

    The chip analogue of :meth:`~repro.sim.engine.PhysicsStage.replay`: the
    N-trace layout of :mod:`repro.sim.group_replay`'s exact walk — the
    per-core count matrices stack into one ``(intervals x total_blocks)``
    activity matrix and the sequential leakage/thermal chain walks the
    intervals over the shared RC network.  Bit-identical to the coupled
    :meth:`ChipEngine.run` of the same mix — threads that finish early idle
    at zero activity (idle and leakage power only), exactly as the coupled
    loop leaves them.
    """
    cell = ChipReplayCell(
        config,
        cores if cores is not None else len(traces),
        interval_cycles,
        chip_policy,
    )
    return replay_cells([cell], traces, warmup=warmup)[0]


def replay_chip_group(
    traces: Sequence[ActivityTrace],
    specs: Sequence[object],
    *,
    replay_mode: str = "exact",
    warmup: bool = True,
) -> List[SimulationResult]:
    """Replay one per-core trace tuple under many chip physics variants.

    The chip analogue of :func:`repro.sim.group_replay.replay_group`:
    ``specs`` are :class:`~repro.chip.spec.ChipRunSpec` cells of one
    trace-set replay group (same mix — only physics-side configuration
    varies).  ``"exact"`` replays every cell alone, bit-identical to the
    coupled run; ``"batched"`` sub-groups the cells by thermal/floorplan
    key (plus core count, which shapes the composite die's network) and
    advances each sub-group's cells per interval in one multi-RHS solve,
    within the same rtol/atol 1e-8 contract as the single-core batched
    path.  Results come back in ``specs`` order.  Cells over one
    single-core layout and core count share one composite die layout,
    composed once per call.
    """
    layouts: Dict[Tuple[int, int], tuple] = {}
    cells = []
    for spec in specs:
        core = core_layout(spec.config)
        key = (id(core), spec.cores)
        if key not in layouts:
            # The core layout rides along so its id stays unique meanwhile.
            layouts[key] = (chip_layout(spec.config, spec.cores), core)
        cells.append(
            ChipReplayCell(
                spec.config,
                spec.cores,
                spec.interval_cycles,
                spec.chip_policy,
                layouts[key][0],
            )
        )
    return replay_cells(cells, traces, replay_mode=replay_mode, warmup=warmup)
