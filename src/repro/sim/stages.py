"""The two stages of the simulation core: per-uop timing and array physics.

* :class:`TimingStage` — the per-uop pipeline simulation.  It advances the
  :class:`~repro.sim.processor.Processor` by one interval, drains the
  per-block activity counters into a block-index-ordered vector, and runs
  the paper's *deterministic* timing-side mechanisms: the bank-hopping
  rotation of the Vdd-gated trace-cache bank and the mapping-table rebuild
  (every 10 M cycles in the paper).
* :class:`PhysicsStage` — everything downstream of the activity counts:
  dynamic power -> temperature-dependent leakage -> thermal RC advance ->
  sensors -> :class:`~repro.sim.results.IntervalRecord`, fully array-backed
  (see ``docs/interval-pipeline.md``).

The one loop coupling them interval by interval is
:class:`repro.chip.engine.ChipEngine`'s.  The timing stage is a cycle-level
simulation (about 14k uops/s on the per-uop reference, about 290k on the
native core) that never reads ``config.power``/``config.thermal``, while the
physics stage is fast NumPy and is what a parameter sweep varies.  So the
timing stage's output can be captured once as an
:class:`~repro.sim.activity_trace.ActivityTrace` and *replayed* under any
physics-side variant (:meth:`PhysicsStage.replay`), bit-identical to the
coupled run.  Replay is only sound when temperatures never feed back into
timing; :func:`~repro.sim.activity_trace.timing_feedback_reason` detects
the configurations that do (thermal-aware mapping, feedback DTM policies).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bank_hopping import BankHoppingController
from repro.core.thermal_mapping import BalancedMappingPolicy, ThermalAwareMappingPolicy
from repro.dtm.policies import DTMPolicy
from repro.isa.microops import MicroOp
from repro.power.power_model import PowerModel
from repro.sim import blocks, native
from repro.sim.activity_trace import ActivityTrace
from repro.sim.block_index import BlockIndex
from repro.sim.config import ProcessorConfig
from repro.sim.group_replay import (
    ReplayCell,
    check_traces,
    exact_warmup_state,
    replay_exact,
    stack_traces,
)
from repro.sim.processor import Processor
from repro.sim.results import IntervalRecord, SimulationResult
from repro.sim.warmcache import core_layout, solver_bundle
from repro.thermal.sensors import SensorBank
from repro.workloads.generator import WorkloadSpec


class TimingStage:
    """Per-uop pipeline simulation: the processor plus its timing-side hooks.

    Owns the :class:`Processor`, the (optional) bank-hopping controller and
    the bank mapping policy.  The stage never reads a power or thermal
    parameter; the only physics input it can consume is the temperature
    vector handed to :meth:`apply_bank_management` — and only the
    thermal-aware mapping policy actually uses it, which is exactly the
    configuration :func:`timing_feedback_reason` excludes from replay.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        uop_source: Union[Iterable[MicroOp], WorkloadSpec],
        interval_cycles: int,
        block_index: BlockIndex,
        prewarm_caches: bool = True,
    ) -> None:
        self.config = config
        self.interval_cycles = interval_cycles
        #: The canonical block order every emitted activity/gating vector is
        #: laid out in (the physics stage's power-model index).
        self.block_index = block_index

        # A whole workload (not a stream) lets the engine functionally
        # pre-warm the UL2 with the trace's footprint, as sampled-simulation
        # methodologies do, so the short measured slice is not dominated by
        # cold misses the paper's 200 M-instruction slices would have
        # amortized.  ``_build_processor`` records that footprint's source.
        self._prewarm_source = None
        self.processor = self._build_processor(config, uop_source)
        if prewarm_caches and self._prewarm_source is not None:
            self._prewarm_memory(self._prewarm_source)

        tc_config = config.frontend.trace_cache
        self.tc_bank_blocks = blocks.trace_cache_blocks(config)
        self.sensors = SensorBank(self.tc_bank_blocks)
        self.hopping: Optional[BankHoppingController] = None
        if tc_config.bank_hopping or tc_config.blank_silicon:
            static_gated = []
            if tc_config.blank_silicon:
                # Statically gate the extra (highest-numbered) banks.
                spare = tc_config.physical_banks - tc_config.active_banks
                static_gated = list(
                    range(tc_config.physical_banks - spare, tc_config.physical_banks)
                )
            self.hopping = BankHoppingController(
                physical_banks=tc_config.physical_banks,
                active_banks=tc_config.active_banks,
                hop_interval_cycles=tc_config.hop_interval_cycles,
                enabled=tc_config.bank_hopping,
                static_gated_banks=static_gated,
            )
            self.processor.trace_cache.set_enabled_banks(self.hopping.enabled_banks)
            self.processor.trace_cache.set_balanced_mapping()
        if tc_config.thermal_aware_mapping:
            self.mapping_policy = ThermalAwareMappingPolicy(
                tc_config.mapping_table_entries, tc_config.bias_threshold_celsius
            )
        else:
            self.mapping_policy = BalancedMappingPolicy(tc_config.mapping_table_entries)
        # Intervals between hops / remaps, expressed in thermal intervals.
        self._hop_every = max(1, round(tc_config.hop_interval_cycles / interval_cycles))
        self._remap_every = max(1, round(tc_config.remap_interval_cycles / interval_cycles))

        self._gated_cache: Tuple[tuple, list, np.ndarray] = (
            (),
            [],
            np.zeros(len(block_index), dtype=bool),
        )

    # ------------------------------------------------------------------
    def _build_processor(self, config: ProcessorConfig, uop_source) -> Processor:
        """Instantiate the timing core (overridden by the fast path).

        The reference core reads ``MicroOp`` objects, so a
        :class:`~repro.workloads.generator.WorkloadSpec` is expanded through
        the Python generator.
        """
        if isinstance(uop_source, WorkloadSpec):
            uop_source = uop_source.expand()
        if isinstance(uop_source, Sequence):
            self._prewarm_source = uop_source
            return Processor(config, iter(list(uop_source)))
        return Processor(config, iter(uop_source))

    # ------------------------------------------------------------------
    def _prewarm_memory(self, trace) -> None:
        """Touch the trace's data footprint in the UL2 (functional warm-up).

        Only the UL2 is warmed: the small per-cluster L1 caches reach steady
        state within the measured slice, but the 2 MB UL2 would otherwise
        spend the whole short slice taking cold misses with the 500-cycle
        memory latency, which the paper's long traces do not suffer.
        """
        warm = getattr(self.processor, "prewarm_ul2", None)
        if warm is not None:
            # Fast-path processors warm from their decoded address arrays
            # (one bulk call; avoids per-uop traffic into the native core).
            warm()
            return
        ul2 = self.processor.ul2
        for uop in trace:
            if uop.mem_addr is not None:
                ul2.access(uop.mem_addr)
        # The warm-up accesses are functional only; reset the statistics.
        ul2.hits = 0
        ul2.misses = 0

    def gated_state(self) -> Tuple[list, Optional[np.ndarray]]:
        """Names and block-index mask of the Vdd-gated trace-cache banks.

        Cached per gated-bank set: the set only changes when the hopping
        controller rotates, so the steady intervals between hops reuse one
        mask instead of rebuilding it.
        """
        if self.hopping is None:
            return [], None
        banks = tuple(self.hopping.gated_banks)
        cached = self._gated_cache
        if cached[0] != banks:
            names = [blocks.trace_cache_bank_block(b) for b in banks]
            cached = (banks, names, self.block_index.mask(names))
            self._gated_cache = cached
        return cached[1], cached[2]

    def run_interval(self, max_cycles: int) -> Tuple[Optional[np.ndarray], int]:
        """Advance the processor by one interval and drain the activity counts.

        Returns ``(counts, cycles_elapsed)`` in block-index order, or
        ``(None, 0)`` when the trace ended exactly on the previous interval
        boundary (no cycles ran).
        """
        processor = self.processor
        start_cycle = processor.cycle
        processor.run_cycles(max_cycles)
        cycles_elapsed = processor.cycle - start_cycle
        if cycles_elapsed == 0:
            return None, 0
        return processor.activity.end_interval_array(self.block_index), cycles_elapsed

    def apply_bank_management(self, interval_index: int, temperatures: np.ndarray) -> None:
        """Rotate the gated bank and rebuild the mapping table when due.

        ``temperatures`` is the physics stage's block-temperature vector
        (degrees Celsius, block-index order); only the thermal-aware mapping
        policy reads it.
        """
        tc = self.processor.trace_cache
        tc_config = self.config.frontend.trace_cache
        hopped = False
        if (
            self.hopping is not None
            and self.hopping.enabled
            and (interval_index + 1) % self._hop_every == 0
        ):
            self.hopping.hop()
            tc.set_enabled_banks(self.hopping.enabled_banks)
            self.processor.stats.trace_cache_hop_flushes = tc.hop_flushes
            hopped = True
        remap_due = (interval_index + 1) % self._remap_every == 0
        if hopped or (remap_due and tc_config.thermal_aware_mapping):
            enabled = tc.enabled_banks()
            # Sensors read only the trace-cache banks; build just that small
            # mapping from the temperature vector (the result boundary).
            index = self.block_index
            readings = self.sensors.read_all(
                {
                    name: float(temperatures[index.position(name)])
                    for name in self.tc_bank_blocks
                }
            )
            bank_temps = {
                bank: readings[blocks.trace_cache_bank_block(bank)] for bank in enabled
            }
            shares = self.mapping_policy.compute_shares(enabled, bank_temps)
            tc.set_mapping_shares(shares)


#: Accepted values of the engines' ``timing_mode`` selector.
TIMING_MODES = ("auto", "fast", "reference")


def select_timing_stage(
    timing_mode: str,
    config: ProcessorConfig,
    uop_sources: Sequence[Union[Iterable[MicroOp], WorkloadSpec]],
) -> Tuple[type, Optional[str]]:
    """The timing-stage class of a run, and why it is not the fast path.

    Selection is by capability alone: the native core takes every
    frontend organization and every interval-boundary control the engines
    apply (bank hops and remaps, including the thermal-aware mapping, DTM
    fetch duty and DVFS, skipped clock-gated intervals, the contention
    model's extra UL2 miss latency), so closed-loop runs qualify exactly
    like open-loop ones.  Physics feedback only decides *replay*
    eligibility (:func:`~repro.sim.activity_trace.timing_feedback_reason`).
    A :class:`~repro.workloads.generator.WorkloadSpec` or a materialized uop
    sequence qualifies; the fast path is out of reach for a streaming uop
    source (it cannot be batch-decoded) and wherever
    :func:`~repro.sim.native.native_unavailable_reason` reports the core
    unavailable (``REPRO_NATIVE=0``, no C compiler or a failed build, more
    than 8 clusters).  Those, and ``timing_mode="reference"``, run the
    per-uop golden reference with the reason returned (``None`` on the fast
    path); ``timing_mode="fast"`` refuses instead of falling back.
    """
    if timing_mode not in TIMING_MODES:
        raise ValueError(
            "timing_mode must be 'auto', 'fast' or 'reference', "
            f"not {timing_mode!r}"
        )
    if timing_mode == "reference":
        return TimingStage, "timing_mode='reference' requested"
    if all(isinstance(source, (Sequence, WorkloadSpec)) for source in uop_sources):
        fallback = native.native_unavailable_reason(config)
    else:
        fallback = "streaming uop source cannot be batch-decoded"
    if fallback is None:
        from repro.sim.fast_timing import FastTimingStage

        return FastTimingStage, None
    if timing_mode == "fast":
        raise ValueError(f"timing_mode='fast' is not applicable: {fallback}")
    return TimingStage, fallback


class PhysicsStage:
    """Power -> leakage -> thermal -> record, over activity-count vectors.

    Owns every physics-side model of one cell: block power parameters, the
    floorplan and its RC network, the LU-factorized
    :class:`~repro.thermal.solver.ThermalSolver` and the
    :class:`~repro.power.power_model.PowerModel` (whose
    :class:`~repro.sim.block_index.BlockIndex` is the canonical block order
    of every per-interval vector).  The coupled engine feeds it one drained
    activity-count vector per interval; :meth:`replay` feeds it a whole
    captured :class:`~repro.sim.activity_trace.ActivityTrace` instead —
    the same arithmetic, in the same order, so the results are bit-identical.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        interval_cycles: Optional[int] = None,
        *,
        block_parameters=None,
        floorplan=None,
        block_groups=None,
    ) -> None:
        """Build the physics of one die.

        By default the die is the single-core processor ``config`` describes:
        block power parameters from the power model, the paper's floorplan,
        the paper's block groups (:func:`~repro.sim.warmcache.core_layout`).
        The chip layer (:mod:`repro.chip`) instead injects all three of a
        *composite* die — per-core namespaced block parameters, a
        :func:`~repro.thermal.floorplan.compose_floorplans` core grid and
        chip-level block groups — and every downstream stage (RC network,
        solver, power model, block index) composes without change.  The
        die's node count picks the solver's factorization
        (``self.solver.backend``; see :mod:`repro.thermal.solver`).
        """
        self.config = config
        self.interval_cycles = interval_cycles or config.thermal.interval_cycles
        if self.interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        if block_parameters is None:
            block_parameters, floorplan, block_groups = core_layout(config)
        elif floorplan is None or block_groups is None:
            raise ValueError(
                "an injected die needs block_parameters, floorplan and block_groups"
            )
        self.block_parameters = dict(block_parameters)
        self.block_areas = {
            name: params.area_mm2 for name, params in self.block_parameters.items()
        }
        self.floorplan = floorplan
        self.block_groups = dict(block_groups)
        # The RC network and factorized solver are pure functions of the
        # floorplan geometry + thermal config, so they come from the
        # process-global warm cache: a persistent pool worker (or process
        # pool child) replaying a sweep factorizes each distinct die once,
        # not once per cell.  A warm bundle is bit-identical to a fresh one
        # (same inputs, same factorization).
        self.network, self.solver = solver_bundle(self.floorplan, config.thermal)
        self.power_model = PowerModel(config.power, self.block_parameters)

        # One block index (the power model's order) for every per-interval
        # vector, plus the explicit permutation that scatters block vectors
        # into thermal-node space.  The activity counters, the floorplan and
        # the power model each enumerate blocks in their own order, so
        # nothing here assumes the orders agree.
        self.block_index = self.power_model.index
        self.node_positions = self.network.node_positions(self.block_index.names)
        self._node_power = np.zeros(self.network.num_nodes)

        self._thermal_state = self.network.uniform_state(config.thermal.ambient_celsius)
        self.temperature_array: np.ndarray = self._thermal_state[self.node_positions]
        self.warmup_temperatures: Dict[str, float] = self.block_index.mapping_from_array(
            self.temperature_array
        )
        self.emergency_intervals = 0

    # ------------------------------------------------------------------
    def warmup(
        self,
        activity_counts: np.ndarray,
        cycles,
        gated_mask: Optional[np.ndarray],
    ) -> None:
        """Warm the die to the steady state of its nominal power.

        ``activity_counts`` are the first interval's per-block access counts
        (block-index order) over ``cycles`` cycles (a scalar, or a per-block
        vector on a composite die whose cores ran different cycle counts);
        the resulting dynamic power (W) is held constant while the
        leakage-temperature fixed point iterates (temperatures in degrees
        Celsius, limit 381 K).
        """
        state = exact_warmup_state(
            self.solver,
            self.power_model,
            self.config,
            activity_counts,
            cycles,
            gated_mask,
            self.node_positions,
        )
        self._thermal_state = state
        self.temperature_array = state[self.node_positions]
        self.warmup_temperatures = self.block_index.mapping_from_array(
            self.temperature_array
        )

    def advance(self, dynamic: np.ndarray, leakage: np.ndarray, dt: float) -> None:
        """Shared thermal step of every interval: block power -> temperatures.

        Scatters the block power vectors (W) into thermal-node space,
        advances the RC network by ``dt`` seconds, refreshes the cached
        block-temperature slice and counts emergency-limit intervals.  The
        coupled pipeline, the clock-gated DTM path and trace replay all step
        here, so the bookkeeping cannot diverge between them.
        """
        node_power = self._node_power
        node_power[:] = 0.0
        node_power[self.node_positions] = dynamic + leakage
        self._thermal_state = self.solver.advance_nodes(
            self._thermal_state, node_power, dt
        )
        # Fancy indexing copies, so each record owns its temperature vector.
        self.temperature_array = self._thermal_state[self.node_positions]
        if (
            float(self.temperature_array.max())
            >= self.config.thermal.emergency_limit_celsius
        ):
            self.emergency_intervals += 1

    def _advance_and_record(
        self,
        dynamic: np.ndarray,
        leakage: np.ndarray,
        dt: float,
        cycle: int,
        seconds: float,
    ) -> IntervalRecord:
        """:meth:`advance`, then the interval's record."""
        self.advance(dynamic, leakage, dt)
        return IntervalRecord.from_arrays(
            cycle=cycle,
            seconds=seconds,
            block_names=self.block_index.names,
            dynamic_power=dynamic,
            leakage_power=leakage,
            temperature=self.temperature_array,
        )

    def interval_pipeline(
        self,
        activity_counts: np.ndarray,
        cycles_elapsed,
        cycle: int,
        seconds: float,
        gated_mask: Optional[np.ndarray] = None,
        dynamic_scale: Optional[np.ndarray] = None,
        leakage_scale: Optional[np.ndarray] = None,
        dt_cycles: Optional[int] = None,
    ) -> IntervalRecord:
        """The power/thermal hot path of one interval: counts -> record.

        Converts a drained activity-count vector (block-index order) into
        dynamic and leakage power (W), advances the thermal RC network by the
        interval's wall-clock duration (s), tracks the emergency-limit
        counter and returns the interval's :class:`IntervalRecord` — all on
        NumPy vectors, with no per-block dict allocation.

        ``dynamic_scale`` / ``leakage_scale`` are the DTM DVFS power
        multiplier vectors (see :meth:`PowerModel.compute_arrays`); the
        frequency component of DVFS is realized through the fetch duty, so
        it arrives here already folded into ``activity_counts``.  The
        ``None`` defaults leave the arithmetic bit-identical to the pre-DTM
        pipeline.

        ``cycles_elapsed`` may be a per-block vector on a composite die (the
        chip layer concatenates per-core counts whose final intervals ran
        different lengths); ``dt_cycles`` then supplies the scalar cycle
        count the thermal network advances by (the chip clock: the longest
        any core ran this interval).  It defaults to ``cycles_elapsed``,
        which must be a scalar in that case.
        """
        dynamic, leakage = self.power_model.compute_arrays(
            activity_counts,
            cycles_elapsed,
            self.temperature_array,
            gated_mask,
            dynamic_scale,
            leakage_scale,
        )
        if dt_cycles is None:
            dt_cycles = cycles_elapsed
        dt = self.config.thermal.interval_seconds * (
            dt_cycles / self.interval_cycles
        )
        return self._advance_and_record(
            dynamic, leakage, dt, cycle=cycle, seconds=seconds
        )

    def leakage_only_interval(
        self,
        cycle: int,
        seconds: float,
        gated_mask: Optional[np.ndarray],
        leakage_scale: Optional[np.ndarray] = None,
    ) -> IntervalRecord:
        """Record one fully clock-gated interval (stop-go DTM).

        The processor executes nothing: dynamic power — clock distribution
        included — is 0 W, only leakage at the current temperatures is
        injected, and the thermal network advances by one full nominal
        interval of wall-clock (the clock is stopped; time is not).  The
        leakage model's running dynamic-power average is deliberately *not*
        updated: a gated interval says nothing about the workload's nominal
        power profile.
        """
        dynamic = np.zeros(len(self.block_index))
        leakage = self.power_model.leakage_model.leakage_power_array(
            self.temperature_array, gated_mask
        )
        if leakage_scale is not None:
            leakage = leakage * leakage_scale
        return self._advance_and_record(
            dynamic,
            leakage,
            self.config.thermal.interval_seconds,
            cycle=cycle,
            seconds=seconds,
        )

    # ------------------------------------------------------------------
    def new_result(self, benchmark: str) -> SimulationResult:
        """An empty result shell carrying this stage's physics metadata."""
        return SimulationResult(
            config_name=self.config.name,
            benchmark=benchmark,
            stats=None,  # filled in by the caller
            block_names=list(self.block_parameters.keys()),
            block_groups=self.block_groups,
            block_areas_mm2=self.block_areas,
            ambient_celsius=self.config.thermal.ambient_celsius,
            provenance={"interval_cycles": self.interval_cycles},
        )

    def replay(
        self,
        trace: ActivityTrace,
        max_intervals: Optional[int] = None,
        warmup: bool = True,
        dtm_policy: Optional[DTMPolicy] = None,
    ) -> SimulationResult:
        """Replay a captured activity trace through this cell's physics.

        The one-trace layout of :mod:`repro.sim.group_replay`'s exact walk:
        the same arithmetic, in the same order, as the coupled loop
        downstream of the activity counters, so the result is bit-identical
        to simulating the cell coupled, which
        ``tests/test_campaign_replay.py`` locks against the golden fixtures.

        ``dtm_policy`` may only be a non-feedback policy (the no-op
        ``"none"``); its telemetry is reconstructed exactly as the coupled
        run would have recorded it.
        """
        check_traces([trace], self.block_index.names, self.interval_cycles)
        cell = ReplayCell(self.config, dtm_policy, self.interval_cycles)
        stack = stack_traces([trace], 1, self.interval_cycles, max_intervals)
        return replay_exact(cell, self, stack, warmup)
