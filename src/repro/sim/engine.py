"""The single-core engine: the one-core layout of the coupled interval loop.

:class:`SimulationEngine` runs one benchmark on one processor.  The coupled
timing -> power -> leakage -> thermal loop it drives, and the activity-trace
capture riding on it, are written once, in
:class:`~repro.chip.engine.ChipEngine` (:mod:`repro.sim.stages` holds the
two stages they drive).  A layout fixes four things, and the single-core
layout sets them so:

* **die** — a :class:`~repro.sim.stages.PhysicsStage` over the processor
  ``config`` describes, with the paper's unprefixed block names;
* **threads** — one;
* **gating** — the DTM policy (``dtm_policy=``, see :mod:`repro.dtm`) is
  the package's policy, so whole-interval clock gating (stop-go) is granted
  from interval 1 on;
* **result** — ``result.stats`` is the thread's own statistics with the
  trace-cache counters folded in, ``result.dtm`` the policy telemetry, and
  there is no ``result.chip``.

The golden-metric suite locks the loop bit-for-bit.  The stage classes and
``TIMING_MODES`` are importable from here as well as from
:mod:`repro.sim.stages`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.chip.engine import ChipEngine
from repro.core.bank_hopping import BankHoppingController
from repro.dtm.policies import DTMPolicy
from repro.isa.microops import MicroOp
from repro.sim.activity_trace import ActivityTrace, TraceRecorder
from repro.sim.config import ProcessorConfig
from repro.sim.processor import Processor
from repro.sim.results import SimulationResult
from repro.sim.stages import (  # noqa: F401  (re-exported)
    TIMING_MODES,
    PhysicsStage,
    TimingStage,
)
from repro.thermal.solver import ThermalSolver


class SimulationEngine(ChipEngine):
    """Runs one benchmark on one configuration, producing a SimulationResult.

    The one-core layout of :class:`~repro.chip.engine.ChipEngine` (see the
    module docstring): the chip engine's interval loop and capture path over
    one :class:`TimingStage` and a single-core :class:`PhysicsStage`.
    """

    #: Its one core is the package, so its DTM policy may stop the clock.
    _core_gating = True

    def __init__(
        self,
        config: ProcessorConfig,
        uop_source: Iterable[MicroOp],
        benchmark: str = "synthetic",
        interval_cycles: Optional[int] = None,
        prewarm_caches: bool = True,
        dtm_policy: Optional[DTMPolicy] = None,
        timing_mode: str = "auto",
    ) -> None:
        self.benchmark = benchmark
        self.dtm_policy = dtm_policy
        self.cores = 1
        self.physics = PhysicsStage(config, interval_cycles)
        self.core_index = self.physics.block_index
        self._bind_threads(
            config, [uop_source], [benchmark], [dtm_policy], timing_mode, prewarm_caches
        )

    # ------------------------------------------------------------------
    # The historical engine surface over the one thread
    # ------------------------------------------------------------------
    @property
    def timing(self) -> TimingStage:
        return self.timings[0]

    @property
    def processor(self) -> Processor:
        return self.timings[0].processor

    @property
    def hopping(self) -> Optional[BankHoppingController]:
        return self.timings[0].hopping

    @property
    def solver(self) -> ThermalSolver:
        return self.physics.solver

    def interval_pipeline(
        self,
        activity_counts: np.ndarray,
        cycles_elapsed: int,
        cycle: int,
        seconds: float,
        dynamic_scale: Optional[np.ndarray] = None,
        leakage_scale: Optional[np.ndarray] = None,
    ) -> None:
        """One coupled interval's physics (the benchmarked hot path).

        Resolves the current Vdd-gated-bank mask from the timing stage and
        delegates to :meth:`PhysicsStage.interval_pipeline`, which appends
        the interval's row to the stage's table.
        """
        _, gated_mask = self.timing.gated_state()
        self.physics.interval_pipeline(
            activity_counts,
            cycles_elapsed,
            cycle=cycle,
            seconds=seconds,
            gated_mask=gated_mask,
            dynamic_scale=dynamic_scale,
            leakage_scale=leakage_scale,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        max_intervals: Optional[int] = None,
        warmup: bool = True,
        recorders: Optional[Sequence[TraceRecorder]] = None,
    ) -> SimulationResult:
        """Run the benchmark to completion and return the full result.

        ``recorders`` (one) also captures the activity trace; see
        :meth:`run_with_trace`.
        """
        return self._run(max_intervals, warmup, recorders)

    def run_with_trace(
        self,
        max_intervals: Optional[int] = None,
        warmup: bool = True,
        trace_provenance: Optional[Dict[str, object]] = None,
    ) -> Tuple[SimulationResult, ActivityTrace]:
        """Coupled run that also captures the timing stage's activity trace.

        The one-thread case of :meth:`ChipEngine.run_with_traces`: the
        result is exactly what :meth:`run` produces, and the trace replays
        any physics-side variant of this configuration bit-for-bit.
        """
        result, (trace,) = self.run_with_traces(max_intervals, warmup, [trace_provenance])
        return result, trace

    def _finish(self, result: SimulationResult, chip_cycles: int):
        """The single-core result shape: the thread's stats and DTM telemetry."""
        result.stats = self.processor.stats
        if self.dtm_policy is not None:
            result.dtm = {
                "policy": self.dtm_policy.name,
                **self.core_telemetry[0].as_dict(),
            }
        return result


def run_benchmark(
    config: ProcessorConfig,
    uop_source: Iterable[MicroOp],
    benchmark: str = "synthetic",
    interval_cycles: Optional[int] = None,
    max_intervals: Optional[int] = None,
    warmup: bool = True,
    prewarm_caches: bool = True,
    dtm_policy: Optional[DTMPolicy] = None,
    timing_mode: str = "auto",
) -> SimulationResult:
    """Convenience wrapper: build an engine, run it, return the result."""
    engine = SimulationEngine(
        config,
        uop_source,
        benchmark,
        interval_cycles,
        prewarm_caches=prewarm_caches,
        dtm_policy=dtm_policy,
        timing_mode=timing_mode,
    )
    return engine.run(max_intervals=max_intervals, warmup=warmup)
