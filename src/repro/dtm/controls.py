"""Actuators of the dynamic-thermal-management subsystem.

A :class:`DTMControls` object is the single mutable interface between a
:class:`~repro.dtm.policies.DTMPolicy` and the simulation engine.  Once per
thermal interval the engine hands the controls to the active policy, which
may

* reduce the fetch duty cycle (*fetch throttling*): fetch is gated for a
  fraction of each interval's cycles, spread evenly over a fixed period;
* gate the whole next interval (*global clock gating*): the processor runs
  zero cycles, dissipates zero dynamic power (clock distribution included)
  and only leaks, while wall-clock time still advances by one interval;
* move per-cluster voltage/frequency domains along a :class:`VFTable`
  (*DVFS*): each block's dynamic power is scaled by ``(V/V0)^2`` and its
  leakage by ``V/V0``, while the frequency factor is realized through the
  core's fetch duty — the engine rations fetch to the slowest selected
  frequency ratio, so the activity counts themselves (and with them every
  block's dynamic power) drop by ``f/f0``.  See ``docs/dtm.md`` for why the
  simulator's single global clock makes this the honest mapping.

Every actuator is *clamped*: a policy physically cannot push a block outside
the voltage/frequency table, request a zero fetch duty (that is what interval
gating is for) or a duty above 1.  The clamping lives here, in the actuator,
rather than in the policies, so the invariant holds for any policy —
including buggy or adversarial ones (``tests/test_dtm.py`` locks this).

All control state is laid out over the engine's
:class:`~repro.sim.block_index.BlockIndex`, so applying it on the power fast
path is pure vector arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.sim.block_index import BlockIndex


@dataclass(frozen=True)
class VFPoint:
    """One operating point of a voltage/frequency table.

    ``freq_ratio`` and ``vdd_ratio`` are fractions of the nominal clock
    frequency (``PowerConfig.frequency_ghz``, GHz) and nominal supply
    voltage (``PowerConfig.vdd``, V).  Both must lie in (0, 1]: the table
    never overclocks or overvolts.
    """

    freq_ratio: float
    vdd_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.freq_ratio <= 1.0:
            raise ValueError(f"freq_ratio {self.freq_ratio} outside (0, 1]")
        if not 0.0 < self.vdd_ratio <= 1.0:
            raise ValueError(f"vdd_ratio {self.vdd_ratio} outside (0, 1]")

    @property
    def dynamic_scale(self) -> float:
        """Dynamic-power multiplier at this point: ``(V/V0)^2``.

        The ``f/f0`` factor of ``P = a C V^2 f`` is *not* here: the engine
        realizes reduced frequency as a fetch-duty reduction, so the
        activity counts — and with them the access-rate term of dynamic
        power — already fall by ``f/f0``.  (The always-on idle/clock term
        keeps its nominal frequency, a deliberately conservative
        simplification.)
        """
        return self.vdd_ratio * self.vdd_ratio

    @property
    def leakage_scale(self) -> float:
        """Leakage-power multiplier at this point (first order: ``V/V0``)."""
        return self.vdd_ratio


class VFTable:
    """An ordered voltage/frequency table, fastest (nominal) point first.

    Step 0 is always the nominal point ``(1.0, 1.0)``; higher step indices
    are progressively slower/lower-voltage points.  Policies address the
    table only by step index, and :meth:`clamp_step` pins any requested index
    into the table's range — a block can never leave the table.
    """

    def __init__(self, points: Iterable[Tuple[float, float]]) -> None:
        self.points: Tuple[VFPoint, ...] = tuple(
            p if isinstance(p, VFPoint) else VFPoint(*p) for p in points
        )
        if not self.points:
            raise ValueError("a VF table needs at least one operating point")
        if self.points[0].freq_ratio != 1.0 or self.points[0].vdd_ratio != 1.0:
            raise ValueError("table step 0 must be the nominal point (1.0, 1.0)")
        ratios = [p.freq_ratio for p in self.points]
        if ratios != sorted(ratios, reverse=True):
            raise ValueError("table frequency ratios must be non-increasing")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, step: int) -> VFPoint:
        return self.points[step]

    def clamp_step(self, step: int) -> int:
        """Pin a requested step index into ``[0, len(table) - 1]``."""
        return max(0, min(int(step), len(self.points) - 1))

    @property
    def min_freq_ratio(self) -> float:
        return self.points[-1].freq_ratio


#: Default five-point table (frequency ratio, voltage ratio), modelled on the
#: published Pentium M / XScale style DVFS ladders: voltage tracks frequency
#: sub-linearly, so each step down saves roughly ``f * V^2`` in dynamic power.
DEFAULT_VF_TABLE = VFTable(
    ((1.0, 1.0), (0.9, 0.96), (0.8, 0.92), (0.7, 0.88), (0.6, 0.84))
)

#: Cycles over which a fractional fetch duty is realized: a duty of d gates
#: fetch on ``round((1-d) * 16)`` of every 16 cycles, spread at the end of
#: the period.  16 is small enough that throttling is fine-grained relative
#: to any interval length and large enough to express 1/16-step duties.
FETCH_DUTY_PERIOD = 16


class DTMControls:
    """Mutable per-interval DTM actuator state over a :class:`BlockIndex`.

    The engine owns one instance per run; the active policy mutates it each
    interval through the clamped request methods, and the engine translates
    it into fetch gating, power scale vectors, or a fully clock-gated
    interval.

    Bit-exactness guard: while every control sits at nominal,
    :meth:`power_scales` returns ``(None, None)`` and
    :attr:`effective_fetch_on_cycles` equals the full period, so the engine
    takes the exact historical arithmetic path — a no-op policy is
    bit-identical to running with no DTM at all.
    """

    def __init__(self, index: BlockIndex, table: Optional[VFTable] = None) -> None:
        self.index = index
        self.table = table or DEFAULT_VF_TABLE
        #: Per-block DVFS step indices into :attr:`table`.
        self._steps = np.zeros(len(index), dtype=np.intp)
        #: Per-block dynamic-power multipliers (dimensionless, in (0, 1]).
        self.dynamic_scale = np.ones(len(index))
        #: Per-block leakage-power multipliers (dimensionless, in (0, 1]).
        self.leakage_scale = np.ones(len(index))
        #: Fetch slots enabled per :data:`FETCH_DUTY_PERIOD` cycles.
        self.fetch_on_cycles = FETCH_DUTY_PERIOD
        #: Whether the next interval is fully clock-gated (stop-go DTM).
        self.gate_interval = False
        #: Whether interval gating can be granted this interval (the engine
        #: denies it for the one interval whose cycles have already run).
        self._gating_allowed = True

    # ------------------------------------------------------------------
    # Requests (all clamped)
    # ------------------------------------------------------------------
    def request_fetch_duty(self, duty: float) -> float:
        """Request a fetch duty cycle; returns the granted (clamped) duty.

        The duty is quantized to multiples of ``1/FETCH_DUTY_PERIOD`` and
        clamped into ``[1/FETCH_DUTY_PERIOD, 1.0]`` — fetch can be slowed
        sixteen-fold but never stopped outright (that is interval gating's
        job, and it keeps the pipeline free of throttling deadlocks).
        """
        on = round(float(duty) * FETCH_DUTY_PERIOD)
        on = max(1, min(FETCH_DUTY_PERIOD, on))
        self.fetch_on_cycles = on
        return on / FETCH_DUTY_PERIOD

    def request_interval_gate(self) -> bool:
        """Request a fully clock-gated interval (dynamic power drops to 0 W).

        Returns whether the gate was granted.  The engine denies gating for
        the one interval whose cycles have already executed (interval 0,
        observed only after warm-up); stop-go controllers should count a
        stop burst only when the request is granted.
        """
        if not self._gating_allowed:
            return False
        self.gate_interval = True
        return True

    def request_step(self, blocks: Sequence[str], step: int) -> int:
        """Move the named blocks to VF-table step ``step`` (clamped).

        Returns the granted step index.  Unknown block names are ignored so
        policies can address e.g. physical trace-cache banks a floorplan
        does not instantiate.
        """
        step = self.table.clamp_step(step)
        positions = [
            self.index.position(name) for name in blocks if name in self.index
        ]
        if positions:
            point = self.table[step]
            self._steps[positions] = step
            self.dynamic_scale[positions] = point.dynamic_scale
            self.leakage_scale[positions] = point.leakage_scale
        return step

    # ------------------------------------------------------------------
    # Views the engine consumes
    # ------------------------------------------------------------------
    @property
    def fetch_duty(self) -> float:
        """Granted fetch duty cycle, in ``[1/FETCH_DUTY_PERIOD, 1.0]``."""
        return self.fetch_on_cycles / FETCH_DUTY_PERIOD

    @property
    def steps(self) -> np.ndarray:
        """Per-block VF-table step indices (read-only view)."""
        return self._steps

    def step_of(self, block: str) -> int:
        """Current VF-table step of one block."""
        return int(self._steps[self.index.position(block)])

    @property
    def min_freq_ratio(self) -> float:
        """The slowest selected frequency ratio across all domains.

        The reproduction's core is synchronous (one global clock), so the
        engine throttles core throughput — via the fetch duty — to the
        slowest domain's frequency (a conservative model, see
        ``docs/dtm.md``).  1.0 means every domain is at nominal.
        """
        slowest = int(self._steps.max())
        return self.table[slowest].freq_ratio

    @property
    def effective_fetch_on_cycles(self) -> int:
        """Fetch slots per period after combining throttling and DVFS.

        The stricter of the policy-requested fetch duty and the slowest
        DVFS frequency ratio wins: a core whose slowest domain runs at 60%
        frequency cannot retire work faster than 60% of nominal.
        """
        freq_on = max(1, round(self.min_freq_ratio * FETCH_DUTY_PERIOD))
        return min(self.fetch_on_cycles, freq_on)

    def power_scales(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """The (dynamic, leakage) multiplier vectors, or ``(None, None)``.

        Returns ``None`` vectors while every block sits at the nominal step,
        so the engine's hot path can skip the multiplications entirely (and
        stay bit-identical to the pre-DTM pipeline).
        """
        if not self._steps.any():
            return None, None
        return self.dynamic_scale, self.leakage_scale

    def at_nominal(self) -> bool:
        """Whether the engine would run the coming interval exactly as
        without DTM: no granted gate, no DVFS step, full fetch duty."""
        return (
            not self.gate_interval
            and not self._steps.any()
            and self.effective_fetch_on_cycles == FETCH_DUTY_PERIOD
        )

    def begin_interval(self, gating_allowed: bool = True) -> None:
        """Reset the *transient* actuators before the policy runs.

        Interval gating is a one-shot request; fetch duty and DVFS steps are
        level-triggered and persist until the policy changes them.
        ``gating_allowed`` is ``False`` when the interval's cycles have
        already run (the post-warm-up observation before interval 0), which
        makes :meth:`request_interval_gate` deny rather than silently drop.
        """
        self.gate_interval = False
        self._gating_allowed = gating_allowed

    def describe(self) -> Dict[str, object]:
        """JSON-able snapshot (used by telemetry and debugging)."""
        return {
            "fetch_duty": self.fetch_duty,
            "gate_interval": self.gate_interval,
            "max_step": int(self._steps.max()),
            "min_freq_ratio": self.min_freq_ratio,
        }


def residency_by_freq_ratio(table: VFTable, fractions: np.ndarray) -> Dict[str, float]:
    """Per-step residency ``fractions`` keyed by the step's frequency ratio.

    Keys are the ratio rendered as a string (JSON mappings need string
    keys), e.g. ``{"1": 0.85, "0.8": 0.15}``; steps sharing a frequency
    ratio are summed under one key and empty steps are left out.
    """
    residency: Dict[str, float] = {}
    for step, fraction in enumerate(fractions):
        if fraction > 0.0:
            key = f"{table[step].freq_ratio:g}"
            residency[key] = residency.get(key, 0.0) + float(fraction)
    return residency


class DTMTelemetry:
    """Per-run accounting of what the DTM actuators actually did.

    Folded into :attr:`repro.sim.results.SimulationResult.dtm` at the end of
    a run and serialized with schema version 3.  All ratios are
    dimensionless fractions; times are seconds of simulated wall-clock.
    """

    def __init__(self, table: VFTable) -> None:
        self.table = table
        self.intervals = 0
        self.gated_intervals = 0
        self.throttled_intervals = 0
        self.duty_sum = 0.0
        #: Interval-weighted residency per VF step: ``residency[s]`` sums the
        #: fraction of blocks at step ``s`` over all intervals.
        self._step_residency = np.zeros(len(table))
        self._freq_ratio_sum = 0.0

    def record_interval(
        self, controls: DTMControls, gated: bool, fetch_actuated: bool = True
    ) -> None:
        """Account one interval's actuator state.

        ``fetch_actuated`` is ``False`` for the one interval whose cycles
        ran *before* the policy could gate fetch (interval 0, observed only
        after warm-up): its duty and frequency are charged at nominal so the
        telemetry reflects the timing that actually happened, while the VF
        residency still records the voltage scaling that did apply.
        """
        self.intervals += 1
        effective_duty = (
            controls.effective_fetch_on_cycles / FETCH_DUTY_PERIOD
            if fetch_actuated
            else 1.0
        )
        if gated:
            self.gated_intervals += 1
            self.duty_sum += 0.0
        else:
            self.duty_sum += effective_duty
            if effective_duty < 1.0:
                self.throttled_intervals += 1
        steps = controls.steps
        counts = np.bincount(steps, minlength=len(self.table))
        self._step_residency += counts / len(steps)
        if gated:
            # A clock-gated interval executes at zero effective frequency —
            # consistent with charging it zero fetch duty above.
            self._freq_ratio_sum += 0.0
        else:
            self._freq_ratio_sum += controls.min_freq_ratio if fetch_actuated else 1.0

    # ------------------------------------------------------------------
    @property
    def throttle_ratio(self) -> float:
        """Fraction of fetch capacity removed over the run (0 = none).

        Counts fully gated intervals as zero fetch duty, so a pure stop-go
        policy also reports a non-zero throttle ratio.
        """
        if self.intervals == 0:
            return 0.0
        return 1.0 - self.duty_sum / self.intervals

    @property
    def mean_freq_ratio(self) -> float:
        """Mean effective core frequency ratio over the run (1.0 = nominal).

        Fully clock-gated intervals count as zero frequency, so a pure
        stop-go run reports the fraction of nominal throughput it actually
        delivered, mirroring how :attr:`throttle_ratio` charges them.
        """
        if self.intervals == 0:
            return 1.0
        return self._freq_ratio_sum / self.intervals

    def dvfs_residency(self) -> Dict[str, float]:
        """Fraction of block-intervals spent at each VF step.

        Keyed by the step's frequency ratio rendered as a string (JSON
        mappings need string keys), e.g. ``{"1": 0.85, "0.8": 0.15}``.
        Steps that share a frequency ratio (a table may pair one frequency
        with several voltages) have their fractions summed under that key.
        """
        if self.intervals == 0:
            return {"1": 1.0}
        return residency_by_freq_ratio(self.table, self._step_residency / self.intervals)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary stored into ``SimulationResult.dtm``."""
        return {
            "intervals": self.intervals,
            "gated_intervals": self.gated_intervals,
            "throttled_intervals": self.throttled_intervals,
            "throttle_ratio": self.throttle_ratio,
            "mean_freq_ratio": self.mean_freq_ratio,
            "dvfs_residency": self.dvfs_residency(),
        }
