"""Result containers produced by a simulation run.

A :class:`SimulationResult` couples the timing statistics of a run with the
per-interval power and temperature traces of every functional block, and
computes the three temperature metrics the paper reports (Section 4):

* ``AbsMax`` — peak temperature over time and space,
* ``Average`` — average temperature over time and space,
* ``AvgMax`` — average over intervals of the per-interval maximum.

All metrics are reported as the *increase over ambient* (45 C), because the
paper measures improvements as "the reduction on the temperature increase
over ambient".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.stats import SimulationStats


class IntervalRecord:
    """Power and temperature snapshot of one thermal interval.

    The engine's fast path stores the per-block data as NumPy vectors (see
    :meth:`from_arrays`) so that recording an interval allocates no per-block
    dictionaries; the ``dynamic_power`` / ``leakage_power`` / ``temperature``
    mappings are materialized lazily — and cached — the first time a consumer
    (metrics, plots) asks for them; serialization builds them without
    caching (:meth:`block_mappings`).  Records can equally be built from
    plain dictionaries, which is what JSON deserialization and the tests do.
    """

    __slots__ = (
        "cycle",
        "seconds",
        "_block_names",
        "_dynamic_array",
        "_leakage_array",
        "_temperature_array",
        "_dynamic_dict",
        "_leakage_dict",
        "_temperature_dict",
    )

    def __init__(
        self,
        cycle: int,
        seconds: float,
        dynamic_power: Mapping[str, float],
        leakage_power: Mapping[str, float],
        temperature: Mapping[str, float],
    ) -> None:
        #: Cycle at which the interval ended.
        self.cycle = cycle
        #: Wall-clock seconds of simulated (thermal) time at the interval's end.
        self.seconds = seconds
        self._block_names: Optional[Sequence[str]] = None
        self._dynamic_array: Optional[np.ndarray] = None
        self._leakage_array: Optional[np.ndarray] = None
        self._temperature_array: Optional[np.ndarray] = None
        self._dynamic_dict: Optional[Dict[str, float]] = dict(dynamic_power)
        self._leakage_dict: Optional[Dict[str, float]] = dict(leakage_power)
        self._temperature_dict: Optional[Dict[str, float]] = dict(temperature)

    @classmethod
    def from_arrays(
        cls,
        cycle: int,
        seconds: float,
        block_names: Sequence[str],
        dynamic_power: np.ndarray,
        leakage_power: np.ndarray,
        temperature: np.ndarray,
    ) -> "IntervalRecord":
        """Zero-dict constructor used by the engine's interval fast path.

        The arrays are stored as-is (not copied): callers hand over freshly
        computed vectors, ordered like ``block_names``, and must not mutate
        them afterwards.
        """
        record = cls.__new__(cls)
        record.cycle = cycle
        record.seconds = seconds
        record._block_names = block_names
        record._dynamic_array = dynamic_power
        record._leakage_array = leakage_power
        record._temperature_array = temperature
        record._dynamic_dict = None
        record._leakage_dict = None
        record._temperature_dict = None
        return record

    @staticmethod
    def _as_dict(names: Sequence[str], values: np.ndarray) -> Dict[str, float]:
        return dict(zip(names, values.tolist()))

    @property
    def dynamic_power(self) -> Dict[str, float]:
        """Dynamic power per block (Watts) during the interval."""
        if self._dynamic_dict is None:
            self._dynamic_dict = self._as_dict(self._block_names, self._dynamic_array)
        return self._dynamic_dict

    @property
    def leakage_power(self) -> Dict[str, float]:
        """Leakage power per block (Watts) during the interval."""
        if self._leakage_dict is None:
            self._leakage_dict = self._as_dict(self._block_names, self._leakage_array)
        return self._leakage_dict

    @property
    def temperature(self) -> Dict[str, float]:
        """Temperature per block (Celsius) at the end of the interval."""
        if self._temperature_dict is None:
            self._temperature_dict = self._as_dict(
                self._block_names, self._temperature_array
            )
        return self._temperature_dict

    def block_mappings(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
        """The dynamic, leakage and temperature mappings, without caching them.

        Serialization builds every record's mappings once; caching them
        would leave an array-backed record holding its arrays plus three
        dictionaries for as long as the result lives.
        """
        return tuple(
            cached if cached is not None else self._as_dict(self._block_names, array)
            for cached, array in (
                (self._dynamic_dict, self._dynamic_array),
                (self._leakage_dict, self._leakage_array),
                (self._temperature_dict, self._temperature_array),
            )
        )

    def block_vectors(self, names: Tuple[str, ...]) -> Tuple[Sequence[float], ...]:
        """The dynamic, leakage and temperature values in ``names`` order.

        An array-backed record ordered like ``names`` returns its arrays;
        any other record reads its mappings (without caching them).
        """
        if self._dynamic_array is not None and tuple(self._block_names) == names:
            return self._dynamic_array, self._leakage_array, self._temperature_array
        return tuple(
            [mapping[name] for name in names] for mapping in self.block_mappings()
        )

    def total_power(self) -> float:
        """Total processor power (dynamic + leakage) during the interval."""
        if self._dynamic_array is not None and self._leakage_array is not None:
            return float(np.sum(self._dynamic_array) + np.sum(self._leakage_array))
        return sum(self.dynamic_power.values()) + sum(self.leakage_power.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntervalRecord(cycle={self.cycle}, seconds={self.seconds}, "
            f"blocks={len(self.temperature)})"
        )


#: The three temperature metrics of the paper's figures.
METRIC_NAMES = ("AbsMax", "Average", "AvgMax")


@dataclass
class SimulationResult:
    """Complete outcome of simulating one benchmark on one configuration."""

    config_name: str
    benchmark: str
    stats: SimulationStats
    block_names: Sequence[str]
    block_groups: Mapping[str, Sequence[str]]
    block_areas_mm2: Mapping[str, float]
    intervals: List[IntervalRecord] = field(default_factory=list)
    ambient_celsius: float = 45.0
    warmup_temperature: Dict[str, float] = field(default_factory=dict)
    #: How the run was produced: the thermal/hop interval in cycles plus the
    #: experiment-settings parameters (trace length, seed) the campaign layer
    #: derives cache keys from.  Empty for results loaded from pre-provenance
    #: (schema version 1) files.
    provenance: Dict[str, object] = field(default_factory=dict)
    #: Dynamic-thermal-management telemetry of the run (schema version 3):
    #: policy name, ``throttle_ratio`` (fraction of fetch capacity removed),
    #: ``gated_intervals``, ``dvfs_residency`` (fraction of block-intervals
    #: per VF step, keyed by frequency ratio) and ``mean_freq_ratio``.
    #: Empty when the run had no DTM policy or predates schema version 3.
    dtm: Dict[str, object] = field(default_factory=dict)
    #: Chip-multiprocessor telemetry (schema version 4): core count, per-core
    #: benchmarks and timing/temperature summaries, chip-level DTM policy and
    #: migration log, and chip aggregates (total micro-ops, chip IPC, peak
    #: temperature).  Empty for single-core runs (every run before the chip
    #: layer existed, and every ``repro.sim.engine`` run since).
    chip: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Temperature metrics
    # ------------------------------------------------------------------
    def _group_blocks(self, group: str) -> Sequence[str]:
        if group in self.block_groups:
            return self.block_groups[group]
        if group in self.block_names:
            return [group]
        raise KeyError(
            f"unknown block or group {group!r}; known groups: "
            f"{sorted(self.block_groups)}"
        )

    def temperature_metrics(self, group: str) -> Dict[str, float]:
        """Return AbsMax / Average / AvgMax for a block group.

        Values are temperature increases over ambient, in Celsius.
        """
        blocks = self._group_blocks(group)
        if not self.intervals:
            raise ValueError("no thermal intervals were recorded")
        amb = self.ambient_celsius
        per_interval_max: List[float] = []
        per_interval_avg: List[float] = []
        abs_max = float("-inf")
        for record in self.intervals:
            temps = [record.temperature[b] for b in blocks]
            interval_max = max(temps)
            per_interval_max.append(interval_max - amb)
            per_interval_avg.append(sum(temps) / len(temps) - amb)
            abs_max = max(abs_max, interval_max)
        return {
            "AbsMax": abs_max - amb,
            "Average": sum(per_interval_avg) / len(per_interval_avg),
            "AvgMax": sum(per_interval_max) / len(per_interval_max),
        }

    def all_temperature_metrics(self) -> Dict[str, Dict[str, float]]:
        """Metrics for every defined block group."""
        return {group: self.temperature_metrics(group) for group in self.block_groups}

    def peak_temperature(self) -> float:
        """Absolute peak temperature (Celsius) over all blocks and intervals."""
        return max(
            max(record.temperature.values()) for record in self.intervals
        ) if self.intervals else self.ambient_celsius

    # ------------------------------------------------------------------
    # Power metrics
    # ------------------------------------------------------------------
    def average_power(self, blocks: Optional[Sequence[str]] = None) -> float:
        """Average total power (W) over the run, optionally restricted to blocks."""
        if not self.intervals:
            return 0.0
        names = list(blocks) if blocks is not None else list(self.block_names)
        total = 0.0
        for record in self.intervals:
            total += sum(record.dynamic_power[b] + record.leakage_power[b] for b in names)
        return total / len(self.intervals)

    def average_group_power(self, group: str) -> float:
        """Average power (W) of a block group."""
        return self.average_power(self._group_blocks(group))

    def average_dynamic_power(self, blocks: Optional[Sequence[str]] = None) -> float:
        """Average dynamic power (W) over the run."""
        if not self.intervals:
            return 0.0
        names = list(blocks) if blocks is not None else list(self.block_names)
        total = 0.0
        for record in self.intervals:
            total += sum(record.dynamic_power[b] for b in names)
        return total / len(self.intervals)

    def group_area_mm2(self, group: str) -> float:
        """Total silicon area (mm^2) of a block group."""
        return sum(self.block_areas_mm2[b] for b in self._group_blocks(group))

    # ------------------------------------------------------------------
    # Comparisons against a baseline run (the paper's reporting style)
    # ------------------------------------------------------------------
    def temperature_reduction_vs(self, baseline: "SimulationResult", group: str) -> Dict[str, float]:
        """Fractional reduction of temperature-over-ambient relative to ``baseline``.

        A value of 0.32 for ``AbsMax`` means the peak temperature increase
        over ambient is 32% lower than the baseline's — the quantity plotted
        in Figures 12-14 of the paper.
        """
        ours = self.temperature_metrics(group)
        theirs = baseline.temperature_metrics(group)
        reductions = {}
        for metric in METRIC_NAMES:
            base = theirs[metric]
            reductions[metric] = (base - ours[metric]) / base if base > 0 else 0.0
        return reductions

    def slowdown_vs(self, baseline: "SimulationResult") -> float:
        """Execution-time increase relative to ``baseline`` (0.02 = 2% slower).

        Measured in cycles, so it captures throttling-induced IPC loss but
        not DVFS wall-clock stretching; for DTM comparisons use
        :meth:`time_slowdown_vs`.
        """
        if baseline.stats.cycles <= 0:
            return 0.0
        return self.stats.cycles / baseline.stats.cycles - 1.0

    def total_seconds(self) -> float:
        """Simulated wall-clock seconds the run spanned.

        Includes whole clock-gated intervals (which add wall-clock but no
        cycles), so it is the denominator of real DTM performance: the same
        trace under throttling, DVFS or gating simply takes longer.

        The per-record ``seconds`` timestamps count whole nominal intervals,
        but the *final* interval of a trace usually runs fewer cycles; this
        method reconstructs each interval's true duration from the recorded
        cycle deltas (a zero delta is a clock-gated interval, charged one
        full interval), so short runs don't quantize the performance-loss
        metric to whole intervals.  Results without interval provenance
        (schema v1 files) fall back to the nominal accounting.
        """
        if not self.intervals:
            return 0.0
        interval_cycles = self.provenance.get("interval_cycles")
        if not interval_cycles:
            return self._nominal_total_seconds()
        interval_seconds = self.intervals[0].seconds
        total = 0.0
        previous_cycle = 0
        for record in self.intervals:
            delta = record.cycle - previous_cycle
            previous_cycle = record.cycle
            if delta == 0:
                total += interval_seconds
            else:
                total += interval_seconds * (delta / interval_cycles)
        return total

    def _nominal_total_seconds(self) -> float:
        """Run length in whole nominal intervals (the per-record timestamps)."""
        return self.intervals[-1].seconds if self.intervals else 0.0

    def time_slowdown_vs(self, baseline: "SimulationResult") -> float:
        """Wall-clock-time increase relative to ``baseline`` (0.05 = 5% slower).

        The DTM performance-loss metric: unlike :meth:`slowdown_vs` (cycles)
        it also charges whole clock-gated intervals, which stretch
        wall-clock without adding cycles.

        Both sides must use the same accounting: when either result lacks
        interval provenance (schema v1 files), the comparison falls back to
        whole-interval accounting for both, instead of silently comparing
        an exact duration against a quantized one.
        """
        exact = (
            self.provenance.get("interval_cycles")
            and baseline.provenance.get("interval_cycles")
        )
        if exact:
            ours, base = self.total_seconds(), baseline.total_seconds()
        else:
            ours = self._nominal_total_seconds()
            base = baseline._nominal_total_seconds()
        if base <= 0:
            return 0.0
        return ours / base - 1.0

    def summary(self) -> str:
        """Short human-readable summary of the run."""
        lines = [
            f"{self.benchmark} on {self.config_name}: "
            f"{self.stats.committed_uops} uops in {self.stats.cycles} cycles "
            f"(IPC {self.stats.ipc:.2f})",
            f"  avg power {self.average_power():.1f} W, "
            f"peak temperature {self.peak_temperature():.1f} C",
        ]
        return "\n".join(lines)
