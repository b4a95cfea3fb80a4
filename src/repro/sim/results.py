"""Result containers produced by a simulation run.

A :class:`SimulationResult` couples the timing statistics of a run with its
:class:`IntervalTable`: ``cycle`` and ``seconds`` vectors plus the dynamic
power, leakage power and temperature matrices (intervals x blocks, in
``block_names`` order).  The coupled loop fills the table row by row, replay
hands over its trajectories, and a decoded result's table is views of the
cache frame.  Records and their per-block dictionaries exist only on
request: ``result.intervals[i]`` builds a view of row ``i``.

The three temperature metrics the paper reports (Section 4) reduce the
temperature matrix: ``AbsMax`` (peak over time and space), ``Average``
(average over time and space) and ``AvgMax`` (average over intervals of the
per-interval maximum).  All are the *increase over ambient* (45 C), as the
paper reports "the reduction on the temperature increase over ambient".
Every sum runs left to right, as ``sum()`` over the rows did before Python
3.12 (``np.sum`` pairs terms), so a metric's bytes do not depend on how the
result was produced.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping as MappingABC, Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.sim.stats import SimulationStats


def _left_sum(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis, left to right from 0 (``sum()``'s order)."""
    return np.cumsum(values, axis=-1)[..., -1] + 0.0


class IntervalTable(SequenceABC):
    """The intervals of one result: two vectors and three matrices.

    ``cycles`` (``int64``) and ``seconds`` hold one entry per interval;
    ``dynamic``, ``leakage`` and ``temperature`` are ``float64`` (intervals
    x blocks), columns in ``block_names`` order.  As a sequence the table
    yields an :class:`IntervalRecord` view per row, built on each access.
    """

    __slots__ = ("block_names", "_arrays", "_count")

    def __init__(self, block_names, cycles, seconds, dynamic, leakage, temperature):
        self.block_names = block_names
        self._arrays = (cycles, seconds, dynamic, leakage, temperature)
        self._count = len(cycles)

    @classmethod
    def empty(cls, block_names, capacity: int = 16) -> "IntervalTable":
        """A table of no rows and room for ``capacity``, for :meth:`append`."""
        matrices = (np.empty((capacity, len(block_names))) for _ in range(3))
        table = cls(block_names, np.empty(capacity, np.int64), np.empty(capacity), *matrices)
        table._count = 0
        return table

    @classmethod
    def from_mappings(cls, block_names, rows) -> "IntervalTable":
        """A table of ``(cycle, seconds, dynamic, leakage, temperature)`` rows
        whose last three are per-block mappings."""
        table = cls.empty(block_names, len(rows))
        for cycle, seconds, *maps in rows:
            table.append(cycle, seconds, *([m[name] for name in block_names] for m in maps))
        return table

    def append(self, cycle: int, seconds: float, dynamic, leakage, temperature) -> None:
        """Write the next row, doubling the buffers when they are full."""
        n = self._count
        if n == len(self._arrays[0]):
            grown = [np.empty((max(16, 2 * n),) + a.shape[1:], a.dtype) for a in self._arrays]
            for bigger, array in zip(grown, self._arrays):
                bigger[:n] = array
            self._arrays = tuple(grown)
        for array, value in zip(self._arrays, (cycle, seconds, dynamic, leakage, temperature)):
            array[n] = value
        self._count = n + 1

    def finish(self) -> None:
        """Drop the rows :meth:`append` reserved but never wrote and make the
        table read-only (the coupled loop calls this when its run ends, so
        results that share the table cannot change it)."""
        if len(self._arrays[0]) != self._count:
            self._arrays = tuple(array[: self._count].copy() for array in self._arrays)
        for array in self._arrays:
            array.flags.writeable = False

    @property
    def positions(self) -> Dict[str, int]:
        """Column of each block name.

        One map per distinct block order, held by the warm cache: every table
        of a sweep shares it, and no table keeps one of its own.
        """
        # Imported here: the warm cache's imports lead back to this module.
        from repro.sim.warmcache import warm_cache

        return warm_cache().block_positions(self.block_names)

    @property
    def arrays(self):
        """``(cycles, seconds, dynamic, leakage, temperature)``."""
        return tuple(array[: self._count] for array in self._arrays)

    cycles = property(lambda self: self._arrays[0][: self._count])
    seconds = property(lambda self: self._arrays[1][: self._count])
    dynamic = property(lambda self: self._arrays[2][: self._count])
    leakage = property(lambda self: self._arrays[3][: self._count])
    temperature = property(lambda self: self._arrays[4][: self._count])

    def __reduce__(self):
        return IntervalTable, (self.block_names, *self.arrays)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [IntervalRecord.view(self, i) for i in range(*index.indices(self._count))]
        row = index + self._count if index < 0 else index
        if not 0 <= row < self._count:
            raise IndexError("interval index out of range")
        return IntervalRecord.view(self, row)

    def __iter__(self):
        return (IntervalRecord.view(self, row) for row in range(self._count))


class IntervalRecord:
    """Power and temperature snapshot of one thermal interval.

    A view of one :class:`IntervalTable` row that caches nothing: each
    per-block mapping is a fresh dictionary.  Built from mappings, a record
    is a one-row table of its own (hand-built results pass such records to
    :class:`SimulationResult`, which copies their rows).
    """

    __slots__ = ("_table", "_row")

    def __init__(
        self,
        cycle: int,
        seconds: float,
        dynamic_power: Mapping[str, float],
        leakage_power: Mapping[str, float],
        temperature: Mapping[str, float],
    ) -> None:
        rows = [(cycle, seconds, dynamic_power, leakage_power, temperature)]
        self._table = IntervalTable.from_mappings(tuple(temperature), rows)
        self._row = 0

    @classmethod
    def view(cls, table: IntervalTable, row: int) -> "IntervalRecord":
        record = cls.__new__(cls)
        record._table, record._row = table, row
        return record

    @property
    def cycle(self) -> int:
        """Cycle at which the interval ended."""
        return int(self._table.cycles[self._row])

    @property
    def seconds(self) -> float:
        """Seconds of simulated (thermal) time at the interval's end."""
        return float(self._table.seconds[self._row])

    def _mapping(self, matrix: np.ndarray) -> Dict[str, float]:
        return dict(zip(self._table.block_names, matrix[self._row].tolist()))

    @property
    def dynamic_power(self) -> Dict[str, float]:
        """Dynamic power per block (Watts) during the interval."""
        return self._mapping(self._table.dynamic)

    @property
    def leakage_power(self) -> Dict[str, float]:
        """Leakage power per block (Watts) during the interval."""
        return self._mapping(self._table.leakage)

    @property
    def temperature(self) -> Dict[str, float]:
        """Temperature per block (Celsius) at the end of the interval."""
        return self._mapping(self._table.temperature)

    def total_power(self) -> float:
        """Total processor power (dynamic + leakage) during the interval."""
        table, row = self._table, self._row
        return float(np.sum(table.dynamic[row]) + np.sum(table.leakage[row]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntervalRecord(cycle={self.cycle}, seconds={self.seconds}, "
            f"blocks={len(self._table.block_names)})"
        )


class BlockValues(MappingABC):
    """A read-only per-block mapping over a vector in ``block_names`` order.

    A decoded result's block areas and warm-up temperatures.  It iterates in
    sorted block order, as a canonical JSON document decodes; the first
    lookup by name builds its index.
    """

    __slots__ = ("block_names", "vector", "_positions")

    def __init__(self, block_names: Sequence[str], vector: np.ndarray) -> None:
        self.block_names, self.vector = block_names, vector
        self._positions: Optional[Dict[str, int]] = None

    def __getitem__(self, name: str) -> float:
        if self._positions is None:
            self._positions = {block: i for i, block in enumerate(self.block_names)}
        return float(self.vector[self._positions[name]])

    def __len__(self) -> int:
        return len(self.block_names)

    def __iter__(self):
        return iter(sorted(self.block_names))

    def items(self) -> ItemsView:
        return _SortedItems(self)


class _SortedItems(ItemsView):
    """:meth:`BlockValues.items` without a lookup per name."""

    def __iter__(self):
        names, vector = self._mapping.block_names, self._mapping.vector
        order = sorted(range(len(names)), key=names.__getitem__)
        return zip([names[i] for i in order], vector[order].tolist())


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
    #: The interval table; a sequence of records is copied into one.
    intervals: Union[IntervalTable, Sequence[IntervalRecord]] = ()
    ambient_celsius: float = 45.0
    warmup_temperature: Mapping[str, float] = field(default_factory=dict)
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

    def __post_init__(self) -> None:
        table = self.intervals
        if not isinstance(table, IntervalTable):
            rows = [(r.cycle, r.seconds, r.dynamic_power, r.leakage_power, r.temperature)
                    for r in table]
            table = self.intervals = IntervalTable.from_mappings(self.block_names, rows)
        if tuple(table.block_names) != tuple(self.block_names):
            raise ValueError("the interval table's columns are not block_names")

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

    def _columns(self, blocks: Optional[Sequence[str]]):
        """Table columns of ``blocks``, in their order (all blocks for ``None``)."""
        table = self.intervals
        if blocks is None or list(blocks) == list(table.block_names):
            return slice(None)
        positions = table.positions
        return [positions[block] for block in blocks]

    def temperature_metrics(self, group: str) -> Dict[str, float]:
        """Return AbsMax / Average / AvgMax for a block group.

        Values are temperature increases over ambient, in Celsius.
        """
        blocks = self._group_blocks(group)
        count = len(self.intervals)
        if not count:
            raise ValueError("no thermal intervals were recorded")
        amb = self.ambient_celsius
        temps = self.intervals.temperature[:, self._columns(blocks)]
        interval_max = temps.max(axis=1)
        per_interval_avg = _left_sum(temps) / len(blocks) - amb
        return {
            "AbsMax": float(interval_max.max()) - amb,
            "Average": float(_left_sum(per_interval_avg)) / count,
            "AvgMax": float(_left_sum(interval_max - amb)) / count,
        }

    def all_temperature_metrics(self) -> Dict[str, Dict[str, float]]:
        """Metrics for every defined block group."""
        return {group: self.temperature_metrics(group) for group in self.block_groups}

    def peak_temperature(self) -> float:
        """Absolute peak temperature (Celsius) over all blocks and intervals."""
        if not len(self.intervals):
            return self.ambient_celsius
        return float(self.intervals.temperature.max())

    # ------------------------------------------------------------------
    # Power metrics
    # ------------------------------------------------------------------
    def average_power(self, blocks: Optional[Sequence[str]] = None) -> float:
        """Average total power (W) over the run, optionally restricted to blocks."""
        table = self.intervals
        if not len(table):
            return 0.0
        columns = self._columns(blocks)
        power = table.dynamic[:, columns] + table.leakage[:, columns]
        return float(_left_sum(_left_sum(power))) / len(table)

    def average_group_power(self, group: str) -> float:
        """Average power (W) of a block group."""
        return self.average_power(self._group_blocks(group))

    def average_dynamic_power(self, blocks: Optional[Sequence[str]] = None) -> float:
        """Average dynamic power (W) over the run."""
        table = self.intervals
        if not len(table):
            return 0.0
        dynamic = table.dynamic[:, self._columns(blocks)]
        return float(_left_sum(_left_sum(dynamic))) / len(table)

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
        """Simulated wall-clock seconds the run spanned, gated intervals included.

        The denominator of real DTM performance.  Each interval lasts its
        cycle delta over the nominal interval (a zero delta is a clock-gated
        interval, charged one full interval), so a short final interval does
        not quantize the metric.  Results without interval provenance
        (schema v1 files) fall back to the nominal ``seconds`` timestamps.
        """
        table = self.intervals
        if not len(table):
            return 0.0
        interval_cycles = self.provenance.get("interval_cycles")
        if not interval_cycles:
            return self._nominal_total_seconds()
        interval_seconds = float(table.seconds[0])
        deltas = np.diff(table.cycles, prepend=0)
        durations = np.where(
            deltas == 0, interval_seconds, interval_seconds * (deltas / interval_cycles)
        )
        return float(_left_sum(durations))

    def _nominal_total_seconds(self) -> float:
        """Run length in whole nominal intervals (the ``seconds`` timestamps)."""
        table = self.intervals
        return float(table.seconds[-1]) if len(table) else 0.0

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
