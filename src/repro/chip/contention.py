"""Shared-LLC / memory-bandwidth contention between chip threads.

Without this model, the threads of a chip run interact only *thermally*
(through the shared silicon, spreader and sink).  Real CMP threads also
contend for the memory system: every UL2 miss occupies a shared memory bus
for a line transfer, so a cache-thrashing neighbour lengthens everyone
else's effective memory latency.  This module couples the threads through
exactly that channel:

* Per thermal interval, the chip engine collects each thread's UL2 miss
  count (the misses of :class:`~repro.memory.ul2.UnifiedL2Cache`).
* :class:`SharedLLCContention` replays, for each thread, its *co-runners'*
  miss stream — spread uniformly over the interval — through a fresh
  :class:`~repro.memory.bus.BusPool` with the configuration's memory-bus
  parameters (``num_memory_buses`` channels, ``bus_latency`` scaled to a
  per-miss line-transfer occupancy).  The mean queueing delay of that
  replay is the extra latency a miss of *this* thread would have seen
  behind its neighbours' traffic.
* The engine adds that delay to the thread's UL2 miss latency for the
  *next* interval (``UnifiedL2Cache.extra_miss_latency``) — a one-interval
  feedback lag, exactly like the thermal sensors' interval granularity.

Everything is deterministic: the replay schedule is a pure function of the
per-interval miss counts, so a contended run is reproducible under a fixed
seed.  A single-threaded chip has no co-runners, so every extra latency is
zero and the run stays byte-identical to the uncoupled engine.

Because contention couples threads through *timing* (not just
temperature), a contended chip cell can neither be captured for replay nor
served from cached single-core traces — the chip engine's
``replay_safe_reason`` and the campaign's ``ChipRunSpec.replay_reason``
both report it.  The coupled run still takes the fast timing core: the
native core's UL2 mirrors ``extra_miss_latency`` as a settable control
input.

The model is campaign-addressable by spec string, like DTM policies:
``"shared_llc"`` with defaults, or
``"shared_llc:service=32,max_extra=300"`` to tune the per-miss bus
occupancy and the latency clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.memory.bus import BusPool
from repro.sim.config import ProcessorConfig

#: The only contention model currently registered.
CONTENTION_MODELS = ("shared_llc",)

#: Replays longer than this are truncated (deterministically) — beyond it
#: the buses are saturated anyway and the clamp below governs.
_MAX_REPLAYED_MISSES = 20_000


@dataclass(frozen=True)
class ContentionConfig:
    """Parameters of the shared-LLC contention model.

    ``service_cycles`` is the bus occupancy of one UL2 miss (the line
    transfer; ``None`` derives ``4 x bus_latency`` from the processor's
    interconnect configuration — a 64-byte line in four bus beats).
    ``max_extra_latency`` clamps the per-miss penalty so a saturated
    neighbour degrades, never deadlocks, a thread.
    """

    service_cycles: Optional[int] = None
    max_extra_latency: int = 400

    def __post_init__(self) -> None:
        if self.service_cycles is not None and self.service_cycles <= 0:
            raise ValueError("service_cycles must be positive")
        if self.max_extra_latency < 0:
            raise ValueError("max_extra_latency must be non-negative")

    @property
    def spec(self) -> str:
        """The canonical spec string this configuration round-trips to."""
        parts = []
        if self.service_cycles is not None:
            parts.append(f"service={self.service_cycles}")
        if self.max_extra_latency != 400:
            parts.append(f"max_extra={self.max_extra_latency}")
        return "shared_llc" + (":" + ",".join(parts) if parts else "")


def make_contention(spec: Optional[str]) -> Optional[ContentionConfig]:
    """Parse a contention spec string (``None``/``"none"`` disable it).

    Mirrors :func:`repro.dtm.make_policy`'s spec grammar:
    ``"<model>"`` or ``"<model>:key=value,key=value"``.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if not spec or spec == "none":
        return None
    name, _, params = spec.partition(":")
    if name != "shared_llc":
        raise ValueError(
            f"unknown contention model {name!r} "
            f"(available: {', '.join(CONTENTION_MODELS)}, none)"
        )
    kwargs: Dict[str, int] = {}
    if params:
        for item in params.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(f"malformed contention parameter {item!r}")
            try:
                number = int(value.strip())
            except ValueError as error:
                raise ValueError(
                    f"contention parameter {key!r} needs an integer, got {value!r}"
                ) from error
            if key == "service":
                kwargs["service_cycles"] = number
            elif key == "max_extra":
                kwargs["max_extra_latency"] = number
            else:
                raise ValueError(
                    f"unknown contention parameter {key!r} "
                    "(available: service, max_extra)"
                )
    return ContentionConfig(**kwargs)


class SharedLLCContention:
    """Deterministic per-interval memory-bandwidth contention model."""

    def __init__(self, config: ContentionConfig, processor: ProcessorConfig) -> None:
        self.config = config
        interconnect = processor.interconnect
        self.num_buses = interconnect.num_memory_buses
        self.arbitration_cycles = interconnect.bus_arbitration_latency
        self.service_cycles = (
            config.service_cycles
            if config.service_cycles is not None
            else 4 * interconnect.bus_latency
        )
        #: Telemetry: per-interval mean/max extra latency across threads.
        self.intervals = 0
        self.extra_sum = 0.0
        self.extra_max = 0
        self.total_misses = 0

    # ------------------------------------------------------------------
    def _queueing_delay(self, misses: int, interval_cycles: int) -> int:
        """Mean queueing delay of ``misses`` line transfers in one interval.

        The miss stream is spread uniformly over the interval and replayed
        through a fresh :class:`~repro.memory.bus.BusPool` with the
        configuration's memory-bus parameters; the result is the average
        wait beyond the unloaded arbitration + transfer time.  Pure
        function of ``(misses, interval_cycles)`` — no state survives
        between intervals, which is what keeps contended runs
        deterministic and order-independent across threads.
        """
        if misses <= 0 or interval_cycles <= 0:
            return 0
        replayed = min(misses, _MAX_REPLAYED_MISSES)
        pool = BusPool(
            "llc", self.num_buses, self.service_cycles, self.arbitration_cycles
        )
        unloaded = self.service_cycles + self.arbitration_cycles
        total_wait = 0
        for i in range(replayed):
            issue = i * interval_cycles // replayed
            total_wait += pool.request(issue) - issue - unloaded
        delay = round(total_wait / replayed)
        return min(self.config.max_extra_latency, int(delay))

    def extra_latencies(
        self, miss_counts: Sequence[int], interval_cycles: int
    ) -> List[int]:
        """Per-thread extra UL2 miss latency for the next interval.

        ``miss_counts[t]`` is thread ``t``'s UL2 miss count over the
        interval that just ran; the returned ``extra[t]`` is the mean
        queueing delay behind the *other* threads' aggregate traffic
        (leave-one-out), clamped to ``max_extra_latency``.  With one
        thread — or any interval in which no co-runner missed — every
        entry is zero.
        """
        total = sum(miss_counts)
        self.total_misses += total
        extras: List[int] = []
        for t in range(len(miss_counts)):
            corunner = total - miss_counts[t]
            extras.append(self._queueing_delay(corunner, interval_cycles))
        self.intervals += 1
        if extras:
            self.extra_sum += sum(extras) / len(extras)
            self.extra_max = max(self.extra_max, max(extras))
        return extras

    def telemetry(self) -> Dict[str, object]:
        """Summary folded into ``result.chip["contention"]``."""
        return {
            "model": "shared_llc",
            "spec": self.config.spec,
            "service_cycles": self.service_cycles,
            "memory_buses": self.num_buses,
            "max_extra_latency": self.config.max_extra_latency,
            "intervals": self.intervals,
            "total_ul2_misses": self.total_misses,
            "mean_extra_latency": (
                self.extra_sum / self.intervals if self.intervals else 0.0
            ),
            "peak_extra_latency": self.extra_max,
        }
