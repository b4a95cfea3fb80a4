"""Serializable activity traces: the hand-off between the two simulation stages.

The engine's per-uop timing simulation is pure Python and dominates the cost
of a cell (~16 k uops/s), while the array-backed physics pipeline processes
thousands of intervals per second.  Yet only the *physics* side depends on
the power/thermal parameters a sweep typically varies — the timing model
never reads ``config.power`` or ``config.thermal`` beyond the interval
length.  An :class:`ActivityTrace` captures everything the physics stage
consumes from the timing stage:

* the per-interval activity-count matrix over the engine's
  :class:`~repro.sim.block_index.BlockIndex` (``counts``, accesses),
* the cycles each interval actually ran and the processor cycle at which it
  ended (the variable-length final interval is preserved exactly),
* the per-interval Vdd-gated-bank masks produced by the (deterministic,
  temperature-independent) bank-hopping rotation,
* the run's final :class:`~repro.sim.stats.SimulationStats`.

Replaying a trace through :class:`~repro.sim.engine.PhysicsStage` reproduces
the coupled run bit-for-bit — provided the timing stage genuinely never saw
a temperature.  :func:`timing_feedback_reason` is the single authority on
that: thermal-aware bank mapping and feedback-bearing DTM policies couple
temperatures back into timing, so such cells must never be captured or
replayed (the campaign layer falls back to the exact coupled path
automatically).

Traces serialize to canonical JSON (:meth:`ActivityTrace.to_json`): two
specs that differ only in physics-side parameters produce *byte-identical*
trace documents, which is what lets the campaign
:class:`~repro.campaign.cache.ResultCache` store one trace artifact per
:meth:`~repro.campaign.spec.RunSpec.timing_key` and share it across every
cell of a physics sweep.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.stats import SimulationStats

#: Version stamp of the trace document format.  Bump on any change to the
#: captured fields; the campaign cache embeds it in trace-artifact keys so a
#: stale on-disk trace is never replayed by a newer implementation.
#: Version 2 added the ``provenance`` mapping (timing-side generation
#: parameters: seed, trace length), which the chip layer uses to identify the
#: single-core capture a per-core trace came from.
TRACE_SCHEMA_VERSION = 2

#: Magic prefix of the binary trace container (:meth:`ActivityTrace.to_bytes`).
TRACE_BIN_MAGIC = b"RTRC"
#: Version of the binary *container* layout (independent of the trace
#: document schema above, which is carried inside the header).
TRACE_BIN_VERSION = 1


def timing_feedback_reason(config, dtm_policy=None) -> Optional[str]:
    """Why a cell's timing depends on its physics — or ``None`` if it doesn't.

    The two-stage split is only sound when temperatures never influence the
    instruction stream.  Two mechanisms break that:

    * the paper's thermal-aware bank mapping (Section 3.2.2) biases the
      trace-cache mapping table by sensor readings, steering fetch — and
      with it every downstream activity count — by temperature;
    * any DTM policy that actuates on sensor readings (fetch throttling,
      clock gating, DVFS — everything except the explicit no-op policy,
      see :attr:`repro.dtm.policies.DTMPolicy.feedback`).

    Returns a human-readable reason for the coupled fallback, or ``None``
    when the cell is safe to capture and replay.  ``dtm_policy`` is a
    :class:`~repro.dtm.policies.DTMPolicy` or a :func:`repro.dtm.make_policy`
    spec string (or ``None``).
    """
    if config.frontend.trace_cache.thermal_aware_mapping:
        return "thermal-aware bank mapping steers fetch by temperature"
    if isinstance(dtm_policy, str):
        # Imported lazily: repro.dtm pulls in the block index and config
        # modules, and this helper is also called from the campaign layer.
        from repro.dtm import make_policy

        dtm_policy = make_policy(dtm_policy)
    if dtm_policy is not None and dtm_policy.feedback:
        return f"DTM policy {dtm_policy.name!r} actuates on temperatures"
    return None


@dataclass(frozen=True)
class ActivityTrace:
    """The timing stage's complete output for one (config, benchmark) cell.

    Arrays are laid out interval-major: row ``i`` of :attr:`counts` (and of
    :attr:`gated_masks`, when present) describes interval ``i``.  All content
    is timing-side only — nothing here depends on ``config.power`` or
    ``config.thermal``, which is what makes one trace replayable under every
    physics variant of its timing key.
    """

    #: Benchmark the trace was generated from.
    benchmark: str
    #: Block names in capture order (the engine's block-index order).
    block_names: Tuple[str, ...]
    #: Nominal thermal-interval length in cycles.
    interval_cycles: int
    #: Per-interval activity counts, shape (intervals, blocks), accesses.
    counts: np.ndarray
    #: Cycles each interval actually ran (the final one may be shorter).
    cycles: np.ndarray
    #: Processor cycle at the end of each interval.
    end_cycles: np.ndarray
    #: Per-interval Vdd-gated-bank masks, shape (intervals, blocks), or
    #: ``None`` when the configuration gates no banks.
    gated_masks: Optional[np.ndarray]
    #: Final timing statistics of the captured run.
    stats: SimulationStats
    #: Timing-side generation parameters of the capture (``seed``,
    #: ``trace_uops``, ...).  Strictly *timing* content only: two cells that
    #: differ in a physics parameter must still produce byte-identical trace
    #: documents, so nothing physics-side (and no DTM policy name — ``None``
    #: and ``"none"`` share a trace) may ever be recorded here.
    provenance: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_blocks(self) -> int:
        return int(self.counts.shape[1])

    def stats_copy(self) -> SimulationStats:
        """A private stats object for one replayed result."""
        return self.stats.clone()

    # ------------------------------------------------------------------
    # Canonical serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready document (canonical: a pure function of the content)."""
        return {
            "trace_schema_version": TRACE_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "block_names": list(self.block_names),
            "interval_cycles": self.interval_cycles,
            "counts": self.counts.tolist(),
            "cycles": self.cycles.tolist(),
            "end_cycles": self.end_cycles.tolist(),
            "gated_masks": (
                None
                if self.gated_masks is None
                else [[bool(v) for v in row] for row in self.gated_masks]
            ),
            "stats": self.stats.to_payload(),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ActivityTrace":
        version = data.get("trace_schema_version")
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported activity-trace schema version {version!r} "
                f"(supported: {TRACE_SCHEMA_VERSION})"
            )
        stats = SimulationStats.from_payload(data["stats"])
        gated = data["gated_masks"]
        return cls(
            benchmark=data["benchmark"],
            block_names=tuple(data["block_names"]),
            interval_cycles=data["interval_cycles"],
            counts=np.asarray(data["counts"], dtype=np.int64),
            cycles=np.asarray(data["cycles"], dtype=np.int64),
            end_cycles=np.asarray(data["end_cycles"], dtype=np.int64),
            gated_masks=None if gated is None else np.asarray(gated, dtype=bool),
            stats=stats,
            provenance=data.get("provenance", {}),
        )

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical timing content."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ActivityTrace":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        # Atomic (temp file + rename): concurrent captures of the same
        # timing key — two service jobs racing — are last-writer-wins and a
        # reader never sees a torn artifact.
        from repro.sim.serialization import atomic_write_text

        return atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ActivityTrace":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    # Compact binary serialization (cache artifacts, process boundaries)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Compact binary form: a zlib-compressed header + raw array bytes.

        Layout: the 4-byte :data:`TRACE_BIN_MAGIC`, one container-version
        byte, then a zlib stream of ``<I``-length-prefixed canonical-JSON
        header (schema version, benchmark, block names, interval length,
        array dimensions, stats, provenance) followed by the arrays as raw
        little-endian bytes (``counts``/``cycles``/``end_cycles`` as
        ``int64``, the gated masks — when present — as ``uint8``).  Stdlib
        only (``struct`` + ``zlib``), like the PNG encoder.  An order of
        magnitude smaller than :meth:`to_json` (counts compress well), which
        is what the campaign cache stores on disk (``*.trace.bin``) and what
        pickling ships across pool/service process boundaries.
        """
        header = {
            "trace_schema_version": TRACE_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "block_names": list(self.block_names),
            "interval_cycles": self.interval_cycles,
            "intervals": len(self),
            "blocks": self.num_blocks,
            "has_gated_masks": self.gated_masks is not None,
            "stats": self.stats.to_payload(),
            "provenance": dict(self.provenance),
        }
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        parts = [
            struct.pack("<I", len(header_bytes)),
            header_bytes,
            np.ascontiguousarray(self.counts, dtype="<i8").tobytes(),
            np.ascontiguousarray(self.cycles, dtype="<i8").tobytes(),
            np.ascontiguousarray(self.end_cycles, dtype="<i8").tobytes(),
        ]
        if self.gated_masks is not None:
            parts.append(
                np.ascontiguousarray(self.gated_masks, dtype=np.uint8).tobytes()
            )
        return (
            TRACE_BIN_MAGIC
            + struct.pack("<B", TRACE_BIN_VERSION)
            + zlib.compress(b"".join(parts), 6)
        )

    @classmethod
    def from_bytes(cls, data) -> "ActivityTrace":
        """Inverse of :meth:`to_bytes`; raises ``ValueError`` on bad input.

        Accepts any object exposing the buffer protocol (``bytes``,
        ``memoryview``, ``mmap.mmap``, a ``multiprocessing.shared_memory``
        buffer slice), so callers can decode straight out of a memory-mapped
        cache artifact or a shared-memory segment without first copying the
        compressed payload into a ``bytes`` object.
        """
        view = data if isinstance(data, memoryview) else memoryview(data)
        if bytes(view[: len(TRACE_BIN_MAGIC)]) != TRACE_BIN_MAGIC:
            raise ValueError("not a binary activity trace (bad magic)")
        version = view[len(TRACE_BIN_MAGIC)]
        if version != TRACE_BIN_VERSION:
            raise ValueError(
                f"unsupported binary trace container version {version} "
                f"(supported: {TRACE_BIN_VERSION})"
            )
        try:
            payload = zlib.decompress(view[len(TRACE_BIN_MAGIC) + 1 :])
        except zlib.error as error:
            raise ValueError(f"corrupt binary activity trace: {error}") from error
        (header_len,) = struct.unpack_from("<I", payload, 0)
        offset = 4
        header = json.loads(payload[offset : offset + header_len].decode("utf-8"))
        offset += header_len
        schema = header.get("trace_schema_version")
        if schema != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported activity-trace schema version {schema!r} "
                f"(supported: {TRACE_SCHEMA_VERSION})"
            )
        intervals = int(header["intervals"])
        blocks = int(header["blocks"])

        def take(count: int, dtype) -> np.ndarray:
            nonlocal offset
            array = np.frombuffer(
                payload, dtype=dtype, count=count, offset=offset
            )
            offset += array.nbytes
            return array

        counts = take(intervals * blocks, "<i8").reshape(intervals, blocks)
        cycles = take(intervals, "<i8")
        end_cycles = take(intervals, "<i8")
        gated = None
        if header["has_gated_masks"]:
            gated = (
                take(intervals * blocks, np.uint8)
                .reshape(intervals, blocks)
                .astype(bool)
            )
        if offset != len(payload):
            raise ValueError("binary activity trace has trailing bytes")
        return cls(
            benchmark=header["benchmark"],
            block_names=tuple(header["block_names"]),
            interval_cycles=int(header["interval_cycles"]),
            counts=counts.astype(np.int64),
            cycles=cycles.astype(np.int64),
            end_cycles=end_cycles.astype(np.int64),
            gated_masks=gated,
            stats=SimulationStats.from_payload(header["stats"]),
            provenance=header.get("provenance", {}),
        )

    def save_bytes(self, path: Union[str, Path]) -> Path:
        """Write the compact binary form atomically (see :meth:`save`)."""
        from repro.sim.serialization import atomic_write_bytes

        return atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load_bytes(cls, path: Union[str, Path]) -> "ActivityTrace":
        return cls.from_bytes(Path(path).read_bytes())

    def __reduce__(self):
        # Pickle as the compressed binary form: a replay-group task carries
        # its trace across the pool/service process boundary as a few kB of
        # zlib bytes instead of megabytes of pickled int64 arrays.
        return (ActivityTrace.from_bytes, (self.to_bytes(),))


class TraceRecorder:
    """Accumulates per-interval timing output during a coupled (capture) run.

    The engine calls :meth:`record` once per simulated interval — right
    after the activity counters are drained, with exactly the vectors the
    physics stage is about to consume — and :meth:`finish` at the end of the
    run.  Counts and masks are copied: the engine hands over live arrays.
    """

    def __init__(
        self,
        benchmark: str,
        block_names: Sequence[str],
        interval_cycles: int,
        provenance: Optional[Dict[str, object]] = None,
    ) -> None:
        self.benchmark = benchmark
        self.block_names = tuple(block_names)
        self.interval_cycles = interval_cycles
        self.provenance = dict(provenance or {})
        self._counts = []
        self._cycles = []
        self._end_cycles = []
        self._masks = []
        self._any_gated = False

    def record(
        self,
        counts: np.ndarray,
        cycles_elapsed: int,
        end_cycle: int,
        gated_mask: Optional[np.ndarray],
    ) -> None:
        self._counts.append(np.array(counts, dtype=np.int64))
        self._cycles.append(cycles_elapsed)
        self._end_cycles.append(end_cycle)
        if gated_mask is not None:
            self._any_gated = True
        self._masks.append(None if gated_mask is None else np.array(gated_mask, dtype=bool))

    def finish(self, stats: SimulationStats) -> ActivityTrace:
        if not self._counts:
            raise ValueError("cannot build an ActivityTrace from zero intervals")
        masks: Optional[np.ndarray] = None
        if self._any_gated:
            blocks = len(self.block_names)
            masks = np.stack(
                [
                    m if m is not None else np.zeros(blocks, dtype=bool)
                    for m in self._masks
                ]
            )
        return ActivityTrace(
            benchmark=self.benchmark,
            block_names=self.block_names,
            interval_cycles=self.interval_cycles,
            counts=np.stack(self._counts),
            cycles=np.asarray(self._cycles, dtype=np.int64),
            end_cycles=np.asarray(self._end_cycles, dtype=np.int64),
            gated_masks=masks,
            stats=stats.clone(),
            provenance=dict(self.provenance),
        )
