"""Serialization of simulation results: JSON documents and binary frames.

Long experiment campaigns (all 26 workloads, several configurations) are
expensive in pure Python, so the results are worth persisting.  Two
encodings carry the same content and the same schema version:

* JSON (:func:`result_to_dict`, :func:`save_result`/:func:`load_result`) —
  the readable exchange format of the CLI outputs, the golden fixtures and
  the service's results payload;
* a binary frame (:func:`result_to_bytes`/:func:`result_from_bytes`) — what
  the campaign result cache stores.  Container version 2: a JSON header
  (the document without the intervals and without its per-block float
  mappings), then the interval table's vectors and matrices, then the block
  areas and warm-up temperatures as vectors, all raw ``float64``.  A cache
  hit parses about 2 KB of JSON and builds no per-interval or per-block
  object: the decoded table is views of the frame's buffer and the two
  per-block mappings are :class:`~repro.sim.results.BlockValues` views of
  theirs.  Version-1 frames are not read (a cache miss).

Both rebuild a :class:`~repro.sim.results.SimulationResult` that supports
the same metric queries as a freshly simulated one.  The frame container
(:func:`pack_frame`/:class:`Frame`) is shared with the activity-trace codec.

Content keys (:func:`content_key`) are the sha256 of canonical JSON.  A
campaign cell's key material embeds its whole configuration, so
:func:`spliced_content_key` takes that configuration as canonical JSON text
encoded once per config object (see
:func:`repro.campaign.spec.config_json`) and splices it into the document:
the digest is byte for byte the one :func:`content_key` gives the full
material.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.sim.results import BlockValues, IntervalTable, SimulationResult
from repro.sim.stats import SimulationStats

#: Version stamp written into every file so future schema changes are detectable.
#: Version 2 added the ``provenance`` mapping (thermal interval in cycles plus
#: the experiment-settings parameters of the run) that the campaign result
#: cache keys depend on; version 3 added the ``dtm`` mapping (DTM policy name,
#: interval/engagement counts, throttle ratio, DVFS step residency and mean
#: frequency ratio); version 4 added the ``chip`` mapping (core count,
#: per-core benchmarks and summaries, chip DTM policy, migration log and
#: chip aggregates) written by multi-core runs.  Files of any earlier
#: version still load, with the missing mappings empty.
SCHEMA_VERSION = 4


def content_key(material) -> str:
    """The sha256 hex digest of ``material`` as canonical JSON.

    The one content key of the package: result-cache cells, trace
    artifacts, batched-replay sub-groups and warm solver bundles are all
    identified by it.  Sorted keys and no whitespace make the key
    independent of dict order and interpreter version.
    """
    return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()


def spliced_content_key(material: Dict, encoded: Dict[str, str]) -> str:
    """:func:`content_key` of ``material`` plus entries already encoded.

    ``encoded`` maps further top-level keys to their :func:`canonical_json`
    text, which is spliced into the document as it is: a campaign cell
    encodes its (large) configuration once per config object and reuses
    the text in every key it derives.  Canonical JSON encodes each value of
    a mapping independently of the others, so the digest equals
    ``content_key({**material, **decoded(encoded)})`` byte for byte.
    """
    items = {key: _ENCODER.encode(value) for key, value in material.items()}
    items.update(encoded)
    text = ",".join(f"{_ENCODER.encode(key)}:{items[key]}" for key in sorted(items))
    return hashlib.sha256(("{" + text + "}").encode("utf-8")).hexdigest()


def canonical_json(material) -> str:
    """``material`` as canonical JSON text: sorted keys, no whitespace."""
    return _ENCODER.encode(material)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


#: Schema versions :func:`result_from_dict` can reconstruct.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4)

#: Magic prefix of a binary result frame (:func:`result_to_bytes`).
RESULT_BIN_MAGIC = b"RRES"
#: Version of the binary result *container* layout (the result schema
#: version travels inside the header).  Version 2 moved ``block_areas_mm2``
#: and ``warmup_temperature`` out of the JSON header into ``<f8`` vectors
#: after the interval matrices; a version-1 frame no longer loads (a cache
#: miss).
RESULT_BIN_VERSION = 2


# ----------------------------------------------------------------------
# Binary frames
# ----------------------------------------------------------------------
def pack_frame(
    magic: bytes,
    version: int,
    header: Dict,
    arrays: Sequence[np.ndarray],
    level: Optional[int] = None,
) -> bytes:
    """One binary frame: ``magic``, a version byte, then the body.

    The body is a ``<I``-length-prefixed canonical-JSON ``header`` followed
    by the raw C-order bytes of each array, in order; the caller gives the
    arrays in their on-disk (little-endian) dtypes.  With ``level`` the body
    is zlib-compressed at that level.  Stdlib and NumPy only.
    """
    header_bytes = canonical_json(header).encode("utf-8")
    body = b"".join(
        [struct.pack("<I", len(header_bytes)), header_bytes]
        + [array.tobytes() for array in arrays]
    )
    if level is not None:
        body = zlib.compress(body, level)
    return magic + struct.pack("<B", version) + body


class Frame:
    """The header and arrays of one :func:`pack_frame` frame.

    ``data`` is anything exposing the buffer protocol (``bytes``,
    ``memoryview``, ``mmap.mmap``, a shared-memory buffer).  Arrays are read
    in order with :meth:`take` as read-only views of the body, and
    :meth:`finish` checks that nothing is left over.  Every malformation —
    bad magic, another container version, a corrupt zlib stream, a truncated
    body, trailing bytes — raises ``ValueError`` naming ``what``.
    """

    def __init__(
        self, data, magic: bytes, version: int, what: str, compressed: bool = False
    ) -> None:
        self.what = what
        view = data if isinstance(data, memoryview) else memoryview(data)
        if len(view) <= len(magic) or bytes(view[: len(magic)]) != magic:
            raise ValueError(f"not a {what} (bad magic)")
        if view[len(magic)] != version:
            raise ValueError(
                f"unsupported {what} container version {view[len(magic)]} "
                f"(supported: {version})"
            )
        body = view[len(magic) + 1 :]
        if compressed:
            try:
                body = zlib.decompress(body)
            except zlib.error as error:
                raise ValueError(f"corrupt {what}: {error}") from error
        if len(body) < 4:
            raise ValueError(f"truncated {what}")
        (length,) = struct.unpack_from("<I", body, 0)
        if 4 + length > len(body):
            raise ValueError(f"truncated {what}")
        header = json.loads(bytes(body[4 : 4 + length]))
        if not isinstance(header, dict):
            raise ValueError(f"{what} header is not a mapping")
        self.header: Dict = header
        self._body = body
        self._offset = 4 + length

    def take(self, count: int, dtype) -> np.ndarray:
        """The next ``count`` items of ``dtype`` (a view, not a copy)."""
        dtype = np.dtype(dtype)
        end = self._offset + count * dtype.itemsize
        if count < 0 or end > len(self._body):
            raise ValueError(f"truncated {self.what}")
        array = np.frombuffer(self._body, dtype=dtype, count=count, offset=self._offset)
        self._offset = end
        return array

    def finish(self) -> None:
        if self._offset != len(self._body):
            raise ValueError(f"{self.what} has trailing bytes")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _result_header(result: SimulationResult) -> Dict:
    """Everything of :func:`result_to_dict` except the intervals."""
    return {
        "schema_version": SCHEMA_VERSION,
        "provenance": dict(result.provenance),
        "dtm": dict(result.dtm),
        "chip": dict(result.chip),
        "config_name": result.config_name,
        "benchmark": result.benchmark,
        "ambient_celsius": result.ambient_celsius,
        "block_names": list(result.block_names),
        "block_groups": {group: list(names) for group, names in result.block_groups.items()},
        "block_areas_mm2": dict(result.block_areas_mm2.items()),
        "warmup_temperature": dict(result.warmup_temperature.items()),
        "stats": result.stats.to_payload(),
    }


#: The interval table's per-block matrices, as the document's entry keys.
_MATRICES = ("dynamic_power", "leakage_power", "temperature")


def result_to_dict(result: SimulationResult) -> Dict:
    """Convert a :class:`SimulationResult` to a JSON-serializable dictionary.

    Each interval's per-block mappings are built from the table's rows for
    the document only; the result keeps none of them.
    """
    document = _result_header(result)
    names = result.intervals.block_names
    cycles, seconds, *matrices = (array.tolist() for array in result.intervals.arrays)
    document["intervals"] = [
        {
            "cycle": cycle,
            "seconds": second,
            **{key: dict(zip(names, row)) for key, row in zip(_MATRICES, rows)},
        }
        for cycle, second, *rows in zip(cycles, seconds, *matrices)
    ]
    return document


def result_from_dict(data: Dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` output."""
    _check_schema(data, SUPPORTED_SCHEMA_VERSIONS)
    rows = [
        (entry["cycle"], entry["seconds"], *(entry[key] for key in _MATRICES))
        for entry in data["intervals"]
    ]
    return _result_from_header(data, IntervalTable.from_mappings(data["block_names"], rows))


#: Per-block mappings a binary frame carries as ``<f8`` vectors in
#: ``block_names`` order (when keyed by exactly those blocks) instead of in
#: its JSON header.
_BLOCK_VECTORS = ("block_areas_mm2", "warmup_temperature")


def _block_vector(mapping, names) -> Optional[np.ndarray]:
    """``mapping`` as a vector in ``names`` order, or ``None`` when it is not
    keyed by exactly those blocks with float values."""
    if isinstance(mapping, BlockValues) and list(mapping.block_names) == list(names):
        return mapping.vector
    if mapping.keys() == set(names) and all(
        isinstance(value, float) for value in mapping.values()
    ):
        return np.array([mapping[name] for name in names], dtype="<f8")
    return None


def result_to_bytes(result: SimulationResult) -> bytes:
    """The binary frame of a result (what the campaign cache stores).

    The :func:`pack_frame` header is :func:`result_to_dict` without the
    intervals, plus their count; the arrays are the interval table's
    (``cycle`` as ``<i8``, the rest ``<f8``), then ``block_areas_mm2`` and
    ``warmup_temperature`` as vectors in ``block_names`` order, unless keyed
    by other blocks (an empty warm-up, say: it stays in the header).
    Uncompressed: float data barely shrinks.
    """
    names = result.block_names
    cycles, seconds, *matrices = result.intervals.arrays
    header = _result_header(result)
    header["intervals"] = len(cycles)
    arrays = [np.asarray(cycles, dtype="<i8"), np.asarray(seconds, dtype="<f8")]
    arrays += [np.asarray(matrix, dtype="<f8") for matrix in matrices]
    for key in _BLOCK_VECTORS:
        vector = _block_vector(getattr(result, key), names)
        if vector is not None:
            del header[key]
            arrays.append(np.asarray(vector, dtype="<f8"))
    return pack_frame(RESULT_BIN_MAGIC, RESULT_BIN_VERSION, header, arrays)


def result_from_bytes(data) -> SimulationResult:
    """Inverse of :func:`result_to_bytes`; raises ``ValueError`` on bad input.

    The result's interval table and its block-area and warm-up
    :class:`~repro.sim.results.BlockValues` are read-only views of the
    frame's buffer: decoding builds no record and no per-block mapping.
    """
    frame = Frame(data, RESULT_BIN_MAGIC, RESULT_BIN_VERSION, "binary result")
    header = frame.header
    _check_schema(header, (SCHEMA_VERSION,))
    names = header["block_names"]
    count, width = int(header["intervals"]), len(names)
    vectors = [key for key in _BLOCK_VECTORS if key not in header]
    cycles = frame.take(count, "<i8")
    # Everything after the cycles is float64: one view, sliced.
    floats = frame.take(count * (1 + 3 * width) + len(vectors) * width, "<f8")
    frame.finish()
    matrices_end = count * (1 + 3 * width)
    matrices = floats[count:matrices_end].reshape(3, count, width)
    for key, vector in zip(vectors, floats[matrices_end:].reshape(len(vectors), width)):
        header[key] = BlockValues(names, vector)
    return _result_from_header(
        header, IntervalTable(names, cycles, floats[:count], *matrices)
    )


def _check_schema(data: Dict, supported: Sequence[int]) -> None:
    version = data.get("schema_version")
    if version not in supported:
        raise ValueError(
            f"unsupported result schema version {version!r} "
            f"(supported: {tuple(supported)})"
        )


def _result_from_header(data: Dict, intervals: IntervalTable) -> SimulationResult:
    """A result from a document's non-interval fields and its interval table."""
    return SimulationResult(
        config_name=data["config_name"],
        benchmark=data["benchmark"],
        stats=SimulationStats.from_payload(data["stats"]),
        block_names=data["block_names"],
        block_groups=data["block_groups"],
        block_areas_mm2=data["block_areas_mm2"],
        intervals=intervals,
        ambient_celsius=data["ambient_celsius"],
        warmup_temperature=data.get("warmup_temperature", {}),
        # Absent from schema-version-1 files; such results are still fully
        # usable for metric queries, they just cannot seed the result cache.
        provenance=data.get("provenance", {}),
        # Absent before schema version 3 (and from runs without a DTM policy).
        dtm=data.get("dtm", {}),
        # Absent before schema version 4 (and from single-core runs).
        chip=data.get("chip", {}),
    )


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + :func:`os.replace`).

    The temporary file lives in the target directory (``os.replace`` must
    not cross filesystems) and its name embeds pid and thread id, so
    concurrent writers — two campaign workers storing an identically-keyed
    cell, or the service's janitor racing a store — never collide on the
    scratch file either.  The result is last-writer-wins: a reader observes
    either the old complete file or the new one, never a torn write.  Used
    for saved JSON results and the campaign cache's binary entries
    (``*.result.bin`` and ``*.trace.bin``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.parent / (
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        scratch.write_bytes(data)
        os.replace(scratch, path)
    finally:
        if scratch.exists():  # pragma: no cover - only on a failed replace
            scratch.unlink()
    return path


def save_result(result: SimulationResult, path: Union[str, Path]) -> Path:
    """Write a result to ``path`` as JSON; returns the path.

    The write is atomic (see :func:`atomic_write_bytes`): concurrent writers
    of the same path race to a last-writer-wins outcome, and a reader can
    never observe a torn, half-written JSON document.
    """
    text = json.dumps(result_to_dict(result), indent=2, sort_keys=True)
    return atomic_write_bytes(path, text.encode("utf-8"))


def load_result(path: Union[str, Path]) -> SimulationResult:
    """Load a result previously written by :func:`save_result`."""
    data = json.loads(Path(path).read_text())
    return result_from_dict(data)
