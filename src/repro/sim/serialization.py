"""JSON serialization of simulation results and experiment summaries.

Long experiment campaigns (all 26 workloads, several configurations) are
expensive in pure Python, so the results are worth persisting.  The format is
plain JSON with an explicit schema version; loading reconstructs a
:class:`~repro.sim.results.SimulationResult` that supports the same metric
queries as a freshly simulated one.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict, Union

from repro.sim.results import IntervalRecord, SimulationResult
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
    payload = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

#: Schema versions :func:`result_from_dict` can reconstruct.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4)


def result_to_dict(result: SimulationResult) -> Dict:
    """Convert a :class:`SimulationResult` to a JSON-serializable dictionary."""
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
        "block_areas_mm2": dict(result.block_areas_mm2),
        "warmup_temperature": dict(result.warmup_temperature),
        "stats": result.stats.to_payload(),
        "intervals": [
            {
                "cycle": record.cycle,
                "seconds": record.seconds,
                "dynamic_power": record.dynamic_power,
                "leakage_power": record.leakage_power,
                "temperature": record.temperature,
            }
            for record in result.intervals
        ],
    }


def result_from_dict(data: Dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` output."""
    version = data.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported result schema version {version!r} "
            f"(supported: {SUPPORTED_SCHEMA_VERSIONS})"
        )
    stats = SimulationStats.from_payload(data["stats"])
    intervals = [
        IntervalRecord(
            cycle=entry["cycle"],
            seconds=entry["seconds"],
            dynamic_power=entry["dynamic_power"],
            leakage_power=entry["leakage_power"],
            temperature=entry["temperature"],
        )
        for entry in data["intervals"]
    ]
    return SimulationResult(
        config_name=data["config_name"],
        benchmark=data["benchmark"],
        stats=stats,
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


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + :func:`os.replace`).

    The temporary file lives in the target directory (``os.replace`` must
    not cross filesystems) and its name embeds pid and thread id, so
    concurrent writers — two campaign workers storing an identically-keyed
    cell, or the service's janitor racing a store — never collide on the
    scratch file either.  The result is last-writer-wins: a reader observes
    either the old complete document or the new one, never a torn write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.parent / (
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        scratch.write_text(text)
        os.replace(scratch, path)
    finally:
        if scratch.exists():  # pragma: no cover - only on a failed replace
            scratch.unlink()
    return path


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Binary twin of :func:`atomic_write_text` (temp file + ``os.replace``).

    Same guarantees: the scratch file lives next to the target, its name
    embeds pid and thread id, the final rename is atomic and
    last-writer-wins.  Used for the campaign cache's binary trace artifacts
    (``*.trace.bin``).
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

    The write is atomic (see :func:`atomic_write_text`): concurrent writers
    of the same path race to a last-writer-wins outcome, and a reader can
    never observe a torn, half-written JSON document.
    """
    return atomic_write_text(
        path, json.dumps(result_to_dict(result), indent=2, sort_keys=True)
    )


def load_result(path: Union[str, Path]) -> SimulationResult:
    """Load a result previously written by :func:`save_result`."""
    data = json.loads(Path(path).read_text())
    return result_from_dict(data)
