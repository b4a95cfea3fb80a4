"""Content-keyed on-disk cache of simulated campaign cells and trace artifacts.

Each *result* is stored as one binary file, ``*.result.bin``, named by the
cell's :meth:`~repro.campaign.spec.RunSpec.cache_key` — a hash over the
scaled configuration, benchmark, trace length, interval and seed.  The file
is the result's binary frame (:func:`repro.sim.serialization.result_to_bytes`):
the JSON result header without its intervals, then the per-interval power
and temperature matrices as raw ``float64``, so a store or load costs a copy
rather than a JSON encode or parse of every per-block value.  Repeated
figure runs therefore skip simulation entirely: a campaign whose cells are
all cached performs zero simulator invocations.

The cache also holds *activity traces*, ``*.trace.bin``: the timing stage's
output in its zlib-compressed binary frame
(:meth:`~repro.sim.activity_trace.ActivityTrace.to_bytes`), keyed by the
cell's :meth:`~repro.campaign.spec.RunSpec.timing_key`.  A physics sweep
that misses on every result key can still hit the trace artifact and replay
all of its cells without a single per-uop timing simulation — the expensive
stage is shared across campaigns, not just within one.

The cache is safe to share between runs: a file that fails to load
(truncated, foreign magic, another container or schema version, trailing
bytes) is treated as a miss, and both key kinds embed their schema version
and the package version, so entries written by a different release are
never matched — cache directories written by earlier releases (including
their JSON entries) are not read at all.  The one case the keys cannot see
is a *local, unreleased* edit to simulation code — when developing on the
simulator itself, point campaigns at a fresh ``--cache-dir`` (or delete the
old one).

Because trace artifacts accumulate alongside results, the cache exposes
:meth:`ResultCache.stats` and :meth:`ResultCache.prune` (oldest-first, down
to a byte budget), surfaced on the CLI as ``repro-campaign cache stats`` and
``repro-campaign cache prune --max-bytes N``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.campaign.spec import RunSpec
from repro.sim.activity_trace import TRACE_SCHEMA_VERSION, ActivityTrace
from repro.sim.warmcache import stamp_trace_source
from repro.sim.results import SimulationResult
from repro.sim.serialization import (
    SCHEMA_VERSION,
    atomic_write_bytes,
    result_from_bytes,
    result_to_bytes,
)

#: Suffix of binary result entries.
RESULT_SUFFIX = ".result.bin"
#: Suffix of binary trace artifacts.
TRACE_BIN_SUFFIX = ".trace.bin"
#: Everything that reading a cache entry can raise for a corrupt file.
_UNREADABLE = (ValueError, KeyError, TypeError, OSError)


class ResultCache:
    """Directory of per-cell results and trace artifacts keyed by content hash."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.trace_hits = 0
        self.trace_misses = 0
        self.trace_stores = 0

    def result_path_for(self, cache_key: str) -> Path:
        """On-disk location of a cell's result, by its content key."""
        # Both the serialization schema version and the package version
        # participate in the name: a schema bump must not mis-load old files,
        # and a code change that alters simulation output (without touching
        # the schema) must not silently serve the previous version's numbers
        # from a shared cache directory.
        from repro import __version__

        name = f"v{SCHEMA_VERSION}-{__version__}-{cache_key}"
        return self.directory / f"{name}{RESULT_SUFFIX}"

    def path_for(self, spec: RunSpec) -> Path:
        """On-disk location of the cell's result (whether or not it exists)."""
        return self.result_path_for(spec.cache_key())

    def _used(self, path: Path) -> None:
        """Hook called with each entry a lookup hits (see the sharded cache)."""

    def load(self, spec: RunSpec) -> Optional[SimulationResult]:
        """Return the cached result for ``spec``, or ``None`` on a miss."""
        path = self.path_for(spec)
        try:
            result = result_from_bytes(path.read_bytes())
        except _UNREADABLE:
            # Absent or unreadable is a miss; the entry will be rewritten.
            self.misses += 1
            return None
        self.hits += 1
        self._used(path)
        return result

    def store(self, spec: RunSpec, result: SimulationResult) -> Path:
        """Persist a freshly simulated cell."""
        self.stores += 1
        return atomic_write_bytes(self.path_for(spec), result_to_bytes(result))

    # ------------------------------------------------------------------
    # Activity-trace artifacts (keyed by RunSpec.timing_key)
    # ------------------------------------------------------------------
    def trace_path_for(self, timing_key: str) -> Path:
        """On-disk location of a timing key's trace artifact."""
        from repro import __version__

        name = f"trace-v{TRACE_SCHEMA_VERSION}-{__version__}-{timing_key}"
        return self.directory / f"{name}{TRACE_BIN_SUFFIX}"

    def load_trace(self, timing_key: str) -> Optional[ActivityTrace]:
        """Return the cached activity trace for a timing key, or ``None``."""
        path = self.trace_path_for(timing_key)
        try:
            trace = ActivityTrace.load_bytes(path)
        except _UNREADABLE:
            self.trace_misses += 1
            return None
        self.trace_hits += 1
        self._used(path)
        # Remember the on-disk artifact so the service can ship replay tasks
        # as a zero-copy path reference instead of pickled bytes.
        stamp_trace_source(trace, path)
        return trace

    def store_trace(self, timing_key: str, trace: ActivityTrace) -> Path:
        """Persist a freshly captured activity trace."""
        self.trace_stores += 1
        path = trace.save_bytes(self.trace_path_for(timing_key))
        stamp_trace_source(trace, path)
        return path

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    #: Glob prefix of the directories entries live in, below ``directory``.
    _entry_dirs = ""

    def _all_files(self) -> List[Path]:
        """Every result and trace entry (atomic-write scratch files end in
        ``.tmp``, so neither suffix lists them)."""
        return [
            path
            for suffix in (RESULT_SUFFIX, TRACE_BIN_SUFFIX)
            for path in self.directory.glob(f"{self._entry_dirs}*{suffix}")
        ]

    def _result_files(self) -> List[Path]:
        return [p for p in self._all_files() if p.name.endswith(RESULT_SUFFIX)]

    @staticmethod
    def _stat_entries(paths):
        """``(path, mtime, size)`` for every path that still exists.

        Listing and stat-ing a shared cache directory is inherently racy:
        another process (a concurrent ``prune``, the service janitor) may
        evict an entry between the two.  Every consumer therefore stats each
        entry exactly once and treats a vanished file as already gone.
        """
        entries = []
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted concurrently - no longer our problem
            entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def stats(self) -> Dict[str, int]:
        """Entry and byte counts by kind (results vs trace artifacts)."""
        return self._count(self._stat_entries(self._all_files()))

    @staticmethod
    def _count(entries) -> Dict[str, int]:
        results = [size for path, _, size in entries if path.name.endswith(RESULT_SUFFIX)]
        traces = [size for path, _, size in entries if path.name.endswith(TRACE_BIN_SUFFIX)]
        result_bytes, trace_bytes = sum(results), sum(traces)
        return {
            "results": len(results),
            "result_bytes": result_bytes,
            "traces": len(traces),
            "trace_bytes": trace_bytes,
            "total_bytes": result_bytes + trace_bytes,
        }

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Delete the oldest entries until the cache fits in ``max_bytes``.

        Results and trace artifacts age together (least-recently-modified
        first) — every entry is re-creatable, a trace merely costs one
        timing simulation to rebuild.  Ties on modification time break by
        file name, so the eviction order is deterministic rather than
        whatever order the filesystem happens to iterate a directory in.
        Entries evicted concurrently by another process count toward the
        freed budget but not toward this call's removal tally.  Returns
        what was removed.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries = self._stat_entries(self._all_files())
        entries.sort(key=lambda entry: (entry[1], entry[0].name))
        total = sum(size for _, _, size in entries)
        removed = 0
        removed_bytes = 0
        for path, _, size in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                # Someone else pruned it first; the bytes are freed either
                # way, so keep the running total converging on the budget.
                total -= size
                continue
            total -= size
            removed += 1
            removed_bytes += size
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "remaining_bytes": total,
        }

    def __len__(self) -> int:
        """Number of cached *results* (trace artifacts are not cells)."""
        return len(self._result_files())

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores}, "
            f"trace_hits={self.trace_hits}, trace_misses={self.trace_misses}, "
            f"trace_stores={self.trace_stores})"
        )
