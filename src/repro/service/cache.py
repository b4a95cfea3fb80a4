"""Multi-tenant sharded result cache — the service's shared warm store.

:class:`ShardedResultCache` grows the campaign layer's content-keyed
:class:`~repro.campaign.cache.ResultCache` into something a long-running
multi-client service can sit on:

* **Sharding** — entries spread over ``shards`` subdirectories
  (``shard-00/ .. shard-NN/``) by a prefix of the cell's content hash, so
  no single directory accumulates tens of thousands of files and shard
  statistics localize churn.  Each shard holds the base cache's entry
  kinds — binary results (``*.result.bin``) and binary trace artifacts
  (``*.trace.bin``); cache directories written by earlier releases, flat
  or sharded, are not read.
* **LRU eviction with a byte budget** — loading an entry touches its
  mtime, so :meth:`prune` (inherited, deterministic mtime-then-name order)
  becomes least-recently-*used* eviction; :meth:`enforce_budget` applies
  the configured ``max_bytes``, and :meth:`start_janitor` runs it from a
  background daemon thread so eviction never sits on a request path.
* **Multi-tenancy** — :meth:`for_tenant` returns a lightweight view that
  counts one tenant's hits/misses/stores separately while reading and
  writing the SAME shared shards: the store is content-addressed, so two
  tenants submitting identically-keyed cells share one entry (the second
  tenant's lookup is a hit on the first tenant's stored result).

All stores are atomic (temp file + rename, see
:func:`repro.sim.serialization.atomic_write_bytes`), so concurrent jobs —
and concurrent *server processes* pointed at one directory — race safely
to last-writer-wins without torn reads.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from repro.campaign.cache import ResultCache
from repro.campaign.spec import RunSpec
from repro.sim.activity_trace import ActivityTrace
from repro.sim.results import SimulationResult


class ShardedResultCache(ResultCache):
    """A :class:`ResultCache` spread over hash-prefix shard directories."""

    def __init__(
        self,
        directory: Union[str, Path],
        shards: int = 16,
        max_bytes: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        super().__init__(directory)
        self.shards = shards
        self.max_bytes = max_bytes
        self._counter_lock = threading.Lock()
        self._tenants: Dict[str, "TenantCacheView"] = {}
        self._janitor: Optional[threading.Thread] = None
        self._janitor_stop = threading.Event()

    # ------------------------------------------------------------------
    # Shard layout
    # ------------------------------------------------------------------
    def shard_name(self, content_hash: str) -> str:
        """Shard directory for a cell/trace content hash (hex string)."""
        index = int(content_hash[:8], 16) % self.shards
        return f"shard-{index:02d}"

    def result_path_for(self, cache_key: str) -> Path:
        flat = super().result_path_for(cache_key)
        return self.directory / self.shard_name(cache_key) / flat.name

    def trace_path_for(self, timing_key: str) -> Path:
        flat = super().trace_path_for(timing_key)
        return self.directory / self.shard_name(timing_key) / flat.name

    def _used(self, path: Path) -> None:
        """Refresh a hit entry's mtime so pruning approximates true LRU."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry evicted under our feet
            pass

    # ------------------------------------------------------------------
    # Housekeeping across shards
    # ------------------------------------------------------------------
    _entry_dirs = "shard-*/"

    def stats(self) -> Dict[str, object]:
        """Base counts/bytes plus a per-shard and per-tenant breakdown.

        One listing, one stat per entry (tolerant of concurrent eviction by
        the janitor or another server process), so the per-shard bytes sum
        to ``total_bytes``.
        """
        entries = self._stat_entries(self._all_files())
        stats: Dict[str, object] = self._count(entries)
        per_shard = {
            f"shard-{index:02d}": {"entries": 0, "bytes": 0}
            for index in range(self.shards)
        }
        for path, _, size in entries:
            shard = per_shard.setdefault(path.parent.name, {"entries": 0, "bytes": 0})
            shard["entries"] += 1
            shard["bytes"] += size
        stats["shards"] = per_shard
        stats["tenants"] = {
            name: view.counters() for name, view in sorted(self._tenants.items())
        }
        return stats

    def enforce_budget(self) -> Dict[str, int]:
        """Apply the configured byte budget (no-op without ``max_bytes``)."""
        if self.max_bytes is None:
            return {"removed": 0, "removed_bytes": 0, "remaining_bytes": -1}
        return self.prune(self.max_bytes)

    # ------------------------------------------------------------------
    # Background janitor
    # ------------------------------------------------------------------
    def start_janitor(self, interval_seconds: float = 30.0) -> None:
        """Enforce the byte budget periodically from a daemon thread."""
        if self._janitor is not None:
            return
        self._janitor_stop.clear()

        def _loop() -> None:
            while not self._janitor_stop.wait(interval_seconds):
                try:
                    self.enforce_budget()
                except OSError:  # pragma: no cover - directory vanished
                    pass

        self._janitor = threading.Thread(
            target=_loop, name="repro-cache-janitor", daemon=True
        )
        self._janitor.start()

    def stop_janitor(self) -> None:
        if self._janitor is None:
            return
        self._janitor_stop.set()
        self._janitor.join(timeout=5)
        self._janitor = None

    # ------------------------------------------------------------------
    # Multi-tenancy
    # ------------------------------------------------------------------
    def for_tenant(self, tenant: str) -> "TenantCacheView":
        """A per-tenant accounting view over the shared shards."""
        with self._counter_lock:
            view = self._tenants.get(tenant)
            if view is None:
                view = TenantCacheView(self, tenant)
                self._tenants[tenant] = view
            return view


class TenantCacheView:
    """One tenant's window onto a shared :class:`ShardedResultCache`.

    Delegates every operation to the shared cache (content-addressed, so
    identical cells dedupe across tenants) while keeping per-tenant
    hit/miss/store counters for the ``/metrics`` endpoint.  Implements the
    subset of the cache interface :func:`~repro.campaign.run_campaign`
    uses (``load``/``store``/``load_trace``/``store_trace``), so it can be
    passed anywhere a :class:`~repro.campaign.cache.ResultCache` goes.
    """

    def __init__(self, shared: ShardedResultCache, tenant: str) -> None:
        self.shared = shared
        self.tenant = tenant
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.trace_hits = 0
        self.trace_misses = 0
        self.trace_stores = 0

    def _bump(self, counter: str) -> None:
        with self.shared._counter_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def load(self, spec: RunSpec) -> Optional[SimulationResult]:
        result = self.shared.load(spec)
        self._bump("hits" if result is not None else "misses")
        return result

    def store(self, spec: RunSpec, result: SimulationResult) -> Path:
        self._bump("stores")
        return self.shared.store(spec, result)

    def load_trace(self, timing_key: str) -> Optional[ActivityTrace]:
        trace = self.shared.load_trace(timing_key)
        self._bump("trace_hits" if trace is not None else "trace_misses")
        return trace

    def store_trace(self, timing_key: str, trace: ActivityTrace) -> Path:
        self._bump("trace_stores")
        return self.shared.store_trace(timing_key, trace)

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "trace_stores": self.trace_stores,
        }

    def __repr__(self) -> str:
        return (
            f"TenantCacheView({self.tenant!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
