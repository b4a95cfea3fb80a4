"""Campaign-as-a-service: run thermal campaigns behind an HTTP job server.

The service layer turns the campaign engine into a long-running,
multi-client daemon built entirely on the standard library:

* :mod:`repro.service.jobs` — job model, states, progress events;
* :class:`WorkerPool` (from :mod:`repro.campaign.pool`, the campaign
  layer's one process runtime) — the shared worker pool: thread workers,
  or crash-contained process workers (persistent by default with
  worker-resident warm caches, fork-per-task as a fallback; timeouts,
  bounded retries);
* the warm worker runtime of :mod:`repro.sim.warmcache` — solver/trace
  warm caches and zero-copy trace transport, re-exported here;
* :mod:`repro.service.cache` — multi-tenant sharded result cache with an
  LRU byte budget and a background janitor;
* :mod:`repro.service.codec` — the JSON wire format for campaign specs;
* :mod:`repro.service.manager` — :class:`CampaignService`, the dispatcher
  that runs each job through :func:`repro.campaign.run_campaign` over the
  shared pool (results are bit-identical to a local run by construction);
* :mod:`repro.service.server` / :mod:`repro.service.client` — the HTTP
  surface (``POST /jobs``, NDJSON event streaming, ``/metrics``) and its
  urllib client.

Serve with ``repro-campaign serve``, submit with ``repro-campaign submit``
(falls back to a local run when no server is listening), follow with
``repro-campaign watch``.
"""

from repro.campaign.pool import WorkerPool
from repro.service.cache import ShardedResultCache, TenantCacheView
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.codec import (
    campaign_from_payload,
    options_from_payload,
    payload_from_options,
    settings_from_payload,
)
from repro.service.jobs import Job, JobState, JobStore
from repro.service.manager import CampaignService, PoolBackedExecutor, results_payload
from repro.service.server import ServiceServer, create_server
from repro.sim.warmcache import (
    TraceRef,
    WarmCache,
    publish_trace,
    resolve_trace,
    warm_cache,
    warm_snapshot,
)

__all__ = [
    "CampaignService",
    "Job",
    "JobState",
    "JobStore",
    "PoolBackedExecutor",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceUnavailable",
    "ShardedResultCache",
    "TenantCacheView",
    "TraceRef",
    "WarmCache",
    "WorkerPool",
    "campaign_from_payload",
    "create_server",
    "options_from_payload",
    "payload_from_options",
    "publish_trace",
    "resolve_trace",
    "results_payload",
    "settings_from_payload",
    "warm_cache",
    "warm_snapshot",
]
