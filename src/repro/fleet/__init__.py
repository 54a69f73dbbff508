"""Distributed fleet dispatch: one sweep, many worker nodes.

This package turns the single-node analysis service into a multi-node
system. A coordinator (:class:`FleetDispatcher`) shards a batch of
analysis jobs — or a whole :class:`~repro.service.messages.SweepRequest`
— across worker ``repro serve`` instances, drives them over a pluggable
:class:`Transport`, and merges the per-worker answers into one ordered
result list and :class:`~repro.engine.aggregate.FleetReport` whose
:meth:`~repro.engine.jobs.JobResult.signature` sequence is
byte-identical to running the same sweep on a single node.

**Wire contract.** The coordinator speaks only the existing service
surface (:mod:`repro.service.messages` / :mod:`repro.service.http`).
It probes with ``GET /v1/health`` (reading
:class:`~repro.service.messages.WorkerLoad`), then runs each worker's
group of shards as one *exchange*:

- a sweep sends one ``SweepRequest`` naming one representative index
  per shard to ``POST /v1/sweep?stream=1``; the worker regenerates the
  seeded fleet and streams back one ndjson line per index;
- an arbitrary job batch ships each model once per worker with
  ``POST /v1/models`` (content-addressed — the worker's hash must
  equal the coordinator's
  :func:`~repro.engine.fingerprint.model_fingerprint`, or the run
  aborts on version skew), then sends one synchronous
  ``POST /v1/analyze`` per shard.

Shards are deduplicated by the stable hash of their canonical wire
request, so one question is asked once however many jobs pose it.

**Sharding rule.** Consistent hashing (:class:`HashRing`) of the
shard's **model fingerprint** over worker ids: all jobs on one model
land on one worker (per-node LTS/result caches see maximal reuse), and
removing a worker moves only that worker's shards.

**Retry policy.** Retry and rebalance act per exchange. When an
exchange fails at the transport — at connect or mid-stream — the
coordinator re-probes the worker: answers → the exchange's unanswered
shards *retry* on the same worker under capped exponential backoff;
silent → the worker is *lost*, leaves the ring, and only its
unanswered shards *rebalance* onto survivors. Answers already received
are never recalled: signatures are deterministic, so a re-placed shard
answers identically. ``max_attempts`` failures on one shard, or an
empty ring, abort with :class:`FleetError`; so does any index left
unanswered. Structured worker errors fail fast — a bad request is not
cured by resending it elsewhere. Every worker read is bounded by the
dispatcher's ``timeout``, and a failed or abandoned run closes every
open exchange.

**Cache coherence.** Caches stay strictly per-node; the coordinator
neither gossips results between workers nor maintains its own result
store. A rebalanced shard whose previous worker already computed the
result simply recomputes on the new worker — duplicated work, never
inconsistency. Content fingerprints make every cache entry
self-identifying, so no invalidation protocol is needed; the
deliberate price is redundant computation after a loss, bounded by the
lost worker's unanswered shards.

Two transports ship: :class:`HttpTransport` (real sockets) and
:class:`LoopbackTransport` (in-memory
:class:`~repro.service.facade.AnalysisService` workers behind the same
routing table, with fault injection for tests).
:class:`RemoteQueueBackend` plugs a dispatcher into
:class:`~repro.engine.runner.BatchEngine` as a fourth execution
backend next to serial/thread/process.
"""

from .backend import RemoteQueueBackend
from .dispatcher import (
    FleetDispatcher,
    FleetError,
    FleetOutcome,
    FleetStats,
    HashRing,
    WorkerReport,
)
from .transport import (
    HttpTransport,
    LoopbackTransport,
    Transport,
    TransportError,
    WireError,
)

__all__ = [
    "FleetDispatcher",
    "FleetError",
    "FleetOutcome",
    "FleetStats",
    "HashRing",
    "HttpTransport",
    "LoopbackTransport",
    "RemoteQueueBackend",
    "Transport",
    "TransportError",
    "WireError",
    "WorkerReport",
]
