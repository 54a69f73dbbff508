"""Unified analysis service: one facade, one wire contract, one server.

The paper's method became an engine; this package makes it a
*service*. :class:`~repro.service.facade.AnalysisService` owns the
batch engine, its tiered caches, the analysis-kind registry, scenario
generation and incremental re-analysis behind a typed
request/response API (:mod:`~repro.service.messages`). The asyncio
server (:mod:`~repro.service.aio`, what ``repro serve`` runs —
streaming ndjson sweeps, backpressure with typed 429 shedding,
request deadlines, disconnect cancellation, rate limiting and auth)
exposes that API over HTTP/JSON through the routing table of
:mod:`~repro.service.http`. The CLI's ``repro engine *`` subcommands
are thin clients of the facade, so a request produces byte-identical
result signatures whether it arrived from the command line, Python
code or the network.

Quickstart — in process::

    from repro.service import (AnalysisService, AnalysisRequest,
                               ModelRef, UserSpec)

    service = AnalysisService(backend="thread",
                              cache_dir=".repro-cache")
    model_hash = service.upload_model(open("model.dsl").read())
    response = service.analyze(AnalysisRequest(
        models=(ModelRef(hash=model_hash),),
        user=UserSpec(agree=("MedicalService",),
                      sensitivities=(("diagnosis", "high"),))))
    print(response.max_level, response.stats.describe())

Quickstart — over HTTP (see ``examples/service_api.py`` for the full
client-side walkthrough)::

    from repro.service import AnalysisService, AsyncServerThread

    front = AsyncServerThread(AnalysisService(), port=8787).start()
    # POST /v1/models, /v1/analyze, /v1/jobs ... then:
    front.stop()

Async submissions (``service.submit("sweep", SweepRequest(count=50))``)
return a job id — the stable hash of the canonical request, the same
identity discipline the result cache uses — polled via
``service.job_status(job_id)`` or ``GET /v1/jobs/<id>``.
"""

from .aio import (
    AsyncServerThread,
    AsyncServiceServer,
    TokenBucket,
    bearer_auth,
    serve_async,
)
from .facade import OPS, AnalysisService
from .http import (
    route_get,
    route_post,
    route_post_stream,
    split_target,
)
from .messages import (
    AnalysisRequest,
    AnalysisResponse,
    CachePruneResponse,
    CacheStatsResponse,
    DeadlineError,
    InvalidModelError,
    JobStatus,
    LintRequest,
    LintResponse,
    ModelRef,
    NotFoundError,
    OverloadedError,
    RateLimitedError,
    ReanalyzeRequest,
    ReanalyzeResponse,
    RequestError,
    ServiceError,
    SweepRequest,
    UnauthorizedError,
    UserSpec,
    WorkerLoad,
    check_payload,
    error_reply,
    population_breakdown,
    result_from_dict,
    result_to_dict,
    stats_from_dict,
    stats_to_dict,
)

__all__ = [
    "OPS",
    "AnalysisService",
    "AsyncServerThread",
    "AsyncServiceServer",
    "TokenBucket",
    "bearer_auth",
    "route_get",
    "route_post",
    "route_post_stream",
    "serve_async",
    "split_target",
    "AnalysisRequest",
    "AnalysisResponse",
    "CachePruneResponse",
    "CacheStatsResponse",
    "DeadlineError",
    "InvalidModelError",
    "JobStatus",
    "LintRequest",
    "LintResponse",
    "ModelRef",
    "NotFoundError",
    "OverloadedError",
    "RateLimitedError",
    "ReanalyzeRequest",
    "ReanalyzeResponse",
    "RequestError",
    "ServiceError",
    "SweepRequest",
    "UnauthorizedError",
    "UserSpec",
    "WorkerLoad",
    "check_payload",
    "error_reply",
    "population_breakdown",
    "result_from_dict",
    "result_to_dict",
    "stats_from_dict",
    "stats_to_dict",
]
