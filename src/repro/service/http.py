"""The service's REST surface: the one routing table.

Pure functions from a request to ``(status, body)`` over
:class:`AnalysisService`, shared by the HTTP front-end
(:mod:`repro.service.aio`, the server ``repro serve`` runs) and by
the fleet's in-process :class:`~repro.fleet.transport.LoopbackTransport`,
so both answer exactly what the wire would. Every endpoint speaks the
typed wire contract of :mod:`~repro.service.messages`:

===========  =============================  ================================
method       path                           operation
===========  =============================  ================================
``GET``      ``/v1/health``                 service/topology snapshot
``GET``      ``/v1/kinds``                  registered analysis kinds
``POST``     ``/v1/models``                 upload DSL text -> content hash
``POST``     ``/v1/analyze``                :class:`AnalysisRequest`
``POST``     ``/v1/sweep``                  :class:`SweepRequest`
``POST``     ``/v1/reanalyze``              :class:`ReanalyzeRequest`
``POST``     ``/v1/lint``                   :class:`LintRequest`
``POST``     ``/v1/jobs``                   async submit -> job id (202)
``GET``      ``/v1/jobs/<id>``              poll status / fetch result
``GET``      ``/v1/cache/stats``            store + live cache accounting
``POST``     ``/v1/cache/prune``            age/size-budget eviction
===========  =============================  ================================

Failures are structured: a route raises a typed
:class:`~repro.service.messages.ServiceError`, and
:func:`~repro.service.messages.error_reply` maps any failure onto its
HTTP status and an ``{"error": {code, message}}`` body; malformed
JSON and unknown routes are 400/404 with the same shape.

Model references over the wire may not use server-side file paths
(requests parse with ``allow_paths=False``); upload text and reference
it by hash instead.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple
from urllib.parse import parse_qs

from .facade import OPS, AnalysisService
from .messages import (
    AnalysisRequest,
    LintRequest,
    NotFoundError,
    ReanalyzeRequest,
    RequestError,
    SweepRequest,
    check_payload,
)

#: Request parsers by async-operation name.
_REQUEST_TYPES = {
    "analyze": AnalysisRequest,
    "sweep": SweepRequest,
    "reanalyze": ReanalyzeRequest,
}

#: Upload body cap — a DSL model is text, not a blob store.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Default per-request time budget, overridable via
#: ``repro serve --request-timeout``.
DEFAULT_REQUEST_TIMEOUT = 60.0


def split_target(target: str) -> Tuple[str, Dict[str, list]]:
    """An HTTP request target as ``(path, query-params)``.

    The routing tables key on the bare path; query parameters carry
    per-request serving options (today: ``stream=1``).
    """
    path, _, query = target.partition("?")
    return path, parse_qs(query) if query else {}


def wants_stream(query: Dict[str, list]) -> bool:
    """Whether the query string opts into an ndjson streaming reply."""
    values = query.get("stream")
    return bool(values) and values[-1] not in ("0", "", "false")


# -- routing -----------------------------------------------------------------
#
# Pure (service, path[, payload]) -> (status, body) functions, shared
# by the socket front-end and by in-process fronts that must behave
# exactly like the wire (repro.fleet's LoopbackTransport) — one
# routing table, no drift.

def route_get(service: AnalysisService,
              path: str) -> Tuple[int, dict]:
    """Route one GET; returns ``(status, body)`` or raises a
    :class:`~repro.service.messages.ServiceError`."""
    if path == "/v1/health":
        return 200, service.describe()
    if path == "/v1/kinds":
        return 200, {"kinds": service.describe()["kinds"]}
    if path == "/v1/models":
        return 200, {"models": list(service.model_hashes())}
    if path == "/v1/cache/stats":
        return 200, service.cache_stats().to_dict()
    if path.startswith("/v1/jobs/"):
        job_id = path[len("/v1/jobs/"):]
        return 200, service.job_status(job_id).to_dict()
    raise NotFoundError(f"no such endpoint: GET {path}")


def route_post(service: AnalysisService, path: str,
               payload: dict) -> Tuple[int, dict]:
    """Route one POST (body already JSON-decoded); returns
    ``(status, body)`` or raises a
    :class:`~repro.service.messages.ServiceError`. Model references
    parse with ``allow_paths=False`` — this is the wire surface."""
    if path == "/v1/models":
        checked = check_payload(
            payload, {"text": ((str,), True, None)},
            "model upload")
        model_hash = service.upload_model(checked["text"])
        return 201, {"model_hash": model_hash}
    if path in ("/v1/analyze", "/v1/sweep", "/v1/reanalyze"):
        op = path[len("/v1/"):]
        request = _REQUEST_TYPES[op].from_dict(payload,
                                               allow_paths=False)
        return 200, getattr(service, op)(request).to_dict()
    if path == "/v1/lint":
        request = LintRequest.from_dict(payload, allow_paths=False)
        return 200, service.lint(request).to_dict()
    if path == "/v1/jobs":
        checked = check_payload(payload, {
            "op": ((str,), True, None),
            "request": ((dict,), True, None),
        }, "job submission")
        op = checked["op"]
        if op not in OPS:
            raise RequestError(
                f"unknown operation {op!r}; one of {OPS}")
        request = _REQUEST_TYPES[op].from_dict(
            checked["request"], allow_paths=False)
        job_id = service.submit(op, request)
        return 202, service.job_status(job_id).to_dict()
    if path == "/v1/cache/prune":
        checked = check_payload(payload, {
            "max_age_days": ((int, float), False, None),
            "max_bytes": ((int,), False, None),
        }, "cache prune")
        max_age = checked["max_age_days"] * 86400.0 \
            if checked["max_age_days"] is not None else None
        return 200, service.prune_cache(
            max_age=max_age,
            max_bytes=checked["max_bytes"]).to_dict()
    raise NotFoundError(f"no such endpoint: POST {path}")


#: POST paths that honour ``?stream=1``.
STREAM_ROUTES = ("/v1/sweep",)


def route_post_stream(service: AnalysisService, path: str,
                      payload: dict,
                      should_stop=None) -> Iterator[dict]:
    """Route one streaming POST; returns the ndjson line iterator.

    Shared by the socket front-end and the fleet's
    :class:`~repro.fleet.transport.LoopbackTransport`, exactly like
    :func:`route_post` — one routing table, no drift. Request
    validation errors raise *before* the iterator is returned, so
    callers can still answer a typed error status; once iteration
    starts the response is committed and failures must travel as a
    final error line instead.
    """
    if path == "/v1/sweep":
        request = SweepRequest.from_dict(payload, allow_paths=False)
        return service.sweep_stream(request,
                                    should_stop=should_stop)
    raise NotFoundError(
        f"no streaming endpoint: POST {path} (streaming routes: "
        f"{', '.join(STREAM_ROUTES)})")
