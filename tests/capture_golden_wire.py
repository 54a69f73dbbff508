"""Capture golden wire transcripts into ``tests/data/golden_wire.json``.

The transcript pins the service's HTTP wire contract: an ordered list
of ``(method, target, request body)`` exchanges, each recorded as
``(status, Content-Type, normalised body)``, plus the normalised
ndjson lines of one ``POST /v1/sweep?stream=1`` sent after them. The
exchanges cover every route of the REST surface except the async job
table (its queued/running snapshots race the wall clock), including
the typed 400/404/422 refusals and an engine-level ``analysis_error``.
``test_service_async.py`` replays the file against a fresh asyncio
server and requires identical answers, so any change to a status, a
header the contract names or a single byte of a body shows up there.

Normalisation blanks only the wall-clock fields (``VOLATILE``) and the
load gauges a serving front-end fills in; everything else, pretty
printing included, is compared as recorded.

The file in the repository was recorded from two servers at once:
the asyncio front-end and the thread-per-connection
``ThreadingHTTPServer`` front-end it replaced, each over an identically
configured service and fed the same exchange list. The two
transcripts were identical, and that shared transcript is the one
committed. Regenerate it only when the wire contract is *meant* to
move, and review the diff of every exchange.

Run from the repository root::

    PYTHONPATH=src python tests/capture_golden_wire.py
"""

from __future__ import annotations

import json
import os
import re
import sys
import urllib.error
import urllib.request

from repro.service import AnalysisService, AsyncServerThread

DATA_PATH = os.path.join(os.path.dirname(__file__), "data",
                         "golden_wire.json")

#: The recorded service configuration. ``workers`` is explicit
#: because the health body reports it, and the default is the host's
#: CPU count.
SERVICE_CONFIG = {"backend": "serial", "workers": 2}

MODEL = """
system demo {
  schema S {
    field name: string kind identifier
    field issue: string kind sensitive
  }
  actor Doctor
  actor Auditor
  datastore Records schema S
  service Consult {
    flow 1 User -> Doctor fields [name, issue] purpose "consult"
    flow 2 Doctor -> Records fields [name, issue] purpose "record"
  }
  acl {
    allow Doctor read, create on Records
    allow Auditor read on Records
  }
}
"""

MODEL_B = """
system clinic {
  schema S {
    field email: string kind identifier
    field notes: string kind sensitive
  }
  actor Nurse
  datastore Charts schema S
  service Intake {
    flow 1 User -> Nurse fields [email, notes] purpose "intake"
    flow 2 Nurse -> Charts fields [email, notes] purpose "file"
  }
  acl {
    allow Nurse read, create on Charts
  }
}
"""

#: ``MODEL`` after an ACL-only edit: the reanalysis keeps the LTS.
MODEL_EDITED = MODEL.replace(
    "    allow Auditor read on Records\n",
    "    allow Auditor read on Records\n"
    "    allow Auditor create on Records\n")

USER = {"agree": ["Consult"], "sensitivities": {"issue": "high"}}

#: Wall-clock fields that honestly differ between two runs of the
#: same work, plus the load fields only a serving front-end fills in.
VOLATILE = ("duration", "wall_time", "oldest_age", "newest_age",
            "queue_depth", "shed_total", "inflight_limit")
_VOLATILE_RE = re.compile(
    r'"(%s)":\s*-?[0-9.e+-]+' % "|".join(VOLATILE))


def normalize(body: bytes) -> str:
    return _VOLATILE_RE.sub(r'"\1": 0', body.decode("utf-8"))


def _analyze(level: str) -> dict:
    return {"models": [{"text": MODEL}],
            "user": {"agree": ["Consult"],
                     "sensitivities": {"issue": level}}}


#: ``(method, target, request body)`` in replay order. A ``str`` body
#: travels as raw bytes; ``None`` sends no body.
EXCHANGES = [
    ("POST", "/v1/models", {"text": MODEL}),
    ("POST", "/v1/models", {"text": MODEL_B}),
    ("POST", "/v1/models", {"wrong": 1}),
    ("POST", "/v1/models", {"text": "system broken {"}),
    ("GET", "/v1/health", None),
    ("GET", "/v1/kinds", None),
    ("GET", "/v1/models", None),
    ("GET", "/v1/cache/stats", None),
    ("POST", "/v1/analyze", _analyze("low")),
    ("POST", "/v1/analyze", _analyze("medium")),
    ("POST", "/v1/analyze", _analyze("high")),
    ("POST", "/v1/analyze", {"models": [{"text": MODEL}], "user": USER,
                             "kind": "population",
                             "params": {"count": -1}}),
    ("POST", "/v1/analyze", "{not json"),
    ("POST", "/v1/sweep", {"seed": 1, "count": 2, "screen": True}),
    ("POST", "/v1/sweep", {"seed": 1, "count": 2, "screen": False}),
    ("POST", "/v1/sweep", {"seed": 0, "count": 2, "indices": [0, 2]}),
    ("POST", "/v1/sweep", {"count": -4}),
    ("POST", "/v1/reanalyze", {"before": {"text": MODEL},
                               "after": {"text": MODEL_EDITED},
                               "user": USER}),
    ("POST", "/v1/lint", {"model": {"text": MODEL}}),
    ("POST", "/v1/lint", {"models": [{"text": MODEL}]}),
    ("POST", "/v1/cache/prune", {"max_age_days": 30}),
    ("GET", "/v1/nope", None),
    ("POST", "/v1/nope", {}),
    ("GET", "/v1/cache/stats", None),
    ("GET", "/v1/health", None),
]

#: The streamed sweep, sent after every exchange above.
STREAM = ("/v1/sweep?stream=1", {"seed": 2, "count": 3})


def build_service() -> AnalysisService:
    """A fresh service in the recorded configuration."""
    return AnalysisService(**SERVICE_CONFIG)


def exchange(base: str, method: str, target: str, body):
    """One request; ``(status, Content-Type, raw body bytes)``."""
    if body is None:
        data = None
    elif isinstance(body, str):
        data = body.encode("utf-8")
    else:
        data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        base + target, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return (reply.status, reply.headers["Content-Type"],
                    reply.read())
    except urllib.error.HTTPError as error:
        return error.code, error.headers["Content-Type"], error.read()


def record(base: str, exchanges=EXCHANGES, stream=STREAM) -> dict:
    """The transcript of ``exchanges`` then ``stream`` against the
    server at ``base``."""
    answered = []
    for method, target, body in exchanges:
        status, content_type, raw = exchange(base, method, target, body)
        answered.append({
            "method": method, "target": target, "request": body,
            "status": status, "content_type": content_type,
            "body": normalize(raw),
        })
    target, body = stream
    status, content_type, raw = exchange(base, "POST", target, body)
    streamed = {
        "target": target, "request": body, "status": status,
        "content_type": content_type,
        "lines": [normalize(line) for line in raw.splitlines()
                  if line.strip()],
    }
    return {"service": SERVICE_CONFIG, "exchanges": answered,
            "stream": streamed}


def capture() -> dict:
    """Record the transcript from a fresh asyncio server."""
    service = build_service()
    front = AsyncServerThread(service).start()
    try:
        return record(front.base)
    finally:
        front.stop()
        service.close()


def main() -> int:
    transcript = capture()
    os.makedirs(os.path.dirname(DATA_PATH), exist_ok=True)
    with open(DATA_PATH, "w", encoding="utf-8") as handle:
        json.dump(transcript, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA_PATH}")
    for entry in transcript["exchanges"]:
        print(f"  {entry['method']} {entry['target']} -> "
              f"{entry['status']}")
    print(f"  POST {transcript['stream']['target']} -> "
          f"{len(transcript['stream']['lines'])} ndjson lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
