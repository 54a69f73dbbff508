#!/usr/bin/env python3
"""The analysis service over HTTP: start it, drive it, shut it down.

The engine makes the method scriptable; this example shows it as a
*service*. An :class:`~repro.service.facade.AnalysisService` is
wrapped in the asyncio front-end (the body of ``repro serve``) and
driven purely through ``urllib`` and ``http.client`` — the same
requests any non-Python client would send:

1. upload the surgery model's DSL text, getting back its content hash;
2. run a synchronous disclosure analysis for one patient;
3. stream a sweep as ndjson — one line per job *as it completes*,
   then a summary line, over ``POST /v1/sweep?stream=1``;
4. submit an asynchronous mixed-kind sweep and poll its job id;
5. read the cache accounting, then re-run step 2 to watch the result
   come back from the shared tiered cache.

The asyncio front-end takes the production knobs ``repro serve``
exposes (all optional):

- ``max_inflight`` — engine threads; concurrent requests beyond this
  queue for a slot (``repro serve --max-inflight 8``);
- ``queue_limit`` — queued requests beyond which new work is *shed*
  with a typed 429 ``overloaded`` body instead of stalling everyone;
- ``rate_limit``/``rate_burst`` — a global token bucket answering
  429 ``rate_limited`` when drained (``--rate-limit``);
- ``auth_token`` — require ``Authorization: Bearer <token>``,
  else 401 ``unauthorized`` (``--auth-token``);
- ``request_timeout`` — per-request deadline answering a typed 408
  ``deadline_exceeded`` (``--request-timeout``).

``GET /v1/health`` bypasses auth and rate limiting, so fleet
coordinators can always probe liveness; its ``load`` block carries
``queue_depth``/``shed_total``/``inflight_limit`` from the running
front-end.

Run with ``python examples/service_api.py``. In a second terminal the
same server could be driven with ``curl`` — everything is plain JSON.
"""

import http.client
import json
import time
import urllib.request

from repro.casestudies import build_surgery_system
from repro.dfd import to_dsl
from repro.service import AnalysisService, AsyncServerThread


def call(base, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as reply:
        return json.loads(reply.read())


def stream(host, port, path, payload):
    """Yield decoded ndjson lines from a streaming POST."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request("POST", path + "?stream=1",
                     body=json.dumps(payload).encode(),
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()   # chunked framing handled for us
        for line in reply:
            if line.strip():
                yield json.loads(line)
    finally:
        conn.close()


def main() -> None:
    # -- 1. the server: one facade, one ephemeral port ----------------
    service = AnalysisService(backend="thread")
    front = AsyncServerThread(service, port=0, max_inflight=4,
                              queue_limit=64).start()
    base = front.base
    print(f"service listening on {base} (asyncio front-end)")
    health = call(base, "/v1/health")
    print(f"health: {health['kinds']}  load: {health['load']}\n")

    try:
        # -- 2. upload the model by content hash -----------------------
        uploaded = call(base, "/v1/models",
                        {"text": to_dsl(build_surgery_system())})
        model_hash = uploaded["model_hash"]
        print(f"uploaded surgery model: {model_hash[:16]}…")

        # -- 3. a synchronous disclosure analysis ----------------------
        request = {
            "models": [{"hash": model_hash, "label": "surgery"}],
            "user": {
                "name": "patient",
                "agree": ["MedicalService"],
                "sensitivities": {"diagnosis": "high"},
                "default_sensitivity": 0.2,
            },
        }
        response = call(base, "/v1/analyze", request)
        result = response["results"][0]
        print(f"analyze: max risk {response['max_level']} — "
              f"{len(result['events'])} event(s), "
              f"{result['states']} states\n")

        # -- 4. a streaming sweep: results while the sweep runs --------
        print("streaming sweep (first lines land before the last "
              "job has run):")
        for line in stream(front.host, front.port, "/v1/sweep",
                           {"count": 6, "personas": 1,
                            "kinds": ["disclosure"]}):
            if "summary" in line:
                summary = line["summary"]
                print(f"  summary: {summary['stats']['jobs']} jobs, "
                      f"max level {summary['max_level']}\n")
            else:
                print(f"  job {line['index']}: "
                      f"{line['result']['max_level']:8s} "
                      f"({line['fingerprint'][:12]}…)")

        # -- 5. an async sweep: submit, poll, fetch --------------------
        submitted = call(base, "/v1/jobs", {
            "op": "sweep",
            "request": {"count": 8, "personas": 1,
                        "kinds": ["disclosure", "population"]},
        })
        job_id = submitted["job_id"]
        print(f"sweep job {job_id[:16]}… submitted "
              f"({submitted['status']})")
        deadline = time.time() + 120
        while True:
            polled = call(base, f"/v1/jobs/{job_id}")
            if polled["status"] in ("done", "error"):
                break
            if time.time() > deadline:
                raise SystemExit(f"sweep job {job_id} timed out")
            time.sleep(0.1)
        if polled["status"] == "error":
            raise SystemExit(f"sweep job failed: {polled['error']}")
        report = polled["result"]["report"]
        print(f"sweep done: {report['jobs']} jobs, "
              f"levels {report['level_histogram']}")
        print(f"population rollup: "
              f"{report['kinds'].get('population')}\n")

        # -- 6. the shared cache at work -------------------------------
        warm = call(base, "/v1/analyze", request)
        print(f"re-analyze from cache: "
              f"from_cache={warm['results'][0]['from_cache']}")
        stats = call(base, "/v1/cache/stats")
        print(f"live cache accounting: {stats.get('live')}")
    finally:
        front.stop()
        service.close()
    print("\nserver stopped.")


if __name__ == "__main__":
    main()
