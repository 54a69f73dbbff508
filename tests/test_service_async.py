"""The asyncio front-end: the recorded wire contract, streaming,
backpressure, cancellation, auth, rate limiting, deadlines and logging.

The centrepiece replays ``tests/data/golden_wire.json`` — an ordered
transcript of exchanges over every ``/v1/*`` route plus one streamed
sweep (see ``capture_golden_wire.py``) — against a fresh server and
requires the same status, Content-Type and normalised body for each,
in order, so cache state evolves exactly as it did when recorded.
"""

import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from capture_golden_wire import (
    DATA_PATH,
    MODEL,
    SERVICE_CONFIG,
    build_service,
    normalize,
    record,
)
from repro.service import (
    AnalysisService,
    AsyncServerThread,
    TokenBucket,
    WorkerLoad,
)

USER = {"agree": ["Consult"], "sensitivities": {"issue": "high"}}


def call(base, path, payload=None, method=None, headers=None):
    """One JSON exchange; ``(status, raw body bytes)``."""
    data = json.dumps(payload).encode() if payload is not None \
        else None
    request = urllib.request.Request(
        base + path, data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json",
                 **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture
def async_server():
    service = AnalysisService(backend="thread")
    front = AsyncServerThread(service).start()
    yield front.base, service, front
    front.stop()
    service.close()


# -- the wire contract: a recorded transcript ----------------------------------

def test_golden_wire_transcript_replays():
    """Every recorded exchange answers as recorded, in order."""
    with open(DATA_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden["service"] == SERVICE_CONFIG
    service = build_service()
    front = AsyncServerThread(service).start()
    try:
        replayed = record(
            front.base,
            [(entry["method"], entry["target"], entry["request"])
             for entry in golden["exchanges"]],
            (golden["stream"]["target"], golden["stream"]["request"]))
    finally:
        front.stop()
        service.close()
    assert len(replayed["exchanges"]) == len(golden["exchanges"])
    for want, got in zip(golden["exchanges"], replayed["exchanges"]):
        assert got == want, (want["method"], want["target"])
    assert replayed["stream"] == golden["stream"]


def test_async_job_routes_round_trip(async_server):
    """The async job table behaves identically once jobs settle."""
    base, service, _ = async_server
    status, body = call(base, "/v1/jobs", {
        "op": "analyze",
        "request": {"models": [{"text": MODEL}], "user": USER}})
    assert status == 202
    job_id = json.loads(body)["job_id"]
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        status, body = call(base, f"/v1/jobs/{job_id}")
        assert status == 200
        record = json.loads(body)
        if record["status"] == "done":
            break
        time.sleep(0.02)
    assert record["status"] == "done"
    direct = service.job_status(job_id).to_dict()
    assert normalize(json.dumps(direct).encode()) == \
        normalize(json.dumps(record).encode())


# -- streaming -----------------------------------------------------------------

def test_stream_emits_first_line_before_last_job_runs(tmp_path):
    """The laziness pin: pulling one ndjson line runs one job, not
    the fleet — streaming starts before the sweep finishes."""
    from repro.service import SweepRequest
    service = AnalysisService(backend="serial")
    try:
        executed = []
        original = service._run

        def counting_run(jobs, **kwargs):
            executed.extend(jobs)
            return original(jobs, **kwargs)

        service._run = counting_run
        lines = service.sweep_stream(SweepRequest(seed=5, count=6))
        first = next(lines)
        assert set(first) == {"index", "fingerprint", "result"}
        assert first["index"] == 0
        assert 0 < len(executed) < 6
        lines.close()
    finally:
        service.close()


def test_stream_over_http_matches_buffered_sweep(async_server):
    base, service, _ = async_server
    sweep = {"seed": 9, "count": 4}
    status, buffered = call(base, "/v1/sweep", sweep)
    assert status == 200
    buffered = json.loads(buffered)

    request = urllib.request.Request(
        base + "/v1/sweep?stream=1",
        data=json.dumps(sweep).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=30) as reply:
        assert reply.status == 200
        assert reply.headers["Content-Type"] == \
            "application/x-ndjson"
        lines = [json.loads(line) for line in reply if line.strip()]
    summary = lines[-1]["summary"]
    results = [line for line in lines[:-1]]
    assert [line["index"] for line in results] == \
        list(range(len(results)))
    assert summary["jobs"] == len(results)
    assert summary["max_level"] == buffered["max_level"]
    streamed_fps = [line["result"]["fingerprint"]
                    for line in results]
    buffered_fps = [result["fingerprint"]
                    for result in buffered["results"]]
    assert streamed_fps == buffered_fps


def test_stream_mid_disconnect_stops_jobs(async_server):
    base, service, front = async_server
    executed = []
    original = service._run

    def slow_run(jobs, **kwargs):
        executed.extend(jobs)
        time.sleep(0.05)
        return original(jobs, **kwargs)

    service._run = slow_run
    conn = http.client.HTTPConnection(front.host, front.port)
    conn.request("POST", "/v1/sweep?stream=1",
                 json.dumps({"seed": 3, "count": 10}),
                 {"Content-Type": "application/json"})
    reply = conn.getresponse()
    first = json.loads(reply.readline())
    assert first["index"] == 0
    conn.close()                      # walk away mid-stream
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and \
            front.server.cancelled_total == 0:
        time.sleep(0.02)
    assert front.server.cancelled_total == 1
    settled = len(executed)
    time.sleep(0.3)                   # would keep growing if alive
    assert len(executed) == settled
    assert len(executed) < 20         # 10 scenarios x 1 kind x ...


# -- backpressure, rate limiting, auth, deadlines ------------------------------

class SlowSweepService(AnalysisService):
    """A facade whose sweeps dwell long enough to observe queueing."""

    dwell = 0.4

    def sweep(self, request):
        time.sleep(self.dwell)
        return super().sweep(request)


def test_shedding_answers_typed_429():
    service = SlowSweepService(backend="serial")
    front = AsyncServerThread(service, max_inflight=1,
                              queue_limit=0).start()
    try:
        outcomes = []

        def fire(seed):
            status, body = call(front.base, "/v1/sweep",
                                {"seed": seed, "count": 1})
            outcomes.append(
                (status,
                 json.loads(body).get("error", {}).get("code")))

        threads = [threading.Thread(target=fire, args=(seed,))
                   for seed in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shed = [outcome for outcome in outcomes
                if outcome == (429, "overloaded")]
        served = [outcome for outcome in outcomes
                  if outcome[0] == 200]
        assert served and shed
        assert len(served) + len(shed) == 5
        # The health body exposes the shed accounting.
        _, health = call(front.base, "/v1/health")
        load = WorkerLoad.from_health(json.loads(health))
        assert load.shed_total == len(shed)
        assert load.inflight_limit == 1
    finally:
        front.stop()
        service.close()


def test_rate_limit_answers_typed_429_and_health_is_exempt():
    service = AnalysisService(backend="serial")
    front = AsyncServerThread(service, rate_limit=1,
                              rate_burst=2).start()
    try:
        codes = [call(front.base, "/v1/kinds")[0] for _ in range(5)]
        assert codes.count(200) == 2
        assert codes.count(429) == 3
        status, body = call(front.base, "/v1/models", {})
        assert (status,
                json.loads(body)["error"]["code"]) == \
            (429, "rate_limited")
        assert call(front.base, "/v1/health")[0] == 200
    finally:
        front.stop()
        service.close()


def test_auth_hook_answers_401_and_health_is_exempt():
    service = AnalysisService(backend="serial")
    front = AsyncServerThread(service, auth_token="hunter2").start()
    try:
        status, body = call(front.base, "/v1/models", {"text": MODEL})
        assert (status,
                json.loads(body)["error"]["code"]) == \
            (401, "unauthorized")
        assert call(front.base, "/v1/kinds")[0] == 401
        assert call(front.base, "/v1/health")[0] == 200
        status, _ = call(front.base, "/v1/models", {"text": MODEL},
                         headers={"Authorization": "Bearer hunter2"})
        assert status == 201
    finally:
        front.stop()
        service.close()


def test_request_deadline_answers_typed_408():
    service = SlowSweepService(backend="serial")
    front = AsyncServerThread(service, request_timeout=0.1).start()
    try:
        status, body = call(front.base, "/v1/sweep",
                            {"seed": 1, "count": 1})
        assert status == 408
        assert json.loads(body)["error"]["code"] == \
            "deadline_exceeded"
        assert front.server.timeouts_total == 1
    finally:
        front.stop()
        service.close()


def _stall(front, data: bytes) -> bytes:
    """Send ``data``, then nothing more; everything the server sends
    before it hangs up (the socket read gives up after 10s)."""
    raw = socket.create_connection((front.host, front.port), timeout=10)
    try:
        raw.sendall(data)
        received = b""
        while True:
            chunk = raw.recv(65536)
            if not chunk:
                return received
            received += chunk
    finally:
        raw.close()


def test_stalled_body_answers_typed_408_and_closes():
    """A body that never arrives answers 408, not a silent hang."""
    service = AnalysisService(backend="serial")
    front = AsyncServerThread(service, request_timeout=0.2).start()
    try:
        reply = _stall(front, b"POST /v1/sweep HTTP/1.1\r\n"
                              b"Host: x\r\n"
                              b"Content-Type: application/json\r\n"
                              b"Content-Length: 100\r\n\r\n{")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == \
            b"HTTP/1.1 408 Request Timeout"
        assert b"Connection: close" in head.split(b"\r\n")
        assert json.loads(body)["error"]["code"] == "deadline_exceeded"
        assert front.server.timeouts_total == 1
    finally:
        front.stop()
        service.close()


def test_stalled_request_head_closes_the_connection():
    service = AnalysisService(backend="serial")
    front = AsyncServerThread(service, request_timeout=0.2).start()
    try:
        started = time.monotonic()
        reply = _stall(front, b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\n")
        assert reply == b""
        assert time.monotonic() - started < 5
        assert front.server.timeouts_total == 1
    finally:
        front.stop()
        service.close()


def test_idle_connections_outlive_the_request_timeout():
    """The deadline covers a request in progress, not the wait for
    one: fresh and keep-alive connections stay open while idle."""
    service = AnalysisService(backend="serial")
    front = AsyncServerThread(service, request_timeout=0.2).start()
    try:
        conn = http.client.HTTPConnection(front.host, front.port,
                                          timeout=10)
        conn.connect()
        for _ in range(2):
            time.sleep(0.5)
            conn.request("GET", "/v1/health")
            reply = conn.getresponse()
            assert reply.status == 200
            reply.read()
        conn.close()
        assert front.server.timeouts_total == 0
    finally:
        front.stop()
        service.close()


def test_disconnect_cancels_queued_work():
    ran = []

    class TrackingService(AnalysisService):
        def sweep(self, request):
            ran.append(request.seed)
            time.sleep(0.3)
            return super().sweep(request)

    service = TrackingService(backend="serial")
    front = AsyncServerThread(service, max_inflight=1,
                              queue_limit=8).start()
    try:
        first = http.client.HTTPConnection(front.host, front.port)
        first.request("POST", "/v1/sweep",
                      json.dumps({"seed": 1, "count": 1}),
                      {"Content-Type": "application/json"})
        time.sleep(0.05)              # occupies the only slot
        second = http.client.HTTPConnection(front.host, front.port)
        second.request("POST", "/v1/sweep",
                       json.dumps({"seed": 2, "count": 1}),
                       {"Content-Type": "application/json"})
        time.sleep(0.05)              # now queued behind the first
        second.close()                # ...and abandoned
        reply = first.getresponse()
        assert reply.status == 200
        reply.read()
        first.close()
        time.sleep(0.5)
        assert ran == [1]             # the abandoned sweep never ran
        assert front.server.cancelled_total == 1
    finally:
        front.stop()
        service.close()


# -- lifecycle -----------------------------------------------------------------

def test_graceful_shutdown_drains_in_flight_requests():
    service = SlowSweepService(backend="serial")
    service.dwell = 0.3
    front = AsyncServerThread(service).start()
    outcome = {}

    def fire():
        outcome["reply"] = call(front.base, "/v1/sweep",
                                {"seed": 4, "count": 1})

    worker = threading.Thread(target=fire)
    worker.start()
    time.sleep(0.1)                   # request is on the executor
    front.stop(drain=True)            # must not cut it off
    worker.join(timeout=10)
    assert outcome["reply"][0] == 200


def test_port_zero_binds_ephemeral_port_and_reports_it():
    service = AnalysisService(backend="serial")
    front = AsyncServerThread(service, port=0).start()
    try:
        assert front.port > 0
        assert call(front.base, "/v1/health")[0] == 200
    finally:
        front.stop()
        service.close()


def test_health_decodes_front_end_load_fields(async_server):
    base, _, front = async_server
    _, body = call(base, "/v1/health")
    health = json.loads(body)
    load = WorkerLoad.from_health(health)
    assert load.inflight_limit == front.server.max_inflight
    assert load.to_dict() == health["load"]


# -- request logging -----------------------------------------------------------

_LOG_LINE = re.compile(
    r'127\.0\.0\.1 - - \[\d\d/\w{3}/\d{4} \d\d:\d\d:\d\d\] '
    r'"(?P<line>[^"]*)" (?P<status>\d{3}) -')


def _logged(err: str):
    return [(match["line"], match["status"])
            for match in map(_LOG_LINE.fullmatch, err.splitlines())
            if match]


@pytest.mark.parametrize("verbose", [True, False])
def test_verbose_logs_one_line_per_request(capsys, verbose):
    service = AnalysisService(backend="serial")
    front = AsyncServerThread(service, verbose=verbose).start()
    try:
        call(front.base, "/v1/health")
        call(front.base, "/v1/nope", {})
        call(front.base, "/v1/sweep?stream=1", {"count": 1})
    finally:
        front.stop()
        service.close()
    expected = [
        ("GET /v1/health HTTP/1.1", "200"),
        ("POST /v1/nope HTTP/1.1", "404"),
        ("POST /v1/sweep?stream=1 HTTP/1.1", "200"),
    ]
    assert _logged(capsys.readouterr().err) == \
        (expected if verbose else [])


# -- token bucket --------------------------------------------------------------

def test_token_bucket_refills_at_rate():
    now = [0.0]
    bucket = TokenBucket(rate=2, burst=2, clock=lambda: now[0])
    assert bucket.try_take() and bucket.try_take()
    assert not bucket.try_take()
    now[0] += 0.5                     # half a second: one token back
    assert bucket.try_take()
    assert not bucket.try_take()
    now[0] += 10.0                    # refill clamps at burst
    assert bucket.try_take() and bucket.try_take()
    assert not bucket.try_take()
