"""Fleet dispatch over real sockets: HttpTransport against live
``repro serve`` servers must merge byte-identically to a single-node
run — the same bar the loopback tests hold."""

import socket
import threading

import pytest

from repro.engine import BatchEngine, ScenarioGenerator, scenario_jobs
from repro.fleet import (
    FleetDispatcher,
    HttpTransport,
    TransportError,
    WireError,
)
from repro.service import AnalysisService, AsyncServerThread


@pytest.fixture
def http_fleet(tmp_path):
    """Two live servers; yields their worker addresses."""
    services, fronts = [], []
    for index in range(2):
        service = AnalysisService(
            backend="serial",
            cache_dir=str(tmp_path / f"worker{index}"))
        services.append(service)
        fronts.append(AsyncServerThread(service).start())
    yield [f"{front.host}:{front.port}" for front in fronts]
    for front in fronts:
        front.stop()
    for service in services:
        service.close()


def make_jobs():
    scenarios = ScenarioGenerator(
        seed=11, personas_per_scenario=2).generate(4)
    return scenario_jobs(scenarios)


def test_http_fleet_matches_single_node(http_fleet, tmp_path):
    engine = BatchEngine(cache_dir=str(tmp_path / "single-node"))
    expected = [result.signature()
                for result in engine.run(make_jobs()).results]

    transport = HttpTransport()
    dispatcher = FleetDispatcher(http_fleet, transport)
    outcome = dispatcher.run(make_jobs())
    assert list(outcome.signatures()) == expected
    assert outcome.stats.lost_workers == ()
    assert sum(report.dispatched
               for report in outcome.stats.workers) == len(expected)


def test_http_sweep_matches_single_node(http_fleet, tmp_path):
    from repro.service import SweepRequest
    engine = BatchEngine(cache_dir=str(tmp_path / "single-node"))
    expected = [result.signature()
                for result in engine.run(make_jobs()).results]

    outcome = FleetDispatcher(http_fleet, HttpTransport()).sweep(
        SweepRequest(count=4, seed=11, personas=2))
    assert list(outcome.signatures()) == expected
    assert outcome.stats.lost_workers == ()


def test_http_probe_reads_worker_load(http_fleet):
    transport = HttpTransport()
    dispatcher = FleetDispatcher(http_fleet, transport)
    outcome = dispatcher.run(make_jobs()[:2])
    for report in outcome.stats.workers:
        assert report.load is not None
        assert report.load.max_jobs == 256
        assert report.load.occupancy >= 0.0


def test_http_dead_worker_at_probe_is_excluded(http_fleet, tmp_path):
    engine = BatchEngine(cache_dir=str(tmp_path / "single-node"))
    expected = [result.signature()
                for result in engine.run(make_jobs()).results]

    # One live worker plus one address nothing listens on: the dead
    # one is excluded at probe time and the sweep still completes.
    workers = [http_fleet[0], "127.0.0.1:1"]
    dispatcher = FleetDispatcher(workers, HttpTransport(),
                                 probe_timeout=2.0)
    outcome = dispatcher.run(make_jobs())
    assert list(outcome.signatures()) == expected
    assert "127.0.0.1:1" in outcome.stats.lost_workers


def test_http_transport_maps_failures():
    transport = HttpTransport()
    # Nothing listens here: a transport-level failure.
    with pytest.raises(TransportError):
        transport.request("127.0.0.1:1", "GET", "/v1/health",
                          timeout=2.0)


def test_http_transport_surfaces_wire_errors(http_fleet):
    transport = HttpTransport()
    with pytest.raises(WireError) as excinfo:
        transport.request(http_fleet[0], "GET", "/v1/nonsense")
    assert excinfo.value.status == 404
    assert excinfo.value.code == "not_found"


def test_http_stream_cut_before_its_summary_is_a_transport_error():
    # A worker killed between two chunks looks like a clean end of
    # stream to http.client; only the missing summary line tells.
    line = b'{"index": 0, "fingerprint": "f", "result": {}}\n'
    listener = socket.create_server(("127.0.0.1", 0))

    def serve_one_line():
        connection, _ = listener.accept()
        with connection:
            request = b""
            while b"\r\n\r\n" not in request:
                request += connection.recv(4096)
            head, body = request.split(b"\r\n\r\n", 1)
            length = int(head.lower().split(b"content-length:")[1]
                         .split(b"\r\n")[0])
            while len(body) < length:
                body += connection.recv(4096)
            connection.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n" % len(line) + line + b"\r\n")

    thread = threading.Thread(target=serve_one_line, daemon=True)
    thread.start()
    worker = f"127.0.0.1:{listener.getsockname()[1]}"
    try:
        lines = HttpTransport().stream(worker, "/v1/sweep", {},
                                       timeout=5.0)
        assert next(lines)["index"] == 0
        with pytest.raises(TransportError, match="summary"):
            next(lines)
    finally:
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
