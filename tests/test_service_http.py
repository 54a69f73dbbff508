"""HTTP front-end roundtrips against a live server."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    AnalysisResponse,
    AnalysisService,
    AsyncServerThread,
)

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

USER = {"agree": ["Consult"], "sensitivities": {"issue": "high"}}


@pytest.fixture
def server(tmp_path):
    service = AnalysisService(backend="thread",
                              cache_dir=str(tmp_path / "cache"))
    front = AsyncServerThread(service).start()
    yield front.base, service
    front.stop()
    service.close()


def call(base, path, payload=None, method=None):
    """One JSON request; returns (status, decoded body)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoundtrip:
    def test_upload_analyze_poll_fetch(self, server):
        """The canonical lifecycle: upload -> async analyze -> poll ->
        fetch, then check the async result equals the sync one."""
        base, _ = server
        status, body = call(base, "/v1/models", {"text": MODEL})
        assert status == 201
        model_hash = body["model_hash"]

        request = {"models": [{"hash": model_hash}], "user": USER}
        status, submitted = call(base, "/v1/jobs",
                                 {"op": "analyze",
                                  "request": request})
        assert status == 202
        job_id = submitted["job_id"]

        deadline = time.time() + 30
        while time.time() < deadline:
            status, polled = call(base, f"/v1/jobs/{job_id}")
            assert status == 200
            if polled["status"] in ("done", "error"):
                break
            time.sleep(0.02)
        assert polled["status"] == "done"

        status, sync = call(base, "/v1/analyze", request)
        assert status == 200
        async_response = AnalysisResponse.from_dict(polled["result"])
        sync_response = AnalysisResponse.from_dict(sync)
        assert async_response.signatures() == \
            sync_response.signatures()

    def test_http_results_match_inprocess_service(self, server):
        """Acceptance bar: the wire adds nothing and loses nothing —
        HTTP signatures equal the facade's own."""
        base, service = server
        status, body = call(base, "/v1/models", {"text": MODEL})
        request = {"models": [{"hash": body["model_hash"]}],
                   "user": USER}
        status, wire = call(base, "/v1/analyze", request)
        assert status == 200

        from repro.service import AnalysisRequest
        local = service.analyze(AnalysisRequest.from_dict(request))
        assert AnalysisResponse.from_dict(wire).signatures() == \
            local.signatures()

    def test_sweep_and_reanalyze_endpoints(self, server):
        base, _ = server
        status, sweep = call(base, "/v1/sweep",
                             {"count": 2, "personas": 1})
        assert status == 200
        assert sweep["report"]["jobs"] == 2

        status, body = call(base, "/v1/models", {"text": MODEL})
        edited = MODEL.replace(
            "    allow Auditor read on Records\n",
            "    allow Auditor read on Records\n"
            "    allow Auditor create on Records\n")
        status, after = call(base, "/v1/models", {"text": edited})
        status, re_body = call(base, "/v1/reanalyze", {
            "before": {"hash": body["model_hash"]},
            "after": {"hash": after["model_hash"]},
            "user": USER,
        })
        assert status == 200
        assert re_body["plan"]["level"] == "analyzers"
        assert re_body["lts_seeded"] == 1

    def test_cache_stats_and_prune_endpoints(self, server):
        base, _ = server
        status, body = call(base, "/v1/models", {"text": MODEL})
        call(base, "/v1/analyze",
             {"models": [{"hash": body["model_hash"]}], "user": USER})
        status, stats = call(base, "/v1/cache/stats")
        assert status == 200
        assert stats["stores"]["results"]["entries"] == 1
        status, pruned = call(base, "/v1/cache/prune",
                              {"max_bytes": 0})
        assert status == 200
        # Only the result store holds an entry: the LTS memo has no
        # disk tier.
        assert "lts" not in pruned["stores"]
        assert sum(info["removed"]
                   for info in pruned["stores"].values()) == 1

    def test_concurrent_requests_share_the_tiered_cache(self, server):
        """N threads, same request: exactly one execution, the rest
        served from the shared cache — and every signature agrees."""
        base, service = server
        status, body = call(base, "/v1/models", {"text": MODEL})
        request = {"models": [{"hash": body["model_hash"]}],
                   "user": USER}
        call(base, "/v1/analyze", request)  # warm the tiered cache

        responses = [None] * 8
        def hit(index):
            responses[index] = call(base, "/v1/analyze", request)
        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(len(responses))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        signatures = set()
        for status, payload in responses:
            assert status == 200
            decoded = AnalysisResponse.from_dict(payload)
            assert decoded.results[0].from_cache
            signatures.add(decoded.signatures())
        assert len(signatures) == 1
        assert service.engine.result_cache.stats.hits >= \
            len(responses)


class TestErrors:
    def test_unknown_route_is_404(self, server):
        base, _ = server
        status, body = call(base, "/v1/teleport")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_malformed_json_is_400(self, server):
        base, _ = server
        request = urllib.request.Request(
            base + "/v1/analyze", data=b"{nope", method="POST")
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=30)
        assert error.value.code == 400
        assert json.loads(error.value.read())["error"]["code"] == \
            "bad_request"

    def test_invalid_model_is_422(self, server):
        base, _ = server
        status, body = call(base, "/v1/models",
                            {"text": "system { nope"})
        assert status == 422
        assert body["error"]["code"] == "invalid_model"

    def test_unknown_hash_is_404(self, server):
        base, _ = server
        status, body = call(base, "/v1/analyze",
                            {"models": [{"hash": "0" * 64}],
                             "user": USER})
        assert status == 404

    def test_unknown_kind_is_400(self, server):
        base, _ = server
        status, body = call(base, "/v1/models", {"text": MODEL})
        status, body = call(base, "/v1/analyze",
                            {"models": [{"hash": body["model_hash"]}],
                             "user": USER, "kind": "dataflow"})
        assert status == 400
        assert "unknown analysis kind" in body["error"]["message"]

    def test_path_model_refs_are_rejected_over_http(self, server):
        base, _ = server
        status, body = call(base, "/v1/analyze",
                            {"models": [{"path": "/etc/passwd"}],
                             "user": USER})
        assert status == 400
        assert "not accepted over the wire" in \
            body["error"]["message"]

    def test_engine_input_errors_are_400_not_500(self, server):
        """Bad kind params reach the engine as a ReproError and must
        map to a structured 400, not an internal 500."""
        base, _ = server
        _, body = call(base, "/v1/models", {"text": MODEL})
        status, error = call(base, "/v1/analyze",
                             {"models": [{"hash": body["model_hash"]}],
                              "user": USER, "kind": "population",
                              "params": {"count": -1}})
        assert status == 400
        assert error["error"]["code"] == "analysis_error"
        assert "population count" in error["error"]["message"]

    def test_chunked_bodies_are_rejected_and_close(self, server):
        """No chunked decoding exists: treating the body as empty
        would run the wrong request and desync keep-alive."""
        import http.client
        base, _ = server
        host, port = base[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.putrequest("POST", "/v1/sweep")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            conn.send(b"5\r\n{\"cou\r\n0\r\n\r\n")
            reply = conn.getresponse()
            assert reply.status == 400
            body = json.loads(reply.read())
            assert "chunked" in body["error"]["message"]
            assert reply.getheader("Connection") == "close"
        finally:
            conn.close()

    @pytest.mark.parametrize("content_length", ["-1", "abc",
                                                str(10 ** 9)])
    def test_bad_content_length_is_400_and_closes(self, server,
                                                  content_length):
        """Negative, garbage or oversized Content-Length must answer
        400 and drop the connection — never block reading or 500."""
        import http.client
        base, _ = server
        host, port = base[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.putrequest("POST", "/v1/models")
            conn.putheader("Content-Length", content_length)
            conn.endheaders()
            reply = conn.getresponse()
            assert reply.status == 400
            body = json.loads(reply.read())
            assert body["error"]["code"] == "bad_request"
            assert reply.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_unknown_job_op_is_400(self, server):
        base, _ = server
        status, body = call(base, "/v1/jobs",
                            {"op": "explode", "request": {}})
        assert status == 400


class TestIntrospection:
    def test_health_and_kinds(self, server):
        base, _ = server
        status, health = call(base, "/v1/health")
        assert status == 200
        assert health["status"] == "ok"
        status, kinds = call(base, "/v1/kinds")
        assert "population" in kinds["kinds"]

    def test_model_listing(self, server):
        base, _ = server
        _, body = call(base, "/v1/models", {"text": MODEL})
        status, listed = call(base, "/v1/models", method="GET")
        assert status == 200
        assert listed["models"] == [body["model_hash"]]

    def test_health_reports_worker_load(self, server):
        base, service = server
        status, health = call(base, "/v1/health")
        assert status == 200
        load = health["load"]
        assert load["in_flight"] == 0
        assert load["job_table"] == 0
        assert load["max_jobs"] == 256
        assert load["occupancy"] == 0.0
        assert load["result_cache_hits"] == 0
        assert load["lts_cache_hits"] == 0
        # A decoded WorkerLoad mirrors the wire payload.
        from repro.service import WorkerLoad
        decoded = WorkerLoad.from_health(health)
        assert decoded.to_dict() == load

    def test_health_load_counts_jobs_and_hits(self, server):
        base, _ = server
        _, body = call(base, "/v1/models", {"text": MODEL})
        request = {"models": [{"hash": body["model_hash"]}],
                   "user": USER}
        call(base, "/v1/analyze", request)
        call(base, "/v1/analyze", request)  # result-cache hit
        status, submitted = call(
            base, "/v1/jobs", {"op": "analyze", "request": request})
        assert status == 202
        deadline = time.time() + 10
        while time.time() < deadline:
            _, job = call(base,
                          f"/v1/jobs/{submitted['job_id']}")
            if job["status"] in ("done", "error"):
                break
            time.sleep(0.02)
        _, health = call(base, "/v1/health")
        load = health["load"]
        assert load["job_table"] == 1
        assert load["occupancy"] == pytest.approx(1 / 256, abs=1e-4)
        assert load["result_cache_hits"] >= 1

    def test_worker_load_tolerates_legacy_health(self):
        # A pre-load-block health payload decodes to idle defaults.
        from repro.service import WorkerLoad
        legacy = WorkerLoad.from_health({"status": "ok"})
        assert legacy.in_flight == 0
        assert legacy.max_jobs == 0
