"""The service wire contract: JSON round-trips and schema validation."""

import json

import pytest

from repro.casestudies import build_surgery_system, surgery_patient
from repro.engine import AnalysisJob, BatchEngine, EngineStats
from repro.errors import ReproError
from repro.service import (
    AnalysisRequest,
    AnalysisResponse,
    CachePruneResponse,
    CacheStatsResponse,
    InvalidModelError,
    JobStatus,
    ModelRef,
    ReanalyzeRequest,
    RequestError,
    SweepRequest,
    UserSpec,
    check_payload,
    error_reply,
    population_breakdown,
    result_from_dict,
    result_to_dict,
    stats_from_dict,
    stats_to_dict,
)


def json_roundtrip(payload):
    """Force the payload through real JSON, as the wire would."""
    return json.loads(json.dumps(payload))


class TestCheckPayload:
    FIELDS = {"name": ((str,), True, None),
              "count": ((int,), False, 3)}

    def test_fills_defaults(self):
        checked = check_payload({"name": "x"}, self.FIELDS, "msg")
        assert checked == {"name": "x", "count": 3}

    def test_rejects_non_object(self):
        with pytest.raises(RequestError, match="expected a JSON"):
            check_payload([1, 2], self.FIELDS, "msg")

    def test_rejects_unknown_fields(self):
        with pytest.raises(RequestError, match="unknown field"):
            check_payload({"name": "x", "zap": 1}, self.FIELDS, "msg")

    def test_rejects_missing_required(self):
        with pytest.raises(RequestError, match="missing required"):
            check_payload({"count": 1}, self.FIELDS, "msg")

    def test_rejects_type_mismatch(self):
        with pytest.raises(RequestError, match="must be int"):
            check_payload({"name": "x", "count": "y"},
                          self.FIELDS, "msg")

    def test_bool_is_not_an_int(self):
        """JSON true must not satisfy an integer field via Python's
        bool/int subclassing."""
        with pytest.raises(RequestError, match="boolean"):
            check_payload({"name": "x", "count": True},
                          self.FIELDS, "msg")


class TestErrorReply:
    """One mapping from any failure to its wire error."""

    def test_service_errors_answer_their_status_and_payload(self):
        error = InvalidModelError("bad model", issues=["line 3"])
        assert error_reply(error) == (422, error.to_dict())

    def test_engine_errors_are_analysis_errors(self):
        assert error_reply(ReproError("unknown kind")) == (400, {
            "error": {"code": "analysis_error",
                      "message": "unknown kind"}})

    def test_anything_else_is_internal(self):
        assert error_reply(RuntimeError("boom")) == (500, {
            "error": {"code": "internal", "message": "boom"}})


class TestModelRef:
    def test_roundtrip(self):
        ref = ModelRef(text="system x {}", label="demo")
        assert ModelRef.from_dict(json_roundtrip(ref.to_dict())) == ref

    def test_exactly_one_source(self):
        with pytest.raises(RequestError, match="exactly one"):
            ModelRef()
        with pytest.raises(RequestError, match="exactly one"):
            ModelRef(text="x", hash="y")

    def test_paths_can_be_forbidden(self):
        payload = ModelRef(path="/etc/passwd").to_dict()
        assert ModelRef.from_dict(payload, allow_paths=True)
        with pytest.raises(RequestError, match="not\\s+accepted"):
            ModelRef.from_dict(payload, allow_paths=False)


class TestUserSpec:
    def test_roundtrip(self):
        spec = UserSpec(name="ada", agree=("Svc",),
                        sensitivities=(("diagnosis", "high"),
                                       ("name", 0.5)),
                        default_sensitivity=0.1, acceptable="medium")
        assert UserSpec.from_dict(json_roundtrip(spec.to_dict())) == spec

    def test_profile_matches_direct_construction(self):
        from repro.consent import UserProfile
        spec = UserSpec(name="ada", agree=("Svc",),
                        sensitivities=(("diagnosis", "high"),),
                        default_sensitivity=0.2, acceptable="low")
        direct = UserProfile("ada", agreed_services=["Svc"],
                             sensitivities={"diagnosis": "high"},
                             default_sensitivity=0.2,
                             acceptable_risk="low")
        assert spec.to_profile().cache_key() == direct.cache_key()

    def test_rejects_bad_sensitivity_value(self):
        with pytest.raises(RequestError, match="sensitivity"):
            UserSpec.from_dict({"sensitivities": {"f": [1, 2]}})

    def test_rejects_unknown_acceptable_level(self):
        with pytest.raises(RequestError, match="acceptable"):
            UserSpec.from_dict({"acceptable": "apocalyptic"})

    def test_rejects_non_string_agree(self):
        with pytest.raises(RequestError, match="agree"):
            UserSpec.from_dict({"agree": [1]})


class TestRequests:
    def test_analysis_request_roundtrip(self):
        request = AnalysisRequest(
            models=(ModelRef(hash="a" * 64),),
            user=UserSpec(agree=("Svc",)),
            kind="consent_change",
            params={"withdraw": ("Svc",)})
        decoded = AnalysisRequest.from_dict(
            json_roundtrip(request.to_dict()))
        assert decoded == request

    def test_analysis_request_needs_models(self):
        with pytest.raises(RequestError, match="no models"):
            AnalysisRequest(models=())
        with pytest.raises(RequestError, match="missing required"):
            AnalysisRequest.from_dict({})

    def test_sweep_request_roundtrip_and_bounds(self):
        request = SweepRequest(count=5, seed=9, personas=3,
                               kinds=("disclosure", "population"))
        assert SweepRequest.from_dict(
            json_roundtrip(request.to_dict())) == request
        with pytest.raises(RequestError, match="count"):
            SweepRequest(count=-1)
        with pytest.raises(RequestError, match="personas"):
            SweepRequest(personas=0)

    def test_sweep_request_bounds_wire_reachable_work(self):
        """One request must not queue an arbitrarily large fleet."""
        with pytest.raises(RequestError, match="count"):
            SweepRequest(count=SweepRequest.MAX_COUNT + 1)
        with pytest.raises(RequestError, match="personas"):
            SweepRequest(personas=SweepRequest.MAX_PERSONAS + 1)

    def test_reanalyze_request_roundtrip(self):
        request = ReanalyzeRequest(
            before=ModelRef(hash="a" * 64),
            after=ModelRef(hash="b" * 64),
            user=UserSpec(agree=("Svc",)))
        assert ReanalyzeRequest.from_dict(
            json_roundtrip(request.to_dict())) == request


def _real_results():
    system = build_surgery_system()
    user = surgery_patient()
    jobs = [AnalysisJob(system=system, user=user, kind=kind,
                        scenario="surgery", family="f", variant="v")
            for kind in ("disclosure", "pseudonym", "consent_change")]
    return BatchEngine().run(jobs)


class TestResultSerialization:
    def test_signature_survives_json(self):
        """The acceptance contract: a JSON-decoded result reproduces
        signature() byte-identically for every kind payload shape."""
        batch = _real_results()
        for result in batch.results:
            payload = json_roundtrip(result_to_dict(result))
            assert result_from_dict(payload).signature() == \
                result.signature()

    def test_execution_metadata_travels(self):
        result = _real_results().results[0]
        decoded = result_from_dict(
            json_roundtrip(result_to_dict(result)))
        assert decoded.from_cache == result.from_cache
        assert decoded.lts_generated == result.lts_generated
        assert decoded.scenario == "surgery"

    def test_malformed_nested_payloads_raise_request_errors(self):
        """Decoders promise structured errors, even for shapes the
        declarative specs cannot cover (version-skewed peers)."""
        good = result_to_dict(_real_results().results[0])
        short_event = dict(good, events=[["low", "actor"]])
        with pytest.raises(RequestError, match="job result"):
            result_from_dict(short_event)
        with pytest.raises(RequestError, match="engine stats"):
            stats_from_dict({"bogus_key": 1})
        from repro.engine.cache import CacheStats
        batch = _real_results()
        payload = AnalysisResponse(
            results=batch.results, stats=batch.stats,
            result_cache=CacheStats(),
            max_level="low").to_dict()
        payload["result_cache"]["bogus"] = 1
        with pytest.raises(RequestError, match="result cache stats"):
            AnalysisResponse.from_dict(payload)

    def test_population_breakdown_works_on_decoded_results(self):
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient(), kind="population",
                          params={"count": 8, "seed": 3})
        result = BatchEngine().run([job]).results[0]
        decoded = result_from_dict(
            json_roundtrip(result_to_dict(result)))
        assert decoded.signature() == result.signature()
        breakdown = population_breakdown(decoded)
        assert breakdown == population_breakdown(result)
        assert breakdown["analysed"] + breakdown["skipped"] == 9
        assert set(breakdown["score_weights"]) == \
            {"semantic", "uniqueness", "linkability"}
        assert breakdown["field_scores"], "expected per-field scores"
        for row in breakdown["field_scores"]:
            assert set(row) == {"field", "semantic", "uniqueness",
                                "linkability", "composite"}

    def test_population_breakdown_rejects_other_kinds(self):
        result = _real_results().results[0]
        with pytest.raises(RequestError, match="population breakdown"):
            population_breakdown(result)

    def test_stats_roundtrip_preserves_describe(self):
        stats = EngineStats(backend="thread", jobs=4, result_hits=1,
                            executed=3, lts_generations=2,
                            lts_reuses=1, wall_time=0.25,
                            by_kind={"disclosure": 4})
        decoded = stats_from_dict(json_roundtrip(stats_to_dict(stats)))
        assert decoded.describe() == stats.describe()


class TestResponses:
    def test_analysis_response_roundtrip(self):
        batch = _real_results()
        from repro.engine import FleetReport
        from repro.engine.cache import CacheStats
        response = AnalysisResponse(
            results=batch.results, stats=batch.stats,
            result_cache=CacheStats(hits=1, misses=2, puts=3),
            max_level=FleetReport(batch.results).max_level().value,
            report=FleetReport(batch.results).to_dict())
        decoded = AnalysisResponse.from_dict(
            json_roundtrip(response.to_dict()))
        assert decoded.signatures() == response.signatures()
        assert decoded.max_level == response.max_level
        assert decoded.stats.describe() == response.stats.describe()
        assert decoded.report["jobs"] == len(batch.results)

    def test_cache_responses_roundtrip(self):
        stats = CacheStatsResponse(
            cache_dir="/tmp/c",
            stores=(("results", {"entries": 2, "bytes": 10,
                                 "oldest_age": 1.0,
                                 "newest_age": 0.5}),),
            live={"results": {"hits": 1, "misses": 0, "puts": 1,
                              "evictions": 0}})
        assert CacheStatsResponse.from_dict(
            json_roundtrip(stats.to_dict())) == stats
        from repro.engine.cache import PruneReport
        prune = CachePruneResponse(
            cache_dir="/tmp/c",
            stores=(("lts", PruneReport(1, 10, 2, 20)),))
        assert CachePruneResponse.from_dict(
            json_roundtrip(prune.to_dict())) == prune

    def test_job_status_roundtrip_and_validation(self):
        status = JobStatus(job_id="j1", op="sweep", status="done",
                           result={"max_level": "low"})
        assert JobStatus.from_dict(
            json_roundtrip(status.to_dict())) == status
        assert status.finished
        with pytest.raises(RequestError, match="unknown state"):
            JobStatus.from_dict({"job_id": "j", "op": "sweep",
                                 "status": "lost"})
