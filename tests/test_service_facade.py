"""The AnalysisService facade: one object behind every entrypoint."""

import multiprocessing
import time

import pytest

from repro.casestudies import build_surgery_system
from repro.dfd import to_dsl
from repro.engine import AnalysisJob, BatchEngine
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    InvalidModelError,
    ModelRef,
    NotFoundError,
    ReanalyzeRequest,
    RequestError,
    SweepRequest,
    UserSpec,
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

USER = UserSpec(agree=("Consult",),
                sensitivities=(("issue", "high"),))


@pytest.fixture
def service():
    svc = AnalysisService(backend="serial")
    yield svc
    svc.close()


class TestModelStore:
    def test_upload_is_idempotent_and_content_addressed(self, service):
        first = service.upload_model(MODEL)
        second = service.upload_model(MODEL + "\n\n")
        assert first == second
        assert service.model_hashes() == (first,)

    def test_upload_rejects_parse_errors(self, service):
        with pytest.raises(InvalidModelError, match="does not parse"):
            service.upload_model("system { nope")

    def test_upload_rejects_invalid_structure(self, service):
        broken = """
        system demo {
          schema S { field a: string }
          actor A
          service svc { flow 1 User -> Ghost fields [a] }
        }
        """
        with pytest.raises(InvalidModelError,
                           match="structurally invalid") as exc:
            service.upload_model(broken)
        assert exc.value.issues

    def test_unknown_hash_is_not_found(self, service):
        with pytest.raises(NotFoundError, match="unknown model hash"):
            service.analyze(AnalysisRequest(
                models=(ModelRef(hash="f" * 64),), user=USER))

    def test_path_refs_resolve_and_register(self, service, tmp_path):
        path = tmp_path / "m.dsl"
        path.write_text(MODEL)
        response = service.analyze(AnalysisRequest(
            models=(ModelRef(path=str(path)),), user=USER))
        assert response.results[0].scenario == str(path)
        assert len(service.model_hashes()) == 1

    def test_missing_path_is_a_request_error(self, service):
        with pytest.raises(RequestError):
            service.analyze(AnalysisRequest(
                models=(ModelRef(path="/no/such.dsl"),), user=USER))


class TestAnalyze:
    def test_signatures_match_a_direct_engine_run(self, service):
        """The facade is a facade: same fingerprints, same results as
        hand-wiring the engine."""
        model_hash = service.upload_model(MODEL)
        response = service.analyze(AnalysisRequest(
            models=(ModelRef(hash=model_hash),), user=USER))

        from repro.dfd import parse_dsl
        direct = BatchEngine(backend="serial").run([AnalysisJob(
            system=parse_dsl(MODEL, validate=False),
            user=USER.to_profile())])
        assert response.signatures() == \
            tuple(r.signature() for r in direct.results)

    def test_unknown_kind_is_a_request_error(self, service):
        model_hash = service.upload_model(MODEL)
        with pytest.raises(RequestError, match="unknown analysis kind"):
            service.analyze(AnalysisRequest(
                models=(ModelRef(hash=model_hash),), user=USER,
                kind="dataflow"))

    def test_engine_errors_become_structured(self, service):
        """A user agreeing to a service the model lacks is an
        AnalysisError (a ReproError), not a traceback."""
        from repro.errors import ReproError
        model_hash = service.upload_model(MODEL)
        with pytest.raises(ReproError):
            service.analyze(AnalysisRequest(
                models=(ModelRef(hash=model_hash),),
                user=UserSpec(agree=("Ghost",))))

    def test_shared_result_cache_across_requests(self, service):
        model_hash = service.upload_model(MODEL)
        request = AnalysisRequest(models=(ModelRef(hash=model_hash),),
                                  user=USER)
        cold = service.analyze(request)
        warm = service.analyze(request)
        assert cold.stats.executed == 1
        assert warm.stats.result_hits == 1
        assert warm.results[0].from_cache
        assert cold.signatures() == warm.signatures()

    def test_population_kind_through_the_service(self, service):
        model_hash = service.upload_model(MODEL)
        response = service.analyze(AnalysisRequest(
            models=(ModelRef(hash=model_hash),), user=USER,
            kind="population", params={"count": 5, "seed": 2}))
        result = response.results[0]
        assert result.kind == "population"
        assert result.detail("analysed") >= 1


class TestSweep:
    def test_sweep_aggregates_a_fleet(self, service):
        response = service.sweep(SweepRequest(count=4, personas=1))
        assert len(response.results) == 4
        assert response.report["jobs"] == 4
        assert "level_histogram" in response.report

    def test_sweep_validates_kinds(self, service):
        with pytest.raises(RequestError, match="unknown analysis"):
            service.sweep(SweepRequest(count=2, kinds=("bogus",)))


class TestReanalyze:
    def test_incremental_plan_and_results(self, service, tmp_path):
        before = tmp_path / "before.dsl"
        before.write_text(MODEL)
        after = tmp_path / "after.dsl"
        after.write_text(MODEL.replace(
            "    allow Auditor read on Records\n",
            "    allow Auditor read on Records\n"
            "    allow Auditor create on Records\n"))
        response = service.reanalyze(ReanalyzeRequest(
            before=ModelRef(path=str(before)),
            after=ModelRef(path=str(after)), user=USER))
        assert response.plan_level == "analyzers"
        assert response.lts_seeded == 1
        assert response.outcome.stats.lts_generations == 0
        assert "change invalidates: analyzers" in response.describe()

    def test_baseline_cache_accounting_is_a_snapshot(self, service,
                                                     tmp_path):
        """The baseline response must report the cache as it stood
        after the baseline run, not after the incremental leg."""
        before = tmp_path / "before.dsl"
        before.write_text(MODEL)
        after = tmp_path / "after.dsl"
        after.write_text(MODEL.replace(
            "    allow Auditor read on Records\n",
            "    allow Auditor read on Records\n"
            "    allow Auditor create on Records\n"))
        response = service.reanalyze(ReanalyzeRequest(
            before=ModelRef(path=str(before)),
            after=ModelRef(path=str(after)), user=USER))
        assert response.baseline.result_cache.puts == 1
        assert response.outcome.result_cache.puts == 2

    def test_identical_models_short_circuit(self, service, tmp_path):
        path = tmp_path / "m.dsl"
        path.write_text(MODEL)
        response = service.reanalyze(ReanalyzeRequest(
            before=ModelRef(path=str(path)),
            after=ModelRef(path=str(path)), user=USER))
        assert response.plan_level == "nothing"
        assert response.outcome.stats.result_hits == 1


class TestFingerprintOnce:
    """A served re-analysis between stored models reuses the store's
    hashes: the models are hashed at upload, never again."""

    EDITED = MODEL.replace(
        "    allow Auditor read on Records\n",
        "    allow Auditor read on Records\n"
        "    allow Auditor create on Records\n")

    @staticmethod
    def _count_fingerprints(monkeypatch):
        from repro.engine import incremental, runner
        calls = []

        def counting(system, _real=runner.model_fingerprint):
            calls.append(system.name)
            return _real(system)

        monkeypatch.setattr(incremental, "model_fingerprint", counting)
        monkeypatch.setattr(runner, "model_fingerprint", counting)
        return calls

    def _reanalyze(self, service):
        request = ReanalyzeRequest(
            before=ModelRef(hash=service.upload_model(MODEL)),
            after=ModelRef(hash=service.upload_model(self.EDITED)),
            user=USER, strict_lint=True)
        return service.reanalyze(request)

    def test_reanalyze_between_uploads_hashes_nothing(self, monkeypatch):
        seeded = AnalysisService(backend="serial")
        unseeded = AnalysisService(backend="serial")
        try:
            calls = self._count_fingerprints(monkeypatch)
            response = self._reanalyze(seeded)
            assert calls == []
            monkeypatch.setattr(unseeded, "_known_fingerprints", dict)
            reference = self._reanalyze(unseeded)
            assert calls, "the unseeded service must hash the models"
        finally:
            seeded.close()
            unseeded.close()
        assert response.plan_level == reference.plan_level == "analyzers"
        assert response.plan_reason == reference.plan_reason
        assert response.plan_description == reference.plan_description
        assert (response.jobs, response.retargeted,
                response.lts_seeded) == (reference.jobs,
                                         reference.retargeted,
                                         reference.lts_seeded)
        assert response.baseline.signatures() == \
            reference.baseline.signatures()
        assert response.outcome.signatures() == \
            reference.outcome.signatures()


class TestStreamFingerprints:
    def test_stream_hashes_each_model_once(self, monkeypatch):
        """A streamed sweep runs one job at a time, yet hashes each of
        its models once, not once per job."""
        from repro.engine import fingerprint
        calls = []
        real = fingerprint.canonical_system_dict

        def counting(system):
            calls.append(system.name)
            return real(system)

        service = AnalysisService(backend="serial")
        try:
            request = SweepRequest(seed=4, count=3, personas=3,
                                   kinds=("disclosure", "population"))
            jobs = [job for _, job in service._sweep_jobs(request)]
            monkeypatch.setattr(fingerprint, "canonical_system_dict",
                                counting)
            lines = list(service.sweep_stream(request))
        finally:
            service.close()
        assert len(lines) == len(jobs) + 1 and "summary" in lines[-1]
        distinct = {id(job.system): job.system.name for job in jobs}
        assert len(jobs) > len(distinct)
        assert sorted(calls) == sorted(distinct.values())


class TestCacheLifecycle:
    def test_cache_stats_never_creates_stores(self, tmp_path):
        target = str(tmp_path / "nowhere")
        response = AnalysisService(cache_dir=target).cache_stats()
        assert response.stores == ()
        import os
        assert not os.path.exists(target)

    def test_stats_and_prune_roundtrip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        service = AnalysisService(backend="serial",
                                  cache_dir=cache_dir)
        model_hash = service.upload_model(MODEL)
        service.analyze(AnalysisRequest(
            models=(ModelRef(hash=model_hash),), user=USER))
        stats = service.cache_stats()
        stores = dict(stats.stores)
        assert stores["results"]["entries"] == 1
        # The LTS memo lives in memory only: no store on disk.
        assert "lts" not in stores
        assert stats.live["results"]["puts"] == 1
        assert stats.live["lts"]["puts"] == 1
        pruned = service.prune_cache(max_bytes=0)
        assert sum(r.removed for _, r in pruned.stores) == 1

    def test_prune_without_cache_dir_is_an_error(self):
        with pytest.raises(RequestError, match="cache_dir"):
            AnalysisService().prune_cache(max_bytes=0)

    def test_close_stops_the_engine_process_pool(self):
        before = {child.pid for child in
                  multiprocessing.active_children()}
        service = AnalysisService(backend="process", workers=2)
        try:
            response = service.sweep(SweepRequest(count=4, personas=2))
            assert response.stats.executed == 8
            assert {child.pid for child in
                    multiprocessing.active_children()} - before
        finally:
            service.close()
        assert not {child.pid for child in
                    multiprocessing.active_children()} - before


class TestAsyncJobs:
    def _wait(self, service, job_id, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status = service.job_status(job_id)
            if status.finished:
                return status
            time.sleep(0.01)
        raise AssertionError(f"job {job_id} never finished")

    def test_submit_poll_fetch(self, service):
        model_hash = service.upload_model(MODEL)
        request = AnalysisRequest(models=(ModelRef(hash=model_hash),),
                                  user=USER)
        job_id = service.submit("analyze", request)
        status = self._wait(service, job_id)
        assert status.status == "done"
        assert status.result["max_level"] in ("none", "low",
                                              "medium", "high")
        # The async result is the same wire payload the sync call
        # produces (modulo cache accounting).
        sync = service.analyze(request)
        from repro.service import AnalysisResponse
        decoded = AnalysisResponse.from_dict(status.result)
        assert decoded.signatures() == sync.signatures()

    def test_identical_submissions_coalesce(self, service):
        model_hash = service.upload_model(MODEL)
        request = AnalysisRequest(models=(ModelRef(hash=model_hash),),
                                  user=USER)
        first = service.submit("analyze", request)
        second = service.submit("analyze", request)
        assert first == second
        assert len(service.job_ids()) == 1

    def test_failed_jobs_report_typed_errors(self, service):
        request = AnalysisRequest(models=(ModelRef(hash="0" * 64),),
                                  user=USER)
        status = self._wait(service,
                            service.submit("analyze", request))
        assert status.status == "error"
        assert status.error["code"] == "not_found"

    def test_unknown_op_and_job_id(self, service):
        with pytest.raises(RequestError, match="unknown operation"):
            service.submit("explode", SweepRequest(count=1))
        with pytest.raises(NotFoundError, match="unknown job id"):
            service.job_status("nope")

    def test_failed_jobs_can_be_retried(self, service):
        """An error record must not poison the job identity: once the
        missing model is uploaded, the identical resubmission runs."""
        request = None
        # First submission fails: the hash is not uploaded yet.
        system = build_surgery_system()
        from repro.engine import model_fingerprint
        model_hash = model_fingerprint(system)
        request = AnalysisRequest(
            models=(ModelRef(hash=model_hash),),
            user=UserSpec(agree=("MedicalService",)))
        job_id = service.submit("analyze", request)
        assert self._wait(service, job_id).status == "error"
        service.register_model(system)
        assert service.submit("analyze", request) == job_id
        assert self._wait(service, job_id).status == "done"

    def test_engine_errors_in_jobs_are_analysis_errors(self, service):
        """Bad kind params surface as the caller's fault, not an
        internal service failure."""
        model_hash = service.upload_model(MODEL)
        request = AnalysisRequest(
            models=(ModelRef(hash=model_hash),), user=USER,
            kind="population", params={"count": -1})
        status = self._wait(service,
                            service.submit("analyze", request))
        assert status.status == "error"
        assert status.error["code"] == "analysis_error"

    def test_path_refs_get_content_addressed_job_ids(self, service,
                                                     tmp_path):
        """Editing the file behind a path ref must produce a *new*
        job id — never a stale coalesced result."""
        path = tmp_path / "m.dsl"
        path.write_text(MODEL)
        request = AnalysisRequest(models=(ModelRef(path=str(path)),),
                                  user=USER)
        first = service.submit("analyze", request)
        assert self._wait(service, first).status == "done"
        path.write_text(MODEL.replace(
            "    allow Auditor read on Records\n", ""))
        second = service.submit("analyze", request)
        assert second != first
        assert self._wait(service, second).status == "done"

    def test_submit_after_close_is_refused(self):
        from repro.service import ServiceError
        service = AnalysisService(backend="serial")
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.submit("sweep", SweepRequest(count=1))


class TestDescribe:
    def test_health_snapshot(self, service):
        payload = service.describe()
        assert payload["status"] == "ok"
        assert "population" in payload["kinds"]
        assert payload["engine"] is None  # lazily built
        service.sweep(SweepRequest(count=1, personas=1))
        assert service.describe()["engine"] is not None

    def test_register_parsed_model(self, service):
        system = build_surgery_system()
        model_hash = service.register_model(system)
        text_hash = service.upload_model(to_dsl(system))
        assert model_hash == text_hash


class TestBoundedJobTable:
    """The async job table is capped: finished records are evicted
    oldest-first once the table exceeds ``max_jobs`` (ROADMAP "Service
    hardening" — a long-lived server must not grow per submission)."""

    def _wait(self, service, job_id, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status = service.job_status(job_id)
            if status.finished:
                return status
            time.sleep(0.01)
        raise AssertionError(f"job {job_id} never finished")

    def _requests(self, service, count):
        model_hash = service.upload_model(MODEL)
        return [
            AnalysisRequest(
                models=(ModelRef(hash=model_hash),),
                user=UserSpec(agree=("Consult",),
                              sensitivities=(("issue", level),)))
            for level in ("high", "medium", "low")[:count]
        ]

    def test_max_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="max_jobs"):
            AnalysisService(max_jobs=0)

    def test_oldest_finished_jobs_are_evicted(self):
        service = AnalysisService(backend="serial", max_jobs=2)
        try:
            ids = []
            for request in self._requests(service, 3):
                job_id = service.submit("analyze", request)
                assert self._wait(service, job_id).status == "done"
                ids.append(job_id)
            assert len(set(ids)) == 3          # distinct submissions
            assert len(service.job_ids()) == 2
            with pytest.raises(NotFoundError, match="unknown job id"):
                service.job_status(ids[0])      # oldest evicted
            assert service.job_status(ids[1]).status == "done"
            assert service.job_status(ids[2]).status == "done"
            assert service.describe()["max_jobs"] == 2
        finally:
            service.close()

    def test_evicted_job_can_be_resubmitted(self):
        """Eviction never loses results: the identical request gets a
        fresh record and is served from the result cache."""
        service = AnalysisService(backend="serial", max_jobs=1)
        try:
            requests = self._requests(service, 2)
            first = service.submit("analyze", requests[0])
            assert self._wait(service, first).status == "done"
            second = service.submit("analyze", requests[1])
            assert self._wait(service, second).status == "done"
            assert first not in service.job_ids()
            again = service.submit("analyze", requests[0])
            assert again == first               # same canonical identity
            assert self._wait(service, again).status == "done"
        finally:
            service.close()

    def test_default_cap_leaves_small_tables_alone(self, service):
        for request in self._requests(service, 3):
            self._wait(service, service.submit("analyze", request))
        assert len(service.job_ids()) == 3
