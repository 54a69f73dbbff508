"""The batch engine: backends, caching, dedup, ordering."""

import pytest

from repro.casestudies import build_scaled_system, build_surgery_system
from repro.consent import UserProfile
from repro.core import GenerationOptions
from repro.core.risk import DisclosureRiskAnalyzer
from repro.engine import (
    AnalysisJob,
    BatchEngine,
    LRUCache,
    resolve_options,
)


def _patient(name="p0"):
    return UserProfile(name, agreed_services=["MedicalService"],
                       sensitivities={"diagnosis": "high"},
                       default_sensitivity=0.2)


def _jobs(count=4):
    """A small mixed fleet: two distinct models, distinct users."""
    surgery = build_surgery_system()
    scaled = build_scaled_system(actors=3, fields=4, stores=1)
    jobs = []
    for index in range(count):
        if index % 2 == 0:
            jobs.append(AnalysisJob(
                system=surgery, user=_patient(f"p{index}"),
                scenario=f"surgery#{index}", family="surgery"))
        else:
            user = UserProfile(f"s{index}",
                               agreed_services=["Intake"],
                               default_sensitivity=0.4)
            jobs.append(AnalysisJob(
                system=scaled, user=user,
                scenario=f"scaled#{index}", family="scaled"))
    return jobs


class TestExecution:
    def test_results_in_submission_order(self):
        batch = BatchEngine(backend="serial").run(_jobs(6))
        assert [r.scenario for r in batch.results] == \
            [f"surgery#{i}" if i % 2 == 0 else f"scaled#{i}"
             for i in range(6)]
        assert [r.job_id for r in batch.results] == \
            [f"job-{i:04d}" for i in range(6)]

    @pytest.mark.parametrize("backend,workers", [
        ("thread", 4),
        ("process", 2),
    ])
    def test_parallel_matches_serial(self, backend, workers):
        serial = BatchEngine(backend="serial").run(_jobs(6))
        parallel = BatchEngine(backend=backend,
                               workers=workers).run(_jobs(6))
        assert [r.signature() for r in serial.results] == \
            [r.signature() for r in parallel.results]

    def test_matches_direct_analyzer(self):
        """The engine is a faithful executor: same verdicts as calling
        the analyzer by hand."""
        job = _jobs(1)[0]
        result = BatchEngine().run([job]).results[0]
        report = DisclosureRiskAnalyzer(job.system).analyse(job.user)
        assert result.max_level == report.max_level.value
        assert len(result.events) == len(report.events)
        assert result.non_allowed_actors == report.non_allowed_actors

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            BatchEngine(backend="celery")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            BatchEngine(backend="thread", workers=0)


class TestResultCaching:
    def test_cold_then_warm_accounting(self):
        engine = BatchEngine(backend="serial")
        cold = engine.run(_jobs(4))
        assert cold.stats.result_hits == 0
        assert cold.stats.executed == 4
        warm = engine.run(_jobs(4))
        assert warm.stats.result_hits == 4
        assert warm.stats.executed == 0
        assert warm.stats.lts_generations == 0
        assert [r.signature() for r in cold.results] == \
            [r.signature() for r in warm.results]
        assert all(r.from_cache for r in warm.results)

    def test_warm_disk_cache_runs_zero_generations(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = BatchEngine(backend="serial",
                           cache_dir=cache_dir).run(_jobs(4))
        assert cold.stats.lts_generations > 0
        # A brand-new engine process-equivalent: only the disk survives.
        warm_engine = BatchEngine(backend="serial", cache_dir=cache_dir)
        warm = warm_engine.run(_jobs(4))
        assert warm.stats.lts_generations == 0
        assert warm.stats.result_hits == 4
        assert [r.signature() for r in cold.results] == \
            [r.signature() for r in warm.results]

    def test_duplicate_jobs_deduplicated_within_batch(self):
        jobs = _jobs(2) + _jobs(2)       # same content, fresh objects
        batch = BatchEngine(backend="serial").run(jobs)
        assert batch.stats.jobs == 4
        assert batch.stats.executed == 2
        assert batch.stats.deduplicated == 2
        assert batch.results[0].signature() == \
            batch.results[2].signature()
        # Labels still belong to the requesting job.
        assert batch.results[2].job_id == "job-0002"

    def test_lts_memo_reused_across_users_of_same_model(self):
        surgery = build_surgery_system()
        jobs = [AnalysisJob(system=surgery, user=_patient(f"p{i}"))
                for i in range(3)]
        batch = BatchEngine(backend="serial").run(jobs)
        assert batch.stats.lts_generations == 1
        assert batch.stats.lts_reuses == 2

    def test_injected_result_cache_is_used(self):
        cache = LRUCache(max_entries=64)
        engine = BatchEngine(backend="serial", result_cache=cache)
        engine.run(_jobs(2))
        assert cache.stats.puts == 2
        engine.run(_jobs(2))
        assert cache.stats.hits == 2

    def test_cached_result_is_relabelled(self):
        engine = BatchEngine(backend="serial")
        engine.run(_jobs(2))
        renamed = _jobs(2)
        renamed[0].scenario = "renamed-scenario"
        warm = engine.run(renamed)
        assert warm.results[0].scenario == "renamed-scenario"
        assert warm.results[0].from_cache


class TestResolveOptions:
    def test_default_mirrors_disclosure_analysis(self):
        job = AnalysisJob(system=build_surgery_system(),
                          user=_patient())
        options = resolve_options(job)
        assert options.services == ("MedicalService",)
        assert options.include_potential_reads
        assert options.potential_read_actors == \
            frozenset(job.user.non_allowed_actors(job.system))

    def test_explicit_options_win(self):
        explicit = GenerationOptions(ordering="sequence")
        job = AnalysisJob(system=build_surgery_system(),
                          user=_patient(), options=explicit)
        assert resolve_options(job) is explicit


class TestStaleLtsBlobs:
    """Entries written under our stage-2 keys by an incompatible
    pickle layout (e.g. pre-bitmask ``Configuration`` blobs) must be
    treated as misses and overwritten, not fail the job."""

    def test_unpicklable_blob_regenerates(self):
        from repro.engine.fingerprint import lts_cache_key
        engine = BatchEngine(backend="serial")
        jobs = [AnalysisJob(system=build_surgery_system(),
                            user=_patient())]
        key = lts_cache_key(jobs[0].system, resolve_options(jobs[0]))
        engine.lts_cache.put(key, b"\x80\x04not a pickle")
        batch = engine.run(jobs)
        assert batch.stats.lts_generations == 1
        assert batch.results[0].states > 0
        # The poisoned entry was replaced with a loadable one.
        import pickle
        assert pickle.loads(engine.lts_cache.get(key)) is not None

    def test_results_unchanged_after_blob_recovery(self):
        from repro.engine.fingerprint import lts_cache_key
        clean = BatchEngine(backend="serial").run(_jobs(2))
        engine = BatchEngine(backend="serial")
        job = _jobs(1)[0]
        key = lts_cache_key(job.system, resolve_options(job))
        engine.lts_cache.put(key, b"junk")
        recovered = engine.run(_jobs(2))
        assert [r.signature() for r in recovered.results] == \
            [r.signature() for r in clean.results]

    def test_blob_with_transition_risk_slot_regenerates(self):
        """An LTS pickled when ``Transition`` still had its ``risk``
        slot fails to load (the slot no longer exists) and is
        regenerated and overwritten; the job's result is unchanged."""
        import copyreg
        import io
        import pickle
        from repro.core import ModelGenerator
        from repro.core.lts import Transition
        from repro.engine.fingerprint import lts_cache_key

        class OldLayoutPickler(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is not Transition:
                    return NotImplemented
                slots = {name: getattr(obj, name)
                         for name in Transition.__slots__}
                slots["risk"] = None
                return copyreg.__newobj__, (Transition,), (None, slots)

        job = _jobs(1)[0]
        options = resolve_options(job)
        buffer = io.BytesIO()
        OldLayoutPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(
            ModelGenerator(job.system).generate(options))
        with pytest.raises(AttributeError):
            pickle.loads(buffer.getvalue())

        clean = BatchEngine(backend="serial").run([job])
        engine = BatchEngine(backend="serial")
        key = lts_cache_key(job.system, options)
        engine.lts_cache.put(key, buffer.getvalue())
        recovered = engine.run([job])
        assert recovered.stats.lts_generations == 1
        assert recovered.results[0].signature() == \
            clean.results[0].signature()
        assert engine.lts_cache.get(key) != buffer.getvalue()
        assert pickle.loads(engine.lts_cache.get(key)) is not None


class TestBackendRegistry:
    """The pluggable backend protocol behind BatchEngine."""

    def test_builtins_are_registered(self):
        from repro.engine import backend_names
        assert set(backend_names()) >= {"serial", "thread", "process"}

    def test_backends_constant_tracks_registry(self):
        import repro.engine as engine_module
        from repro.engine import backend_names, register_backend
        assert tuple(engine_module.BACKENDS) == backend_names()
        from repro.engine.runner import SerialBackend
        register_backend("registry-probe", SerialBackend)
        try:
            assert "registry-probe" in engine_module.BACKENDS
        finally:
            from repro.engine.runner import _BACKEND_REGISTRY
            del _BACKEND_REGISTRY["registry-probe"]

    def test_get_backend_rejects_unknown(self):
        from repro.engine import get_backend
        with pytest.raises(ValueError, match="backend must be one"):
            get_backend("celery")

    def test_engine_accepts_backend_instance(self):
        from repro.engine import Backend

        class CountingBackend(Backend):
            """Delegates to serial, counting what it executed."""
            name = "counting"
            # Exercise every miss through this backend, even
            # single-job batches.
            inline_single = False

            def __init__(self):
                from repro.engine.runner import SerialBackend
                self.inner = SerialBackend()
                self.executed = 0

            def execute(self, prepared, engine):
                self.executed += len(prepared)
                yield from self.inner.execute(prepared, engine)

        backend = CountingBackend()
        engine = BatchEngine(backend=backend)
        batch = engine.run(_jobs(4))
        assert batch.stats.backend == "counting"
        assert backend.executed == 4
        serial = BatchEngine(backend="serial").run(_jobs(4))
        assert [r.signature() for r in batch.results] == \
            [r.signature() for r in serial.results]

    def test_single_job_inlines_unless_opted_out(self):
        from repro.engine.runner import ThreadBackend

        class RecordingThreadBackend(ThreadBackend):
            def __init__(self):
                self.calls = 0

            def execute(self, prepared, engine):
                self.calls += 1
                yield from super().execute(prepared, engine)

        backend = RecordingThreadBackend()
        BatchEngine(backend=backend).run(_jobs(1))
        # One miss inlines onto the calling thread: pool setup would
        # cost more than it buys.
        assert backend.calls == 0
        backend.inline_single = False
        BatchEngine(backend=backend).run(_jobs(1))
        assert backend.calls == 1
