"""The batch engine: backends, caching, dedup, ordering."""

import multiprocessing
import os
import signal
import sys
import time
from concurrent import futures

import pytest

from repro.casestudies import build_scaled_system, build_surgery_system
from repro.consent import UserProfile
from repro.core import GenerationOptions
from repro.core.risk import DisclosureRiskAnalyzer
from repro.engine import (
    AnalysisJob,
    BatchEngine,
    LRUCache,
    get_kind,
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
        engine = BatchEngine(backend=backend, workers=workers)
        try:
            parallel = engine.run(_jobs(6))
        finally:
            engine.close()
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


class TestProcessPool:
    """A process engine keeps one pool, and so its workers' LTS memos,
    across runs until ``close()``."""

    @staticmethod
    def _children():
        return {child.pid for child in multiprocessing.active_children()}

    @staticmethod
    def _round(number, system):
        # New users every round: result-cache misses on one LTS key.
        return [AnalysisJob(system=system,
                            user=_patient(f"r{number}-p{index}"))
                for index in range(4)]

    def test_memo_survives_successive_runs(self):
        before = self._children()
        system = build_surgery_system()
        engine = BatchEngine(backend="process", workers=2)
        try:
            batches = [engine.run(self._round(number, system))
                       for number in range(3)]
            assert self._children() - before
        finally:
            engine.close()
        assert all(batch.stats.executed == 4 for batch in batches)
        assert sum(batch.stats.lts_generations
                   for batch in batches) <= 2
        assert batches[-1].stats.lts_reuses == 4
        serial = BatchEngine(backend="serial")
        assert [[r.signature() for r in batch] for batch in batches] == \
            [[r.signature() for r in serial.run(
                self._round(number, system))] for number in range(3)]
        assert not self._children() - before

    def test_a_dead_worker_costs_one_run_not_the_engine(self):
        before = self._children()
        system = build_surgery_system()
        engine = BatchEngine(backend="process", workers=2)
        try:
            engine.run(self._round(0, system))
            victim = min(self._children() - before)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while victim in self._children() and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            assert victim not in self._children()
            time.sleep(0.1)
            with pytest.raises(futures.BrokenExecutor):
                engine.run(self._round(1, system))
            batch = engine.run(self._round(2, system))
        finally:
            engine.close()
        assert batch.stats.executed == 4
        assert not self._children() - before

    def test_close_is_idempotent_and_a_later_run_restarts(self):
        before = self._children()
        engine = BatchEngine(backend="process", workers=2)
        engine.close()
        try:
            batch = engine.run(self._round(0, build_surgery_system()))
            assert batch.stats.executed == 4
        finally:
            engine.close()
            engine.close()
        assert not self._children() - before


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
        options = get_kind(job.kind).options_of(job)
        assert options.services == ("MedicalService",)
        assert options.include_potential_reads
        assert options.potential_read_actors == \
            frozenset(job.user.non_allowed_actors(job.system))

    def test_explicit_options_win(self):
        explicit = GenerationOptions(ordering="sequence")
        job = AnalysisJob(system=build_surgery_system(),
                          user=_patient(), options=explicit)
        assert get_kind(job.kind).options_of(job) is explicit


class TestSharedLtsMemo:
    """The LTS memo holds one live, frozen LTS per stage-2 key: every
    job on that key analyses the same object, and the pseudonym kind,
    the only one that adds to an LTS, works on a fork."""

    @staticmethod
    def _research_engine(**kwargs):
        from repro.casestudies import (TABLE1_CLOSENESS_KG,
                                       table1_records)
        from repro.core.risk import ValueRiskPolicy
        return BatchEngine(
            value_policy=ValueRiskPolicy(
                "weight", closeness=TABLE1_CLOSENESS_KG,
                confidence=0.9),
            dataset=table1_records(),
            record_field_map={"age_anon": "age",
                              "height_anon": "height",
                              "weight_anon": "weight"},
            **kwargs)

    def test_jobs_on_one_key_share_the_memoised_lts(self, monkeypatch):
        from repro.engine import lts_cache_key
        kind_class = type(get_kind("disclosure"))
        analyse = kind_class.analyse
        seen = []

        def recording(self, job, source, config):
            outcome = analyse(self, job, source, config)
            seen.append(outcome.lts)
            return outcome

        monkeypatch.setattr(kind_class, "analyse", recording)
        system = build_surgery_system()
        jobs = [AnalysisJob(system=system, user=_patient(f"p{i}"))
                for i in range(2)]
        engine = BatchEngine(backend="serial")
        batch = engine.run(jobs)
        assert batch.stats.lts_generations == 1
        assert batch.stats.lts_reuses == 1
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0].frozen
        key = lts_cache_key(system,
                            get_kind(jobs[0].kind).options_of(jobs[0]))
        assert engine.lts_cache.get(key) is seen[0]

    def test_pseudonym_job_counts_its_fork(self):
        from repro.casestudies import build_research_system, \
            surgery_patient
        from repro.core import ModelGenerator
        from repro.core.lts import TransitionKind
        from repro.core.risk import PseudonymisationRiskAnalyzer
        from repro.engine import lts_cache_key
        engine = self._research_engine()
        system = build_research_system()
        job = AnalysisJob(system=system, user=surgery_patient(),
                          kind="pseudonym")
        options = get_kind(job.kind).options_of(job)
        result = engine.run([job]).results[0]

        memoised = engine.lts_cache.get(lts_cache_key(system, options))
        fresh = ModelGenerator(system).generate(options)
        assert (len(memoised), len(memoised.transitions)) == \
            (len(fresh), len(fresh.transitions))
        assert not memoised.transitions_of_kind(TransitionKind.RISK)

        by_hand = fresh.freeze().fork()
        risks = PseudonymisationRiskAnalyzer(
            system, engine.config.value_policy,
            dataset=engine.config.dataset,
            record_field_map=engine.config.field_map()).annotate(by_hand)
        assert risks and result.detail("risks") == len(risks)
        assert (result.states, result.transitions) == \
            (len(by_hand), len(by_hand.transitions))
        assert result.transitions > len(memoised.transitions)

        # A second job on the memoised key sees no injected transition.
        again = engine.run([AnalysisJob(
            system=system, user=surgery_patient("other"),
            kind="pseudonym")]).results[0]
        assert not again.lts_generated
        assert again.signature()[3:] == result.signature()[3:]
        assert (len(memoised), len(memoised.transitions)) == \
            (len(fresh), len(fresh.transitions))

    def test_thread_workers_share_lts_across_mixed_kinds(self):
        from repro.casestudies import build_research_system
        system = build_research_system()
        jobs = [AnalysisJob(system=system, kind=kind,
                            user=UserProfile(
                                f"u{i}", agreed_services=[service],
                                default_sensitivity=0.1 * (i + 1)))
                for i in range(4)
                for service in ("HealthCheckService", "ResearchService")
                for kind in ("disclosure", "pseudonym", "reidentify")]
        serial = self._research_engine(backend="serial").run(jobs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = self._research_engine(backend="thread",
                                             workers=8).run(jobs)
        finally:
            sys.setswitchinterval(interval)
        assert [r.signature() for r in threaded.results] == \
            [r.signature() for r in serial.results]
        assert threaded.stats.lts_reuses > 0

    def test_runner_holds_no_pickle(self):
        import inspect
        from repro.engine import runner
        assert "pickle" not in inspect.getsource(runner)


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
