"""Diff-driven incremental re-analysis: stage classification,
LTS re-seeding, and the cold-vs-incremental acceptance contract."""

import pytest

from repro.casestudies import (
    build_loyalty_system,
    build_surgery_system,
    loyalty_member,
    surgery_patient,
    tighten_administrator_policy,
)
from repro.core import GenerationOptions
from repro.engine import (
    INVALIDATES_ANALYZERS,
    INVALIDATES_EVERYTHING,
    INVALIDATES_NOTHING,
    AnalysisJob,
    BatchEngine,
    certificate_survives,
    classify_invalidation,
    get_kind,
    reanalyze,
    taint_stage_key,
)
from repro.taint import TaintCertificate, build_certificate


def _create_grant_edit():
    """An ACL-only edit outside the generator's policy view: a create
    grant (generation never consults can_create)."""
    after = build_surgery_system()
    after.policy.allow("Nurse", "create", "AnonEHR")
    return after


class TestClassification:
    def test_identical_models_invalidate_nothing(self):
        plan = classify_invalidation(build_surgery_system(),
                                     build_surgery_system())
        assert plan.level == INVALIDATES_NOTHING
        assert plan.before_fp == plan.after_fp

    def test_description_only_change_invalidates_nothing(self):
        from repro.dfd import system_from_dict, system_to_dict
        data = system_to_dict(build_surgery_system())
        data["actors"][0]["description"] = "now with a biography"
        after = system_from_dict(data)
        plan = classify_invalidation(build_surgery_system(), after)
        assert plan.level == INVALIDATES_NOTHING

    def test_create_grant_edit_reuses_the_lts(self):
        plan = classify_invalidation(build_surgery_system(),
                                     _create_grant_edit())
        assert plan.level == INVALIDATES_ANALYZERS
        assert plan.reuses_lts
        assert plan.delete_safe
        assert plan.diff.acl_only

    def test_read_grant_edit_invalidates_the_lts(self):
        """The generator derives could() and potential reads from read
        grants — the IV.A remediation must regenerate."""
        plan = classify_invalidation(
            build_surgery_system(),
            tighten_administrator_policy(build_surgery_system()))
        assert plan.level == INVALIDATES_EVERYTHING
        assert "read grants" in plan.reason

    def test_structural_change_invalidates_everything(self):
        after = build_surgery_system()
        after.policy.allow("Nurse", "create", "Appointments")
        before = build_surgery_system()
        before_plus_actor = build_surgery_system()
        from repro.dfd.model import Actor
        before_plus_actor.actors["Contractor"] = Actor("Contractor")
        plan = classify_invalidation(build_surgery_system(),
                                     before_plus_actor)
        assert plan.level == INVALIDATES_EVERYTHING

    def test_schema_change_is_conservatively_full(self):
        """Schema edits are invisible to the structural diff; the
        classifier must not claim the LTS survives them."""
        from repro.dfd import system_to_dict, system_from_dict
        data = system_to_dict(build_surgery_system())
        for schema in data["schemas"]:
            for field in schema["fields"]:
                if field["name"] == "dob":
                    field["kind"] = "sensitive"
        after = system_from_dict(data)
        plan = classify_invalidation(build_surgery_system(), after)
        assert plan.diff.is_empty
        assert plan.level == INVALIDATES_EVERYTHING
        assert "outside the diff's view" in plan.reason

    def test_delete_grant_edit_bites_only_delete_generations(self):
        after = build_surgery_system()
        after.policy.allow("Receptionist", "delete", "Appointments")
        plan = classify_invalidation(build_surgery_system(), after)
        assert plan.level == INVALIDATES_ANALYZERS
        assert not plan.delete_safe
        plain = GenerationOptions()
        deleting = GenerationOptions(include_deletes=True)
        assert plan.level_for(plain) == INVALIDATES_ANALYZERS
        assert plan.level_for(deleting) == INVALIDATES_EVERYTHING

    def test_describe_names_level_and_diff(self):
        plan = classify_invalidation(build_surgery_system(),
                                     _create_grant_edit())
        text = plan.describe()
        assert "analyzers" in text
        assert "+ grant:" in text


class TestReanalyze:
    def _fleet(self, before):
        loyalty = build_loyalty_system()
        jobs = [AnalysisJob(system=before,
                            user=surgery_patient(f"p{i}"),
                            scenario=f"surgery#{i}", family="surgery")
                for i in range(3)]
        jobs.append(AnalysisJob(system=loyalty, user=loyalty_member(),
                                scenario="loyalty#0",
                                family="loyalty"))
        return jobs

    def test_acceptance_one_acl_edit_rerun(self):
        """The PR's acceptance bar: a one-ACL-edit re-analysis re-runs
        strictly fewer jobs than a cold run and produces byte-identical
        result signatures."""
        before = build_surgery_system()
        after = _create_grant_edit()
        engine = BatchEngine()
        jobs = self._fleet(before)
        engine.run(jobs)

        outcome = reanalyze(engine, before, after, jobs)
        cold = BatchEngine().run(self._fleet(after))

        assert cold.stats.executed == len(jobs)
        assert outcome.batch.stats.executed < cold.stats.executed
        incremental_sigs = [repr(r.signature()).encode()
                            for r in outcome.batch.results]
        cold_sigs = [repr(r.signature()).encode()
                     for r in cold.results]
        assert incremental_sigs == cold_sigs

    def test_lts_reuse_on_analyzer_level_edit(self):
        before = build_surgery_system()
        engine = BatchEngine()
        jobs = self._fleet(before)
        engine.run(jobs)
        outcome = reanalyze(engine, before, _create_grant_edit(), jobs)
        assert outcome.plan.reuses_lts
        assert outcome.lts_seeded >= 1
        assert outcome.batch.stats.lts_generations == 0
        # The unchanged loyalty job served straight from the cache.
        assert outcome.batch.stats.result_hits == 1
        assert outcome.retargeted == 3

    def test_reseeding_stores_the_identical_lts(self):
        """Re-seeding shares the frozen LTS under its new stage-2 key;
        nothing is copied."""
        from repro.engine import lts_stage_key, model_fingerprint
        before = build_surgery_system()
        after = _create_grant_edit()
        engine = BatchEngine()
        jobs = self._fleet(before)
        engine.run(jobs)
        options = get_kind(jobs[0].kind).options_of(jobs[0])
        seeded = engine.lts_cache.get(
            lts_stage_key(model_fingerprint(before), options))
        assert seeded is not None and seeded.frozen
        outcome = reanalyze(engine, before, after, jobs)
        assert outcome.lts_seeded == 1
        assert engine.lts_cache.get(
            lts_stage_key(model_fingerprint(after), options)) is seeded

    def test_read_edit_still_skips_unchanged_models(self):
        before = build_surgery_system()
        after = tighten_administrator_policy(build_surgery_system())
        engine = BatchEngine()
        jobs = self._fleet(before)
        engine.run(jobs)
        outcome = reanalyze(engine, before, after, jobs)
        assert not outcome.plan.reuses_lts
        assert outcome.lts_seeded == 0
        assert outcome.batch.stats.result_hits == 1
        assert outcome.batch.stats.lts_generations >= 1
        assert outcome.batch.stats.executed < len(jobs)

    def test_noop_edit_serves_everything_from_cache(self):
        before = build_surgery_system()
        after = build_surgery_system()
        after.services["MedicalService"].description = "reworded"
        engine = BatchEngine()
        jobs = self._fleet(before)
        engine.run(jobs)
        outcome = reanalyze(engine, before, after, jobs)
        assert outcome.batch.stats.executed == 0
        assert outcome.batch.stats.result_hits == len(jobs)

    def test_matches_by_content_not_object_identity(self):
        """Jobs referencing a *different object* with the same content
        as `before` still retarget."""
        engine = BatchEngine()
        jobs = self._fleet(build_surgery_system())
        engine.run(jobs)
        outcome = reanalyze(engine, build_surgery_system(),
                            _create_grant_edit(), jobs)
        assert outcome.retargeted == 3

    def test_cold_engine_degrades_to_plain_run(self):
        before = build_surgery_system()
        jobs = self._fleet(before)
        engine = BatchEngine()         # nothing cached
        outcome = reanalyze(engine, before, _create_grant_edit(), jobs)
        assert outcome.lts_seeded == 0
        assert outcome.batch.stats.executed == len(jobs)
        assert len(outcome.batch.results) == len(jobs)

    def test_reanalyze_through_disk_cache(self, tmp_path):
        """A fresh engine over the same cache_dir (a new process,
        operationally) still reuses the prior run's results. The LTS
        memo is in memory only, so it has nothing to re-seed and
        generates the shared key once."""
        cache_dir = str(tmp_path / "cache")
        before = build_surgery_system()
        jobs = self._fleet(before)
        BatchEngine(cache_dir=cache_dir).run(jobs)
        engine = BatchEngine(cache_dir=cache_dir)
        outcome = reanalyze(engine, before, _create_grant_edit(), jobs)
        assert outcome.lts_seeded == 0
        assert outcome.batch.stats.lts_generations == 1
        assert outcome.batch.stats.lts_reuses == \
            outcome.batch.stats.executed - 1
        assert outcome.batch.stats.result_hits == 1

    def test_mixed_kind_fleet_reanalyzes(self):
        before = build_surgery_system()
        jobs = [
            AnalysisJob(system=before, user=surgery_patient(),
                        kind=kind)
            for kind in ("disclosure", "pseudonym", "consent_change")
        ]
        engine = BatchEngine()
        engine.run(jobs)
        outcome = reanalyze(engine, before, _create_grant_edit(), jobs)
        assert outcome.retargeted == 3
        # Two distinct stage-2 keys re-seeded: disclosure's and
        # pseudonym's. consent_change's one side reads disclosure's key,
        # already seeded.
        assert outcome.lts_seeded == 2
        assert outcome.batch.stats.lts_generations == 0
        assert [r.kind for r in outcome.batch.results] == \
            ["disclosure", "pseudonym", "consent_change"]

    def test_source_kinds_reseed_every_declared_key(self, monkeypatch):
        """consent_change and population read several LTSs each; an
        analyzers-only edit re-seeds every key the first run generated,
        so the re-run generates nothing and matches a cold engine on
        the edit."""
        from repro.core import ModelGenerator
        before = build_surgery_system()
        jobs = [AnalysisJob(system=before, user=surgery_patient(),
                            kind=kind,
                            params={"count": 16, "seed": 3}
                            if kind == "population" else None)
                for kind in ("consent_change", "population")]
        generated = []
        original = ModelGenerator.generate

        def recording(self, options=None):
            generated.append(options.cache_key())
            return original(self, options)

        monkeypatch.setattr(ModelGenerator, "generate", recording)
        engine = BatchEngine()
        engine.run(jobs)
        warm_keys = set(generated)
        generated.clear()
        after = _create_grant_edit()
        outcome = reanalyze(engine, before, after, jobs)
        assert outcome.plan.level == INVALIDATES_ANALYZERS
        assert generated == []
        assert outcome.batch.stats.executed == len(jobs)
        assert outcome.batch.stats.lts_generations == 0
        assert outcome.batch.stats.lts_reuses == len(jobs)
        assert outcome.lts_seeded == len(warm_keys) > 2
        monkeypatch.undo()
        cold = BatchEngine().run(
            [AnalysisJob(system=after, user=job.user, kind=job.kind,
                         params=job.params) for job in jobs])
        assert [r.signature() for r in outcome.batch.results] == \
            [r.signature() for r in cold.results]

    def test_thread_workers_reseed_each_key_once(self, monkeypatch):
        """Thread workers racing for one key seed it once: the re-run
        on a thread engine generates nothing, puts each warm key under
        its new key once, and matches a cold serial engine on the
        edit."""
        import sys
        from repro.core import ModelGenerator
        before = build_surgery_system()
        jobs = [AnalysisJob(system=before, user=surgery_patient(f"p{i}"),
                            kind=kind,
                            params={"count": 12, "seed": i}
                            if kind == "population" else None)
                for i in range(3)
                for kind in ("disclosure", "consent_change",
                             "population")]
        generated = []
        original = ModelGenerator.generate

        def recording(self, options=None):
            generated.append(options.cache_key())
            return original(self, options)

        monkeypatch.setattr(ModelGenerator, "generate", recording)
        engine = BatchEngine(backend="thread", workers=4)
        engine.run(jobs)
        warm_keys = set(generated)
        generated.clear()
        after = _create_grant_edit()
        puts = engine.lts_cache.stats.puts
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcome = reanalyze(engine, before, after, jobs)
        finally:
            sys.setswitchinterval(interval)
        assert generated == []
        assert outcome.batch.stats.executed == len(jobs)
        assert outcome.lts_seeded == len(warm_keys)
        # Later reads of a seeded key hit it; they never seed again.
        assert engine.lts_cache.stats.puts - puts == outcome.lts_seeded
        monkeypatch.undo()
        cold = BatchEngine().run(
            [AnalysisJob(system=after, user=job.user, kind=job.kind,
                         params=job.params) for job in jobs])
        assert [r.signature() for r in outcome.batch.results] == \
            [r.signature() for r in cold.results]

    def test_population_is_simulated_once(self, monkeypatch):
        """Re-analysing a population job draws its users once: in the
        run, where the job's consent groups re-seed at first read."""
        from repro.engine import kinds
        before = build_surgery_system()
        job = AnalysisJob(system=before, user=surgery_patient(),
                          kind="population",
                          params={"count": 16, "seed": 3})
        engine = BatchEngine()
        engine.run([job])
        draws = []
        original = kinds.simulate_users

        def counting(*args, **kwargs):
            draws.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kinds, "simulate_users", counting)
        outcome = reanalyze(engine, before, _create_grant_edit(), [job])
        assert outcome.lts_seeded >= 1
        assert outcome.batch.stats.lts_generations == 0
        assert len(draws) == 1

    def test_process_backend_simulates_nothing_in_the_coordinator(
            self, monkeypatch):
        """Process workers keep their own memos, so a re-analysis on a
        process engine has nothing to re-seed: the coordinator never
        draws the population, and the answers match a cold run."""
        from repro.engine import kinds
        before = build_surgery_system()
        jobs = [AnalysisJob(system=before, user=surgery_patient(),
                            kind=kind,
                            params={"count": 1000, "seed": 5}
                            if kind == "population" else None)
                for kind in ("population", "disclosure")]
        engine = BatchEngine(backend="process", workers=2)
        draws = []
        original = kinds.simulate_users

        def counting(*args, **kwargs):
            draws.append(args)
            return original(*args, **kwargs)

        after = _create_grant_edit()
        try:
            engine.run(jobs)
            monkeypatch.setattr(kinds, "simulate_users", counting)
            outcome = reanalyze(engine, before, after, jobs)
        finally:
            engine.close()
        assert draws == []
        assert outcome.retargeted == len(jobs)
        assert outcome.lts_seeded == 0
        monkeypatch.undo()
        cold = BatchEngine(backend="serial").run(
            [AnalysisJob(system=after, user=job.user, kind=job.kind,
                         params=job.params) for job in jobs])
        assert [r.signature() for r in outcome.batch.results] == \
            [r.signature() for r in cold.results]

    def test_describe_summarises_the_run(self):
        before = build_surgery_system()
        engine = BatchEngine()
        jobs = self._fleet(before)
        engine.run(jobs)
        outcome = reanalyze(engine, before, _create_grant_edit(), jobs)
        text = outcome.describe()
        assert "retargeted" in text
        assert "re-seeded" in text


def _untracked_read_grant_edit():
    """A read grant on atoms the patient's taint closure never
    tracks: AnonEHR only fills through the research service, which
    the surgery patient never agreed to."""
    after = build_surgery_system()
    after.policy.allow("Nurse", "read", "AnonEHR", ["dob_anon"])
    return after


class TestCertificateSurvival:
    """The taint stage invalidates on reachability, not on the LTS's
    policy view — strictly more precise for ACL edits."""

    def _certificate(self, system=None):
        system = system or build_surgery_system()
        user = surgery_patient()
        from repro.core.risk import DisclosureRiskAnalyzer
        return build_certificate(
            system,
            DisclosureRiskAnalyzer.default_options(system, user))

    def test_nothing_level_always_survives(self):
        plan = classify_invalidation(build_surgery_system(),
                                     build_surgery_system())
        assert certificate_survives(plan, self._certificate())

    def test_untracked_read_grant_survives_the_full_invalidation(self):
        """The precision fix: the plan says `everything` (read grants
        moved), yet the certificate provably survives because the
        grant lands on atoms taint never reaches."""
        plan = classify_invalidation(build_surgery_system(),
                                     _untracked_read_grant_edit())
        assert plan.level == INVALIDATES_EVERYTHING
        assert plan.acl_only
        assert certificate_survives(plan, self._certificate())

    def test_tracked_read_grant_invalidates(self):
        after = build_surgery_system()
        after.policy.allow("Nurse", "read", "EHR", ["diagnosis"])
        plan = classify_invalidation(build_surgery_system(), after)
        assert plan.acl_only
        assert not certificate_survives(plan, self._certificate())

    def test_wildcard_grant_on_tracked_store_invalidates(self):
        after = build_surgery_system()
        after.policy.allow("Nurse", "read", "EHR")
        plan = classify_invalidation(build_surgery_system(), after)
        assert not certificate_survives(plan, self._certificate())

    def test_create_grant_edit_survives(self):
        plan = classify_invalidation(build_surgery_system(),
                                     _create_grant_edit())
        assert plan.level == INVALIDATES_ANALYZERS
        assert certificate_survives(plan, self._certificate())

    def test_grant_removal_survives(self):
        plan = classify_invalidation(
            build_surgery_system(),
            tighten_administrator_policy(build_surgery_system()))
        assert plan.level == INVALIDATES_EVERYTHING
        assert plan.acl_only
        assert certificate_survives(plan, self._certificate())

    def test_structural_change_never_survives(self):
        after = build_surgery_system()
        from repro.dfd.model import Actor
        after.actors["Contractor"] = Actor("Contractor")
        plan = classify_invalidation(build_surgery_system(), after)
        assert not plan.acl_only
        assert not certificate_survives(plan, self._certificate())


class TestReanalyzeTaintSeeding:
    def _jobs(self, before):
        return [AnalysisJob(system=before,
                            user=surgery_patient(f"p{i}"),
                            scenario=f"surgery#{i}", family="surgery")
                for i in range(3)]

    def test_surviving_certificate_reseeds_under_the_new_key(self):
        before = build_surgery_system()
        after = _untracked_read_grant_edit()
        engine = BatchEngine(backend="serial")
        jobs = self._jobs(before)
        engine.run(jobs, screen=True)
        outcome = reanalyze(engine, before, after, jobs, screen=True)
        assert outcome.taint_seeded == 1  # one (model, options) pair
        reseeded = engine.taint_cache.get(
            taint_stage_key(outcome.plan.after_fp,
                            get_kind(jobs[0].kind).options_of(jobs[0])))
        assert isinstance(reseeded, TaintCertificate)
        assert reseeded.model_fp == outcome.plan.after_fp
        assert "taint certificates" in outcome.describe()

    def test_invalidated_certificate_is_not_reseeded(self):
        before = build_surgery_system()
        after = build_surgery_system()
        after.policy.allow("Nurse", "read", "EHR", ["diagnosis"])
        engine = BatchEngine(backend="serial")
        jobs = self._jobs(before)
        engine.run(jobs, screen=True)
        outcome = reanalyze(engine, before, after, jobs, screen=True)
        assert outcome.taint_seeded == 0
        assert "taint certificates" not in outcome.describe()
        # The screened re-run recomputed a *fresh* certificate for the
        # edited model rather than reusing the stale one.
        fresh = engine.taint_cache.get(
            taint_stage_key(outcome.plan.after_fp,
                            get_kind(jobs[0].kind).options_of(jobs[0])))
        assert isinstance(fresh, TaintCertificate)
        assert fresh.model_fp == outcome.plan.after_fp

    def test_cold_taint_cache_degrades_gracefully(self):
        before = build_surgery_system()
        jobs = self._jobs(before)
        engine = BatchEngine(backend="serial")
        engine.run(jobs)  # unscreened: taint cache stays cold
        outcome = reanalyze(engine, before,
                            _untracked_read_grant_edit(), jobs)
        assert outcome.taint_seeded == 0
        assert len(outcome.batch.results) == len(jobs)
