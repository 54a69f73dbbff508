"""The static taint pre-screen: closure soundness, certificates,
engine screening, the `taint` analysis kind, and the hypothesis
property pinning the soundness contract (taint-clear => the exact
disclosure analyzer reports zero risk events)."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudies import (
    build_surgery_system,
    surgery_patient,
    tighten_administrator_policy,
)
from repro.consent import UserProfile
from repro.core import GenerationOptions
from repro.core.risk import DisclosureRiskAnalyzer
from repro.dfd import SystemBuilder, diff_models
from repro.engine import (
    AnalysisJob,
    BatchEngine,
    FleetReport,
    ScenarioGenerator,
    get_kind,
    model_fingerprint,
    scenario_jobs,
)
from repro.taint import (
    TaintCertificate,
    build_certificate,
    certificate_from_report,
    compute_taint,
    content_universe,
)

#: The soundness property runs deeper in CI (the acceptance bar is
#: >= 200 examples) and lighter on a developer loop.
SOUNDNESS_EXAMPLES = int(os.environ.get(
    "TAINT_SOUNDNESS_EXAMPLES",
    "200" if os.environ.get("CI") else "60"))


def _options(system, user):
    return DisclosureRiskAnalyzer.default_options(system, user)


def _chain():
    """User -> A -> D -> B: everything B has arrives through D."""
    return (SystemBuilder("chain")
            .schema("S", ["a", "b"])
            .actor("A").actor("B")
            .datastore("D", "S")
            .service("svc")
            .flow(1, "User", "A", ["a", "b"])
            .flow(2, "A", "D", ["a"])
            .flow(3, "D", "B", ["a"])
            .allow("A", "create", "D", ["a"])
            .allow("B", "read", "D", ["a"])
            .build())


class TestContentUniverse:
    def test_schema_fields(self):
        universe = content_universe(_chain())
        assert universe["D"] == frozenset({"a", "b"})

    def test_extra_inbound_fields_extend_the_universe(self):
        system = (SystemBuilder("extra")
                  .schema("S", ["a"])
                  .actor("A")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "User", "A", ["a"])
                  .flow(2, "A", "D", ["a", "offschema"])
                  .build(validate=False))
        assert content_universe(system)["D"] == \
            frozenset({"a", "offschema"})


class TestClosure:
    def test_chain_reaches_through_the_store(self):
        report = compute_taint(_chain())
        assert report.reaches("a", "A")
        assert report.reaches("a", "B")
        assert ("D", "a") in report.content_atoms

    def test_unforwarded_field_never_reaches(self):
        report = compute_taint(_chain())
        # `b` stops at A: the A->D flow only carries `a`.
        assert report.reaches("b", "A")
        assert not report.reaches("b", "B")
        assert ("b", "B") in report.unreachable_pairs()

    def test_user_trivially_reaches_everything(self):
        report = compute_taint(_chain())
        assert report.reaches("a", "User")
        assert report.reaches("b", "User")

    def test_flow_reads_are_risk_surface(self):
        report = compute_taint(_chain())
        assert report.flow_read_fields["B"] == frozenset({"a"})
        assert "B" in report.flagged_actors()
        assert not report.clean_for(("B",))
        assert report.clean_for(())

    def test_witness_path_explains_the_derivation(self):
        report = compute_taint(_chain())
        path = report.witness_path("a", "B")
        assert path
        assert any("reads" in step for step in path)
        assert report.witness_path("b", "B") == ()

    def test_potential_reads_feed_back_into_the_fixpoint(self):
        """An actor whose only inbound path is a policy read still
        propagates onward — the closure must not treat potential
        reads as terminal."""
        system = (SystemBuilder("feedback")
                  .schema("S", ["a"])
                  .actor("A").actor("Reader").actor("Sink")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "User", "A", ["a"])
                  .flow(2, "A", "D", ["a"])
                  .flow(3, "Reader", "Sink", ["a"])
                  .allow("A", "create", "D", ["a"])
                  .allow("Reader", "read", "D", ["a"])
                  .build())
        options = GenerationOptions(
            include_potential_reads=True,
            potential_read_actors=frozenset({"Reader", "Sink"}))
        report = compute_taint(system, options)
        assert report.reaches("a", "Reader")
        assert report.reaches("a", "Sink")

    def test_originated_fields_materialise_on_firing(self):
        system = (SystemBuilder("orig")
                  .schema("S", ["a", "verdict"])
                  .actor("A", originates=["verdict"])
                  .actor("B")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "User", "A", ["a"])
                  .flow(2, "A", "B", ["verdict"])
                  .build())
        report = compute_taint(system)
        assert report.reaches("verdict", "A")
        assert report.reaches("verdict", "B")

    def test_pseudonymisation_renames_into_anonymised_stores(self):
        system = (SystemBuilder("anon")
                  .schema("S", ["a"])
                  .anonymised_schema("SAnon", "S", ["a"])
                  .actor("A").actor("B")
                  .datastore("D", "SAnon", anonymised=True)
                  .service("svc")
                  .flow(1, "User", "A", ["a"])
                  .flow(2, "A", "D", ["a"])
                  .flow(3, "D", "B", ["a_anon"])
                  .allow("A", "create", "D")
                  .build())
        report = compute_taint(system)
        assert ("D", "a_anon") in report.content_atoms
        assert ("D", "a") not in report.content_atoms
        # B reads only the pseudonymised variant.
        assert report.reaches("a_anon", "B")
        assert not report.reaches("a", "B")

    def test_never_ready_store_read_is_dropped(self):
        """A store->actor flow demanding a field outside the store's
        content universe can never fire (mirrors never_ready)."""
        system = (SystemBuilder("neverready")
                  .schema("S", ["a"])
                  .actor("A").actor("B")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "User", "A", ["a"])
                  .flow(2, "A", "D", ["a"])
                  .flow(3, "D", "B", ["ghost"])
                  .allow("A", "create", "D", ["a"])
                  .build(validate=False))
        report = compute_taint(system)
        assert not report.blockers
        assert "B" not in report.flow_read_fields
        assert not report.reaches("ghost", "B")

    def test_unknown_service_is_a_blocker(self):
        report = compute_taint(
            _chain(), GenerationOptions(services=("nope",)))
        assert report.blockers
        assert not report.clean_for(())
        # Blockers poison every impossibility claim.
        assert report.reaches("b", "B")
        assert report.unreachable_pairs() == ()

    def test_empty_flow_selection_is_a_blocker(self):
        report = compute_taint(
            _chain(), GenerationOptions(services=()))
        assert report.blockers

    def test_invalid_initial_contents_is_a_blocker(self):
        report = compute_taint(_chain(), GenerationOptions(
            initial_store_contents={"D": ("ghost",)}))
        assert report.blockers

    def test_initial_contents_seed_the_closure(self):
        system = (SystemBuilder("seeded")
                  .schema("S", ["a"])
                  .actor("B")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "D", "B", ["a"])
                  .build(validate=False))
        empty = compute_taint(system)
        assert not empty.reaches("a", "B")
        seeded = compute_taint(system, GenerationOptions(
            initial_store_contents={"D": ("a",)}))
        assert seeded.reaches("a", "B")

    def test_surgery_flags_exactly_the_paper_actors(self):
        system = build_surgery_system()
        user = surgery_patient()
        report = compute_taint(system, _options(system, user))
        non_allowed = tuple(sorted(user.non_allowed_actors(system)))
        assert not report.clean_for(non_allowed)
        assert "Administrator" in report.flagged_actors()

    def test_tightened_surgery_still_flags_administrator(self):
        """IV.A remediation drops the risk level, not the read grants
        on every field — the screen must keep flagging."""
        system = tighten_administrator_policy(build_surgery_system())
        user = surgery_patient()
        report = compute_taint(system, _options(system, user))
        non_allowed = tuple(sorted(user.non_allowed_actors(system)))
        assert not report.clean_for(non_allowed)


class TestCertificate:
    def test_distils_the_report_verdicts(self):
        system = _chain()
        report = compute_taint(system)
        certificate = certificate_from_report(report, system)
        assert certificate.clean_for(()) == report.clean_for(())
        assert certificate.clean_for(("B",)) == \
            report.clean_for(("B",))
        assert certificate.flagged_actors() == \
            report.flagged_actors()
        assert ("D", "a") in certificate.tracked_atoms
        assert ("D", "b") not in certificate.tracked_atoms

    def test_fingerprint_is_deterministic_and_content_bound(self):
        one = build_certificate(_chain())
        two = build_certificate(_chain())
        assert one.fingerprint() == two.fingerprint()
        rebound = one.rebind("other-model-fp")
        assert rebound.model_fp == "other-model-fp"
        assert rebound.tracked_atoms == one.tracked_atoms
        assert rebound.fingerprint() != one.fingerprint()

    def test_describe_names_the_verdict(self):
        assert "clean" in build_certificate(
            (SystemBuilder("quiet").schema("S", ["a"]).actor("A")
             .datastore("D", "S").service("svc")
             .flow(1, "User", "A", ["a"]).build()),
        ).describe()
        assert "flags" in build_certificate(_chain()).describe()

    # -- survives_acl_change ---------------------------------------------------

    def _cert(self):
        return build_certificate(_chain())

    def test_untracked_read_grant_survives(self):
        """The precision fix: a read grant on a field taint never
        stores cannot create a READ event."""
        after = _chain()
        after.policy.allow("B", "read", "D", ["b"])
        diff = diff_models(_chain(), after)
        assert self._cert().survives_acl_change(diff)

    def test_tracked_read_grant_invalidates(self):
        after = _chain()
        after.policy.allow("B", "read", "D", ["a"])
        # grant keys dedupe against the existing B-read-a grant; use a
        # new subject so the atom actually appears in the diff
        after.policy.allow("Eve", "read", "D", ["a"])
        diff = diff_models(_chain(), after)
        assert any(g.field == "a" for g in diff.added_grants)
        assert not self._cert().survives_acl_change(diff)

    def test_wildcard_grant_on_tracked_store_invalidates(self):
        certificate = self._cert()
        assert certificate.survives_acl_change(diff_models(
            _chain(), _chain()))
        # A wildcard over a store holding tracked atoms may cover them.
        from repro.dfd.diff import GrantKey
        from repro.dfd.diff import ModelDiff
        diff = ModelDiff(added_grants=(
            GrantKey("Eve", "D", "read", "*"),))
        assert not certificate.survives_acl_change(diff)

    def test_nonschema_tracked_store_always_invalidates(self):
        """covers() matches wildcard entries against *any* field, but
        grant keys expand against the schema only — a store tracked
        outside its schema must refuse every read-grant addition."""
        system = (SystemBuilder("offschema")
                  .schema("S", ["a"])
                  .actor("A").actor("B")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "User", "A", ["a", "ghost"])
                  .flow(2, "A", "D", ["ghost"])
                  .build(validate=False))
        certificate = build_certificate(system)
        assert "D" in certificate.nonschema_tracked_stores
        from repro.dfd.diff import GrantKey, ModelDiff
        diff = ModelDiff(added_grants=(
            GrantKey("B", "D", "read", "a"),))
        assert not certificate.survives_acl_change(diff)

    def test_grant_removal_survives(self):
        after = _chain()
        from repro.access import Permission
        after.policy.revoke("B", Permission.READ, "D", fields=["a"],
                            store_fields=["a", "b"])
        diff = diff_models(_chain(), after)
        assert diff.removed_grants
        assert self._cert().survives_acl_change(diff)

    def test_non_read_grant_survives(self):
        after = _chain()
        after.policy.allow("B", "create", "D", ["a"])
        diff = diff_models(_chain(), after)
        assert self._cert().survives_acl_change(diff)

    def test_structural_change_invalidates(self):
        after = (SystemBuilder("chain")
                 .schema("S", ["a", "b"])
                 .actor("A").actor("B").actor("C")
                 .datastore("D", "S")
                 .service("svc")
                 .flow(1, "User", "A", ["a", "b"])
                 .flow(2, "A", "D", ["a"])
                 .flow(3, "D", "B", ["a"])
                 .allow("A", "create", "D", ["a"])
                 .allow("B", "read", "D", ["a"])
                 .build())
        diff = diff_models(_chain(), after)
        assert diff.structural_change
        assert not self._cert().survives_acl_change(diff)


class TestEngineScreen:
    def _jobs(self, count=16, seed=3):
        return scenario_jobs(
            ScenarioGenerator(seed=seed).generate(count))

    def test_screen_skips_clean_jobs(self):
        jobs = self._jobs()
        batch = BatchEngine(backend="serial").run(jobs, screen=True)
        assert batch.stats.screened > 0
        assert batch.stats.screen_flagged > 0
        assert batch.stats.executed == batch.stats.jobs - \
            batch.stats.screened - batch.stats.deduplicated
        assert len(batch.results) == len(jobs)

    def test_screened_results_match_exact_runs(self):
        """The acceptance contract: screened jobs are zero-event in
        the exact run; non-skipped jobs have byte-identical
        signatures."""
        jobs = self._jobs()
        plain = BatchEngine(backend="serial").run(jobs)
        screened = BatchEngine(backend="serial").run(jobs, screen=True)
        exact = {r.fingerprint: r for r in plain.results}
        skipped = 0
        for result in screened.results:
            twin = exact[result.fingerprint]
            if result.detail("screened"):
                skipped += 1
                assert twin.max_level == "none"
                assert twin.events == ()
                assert result.max_level == "none"
                assert result.non_allowed_actors == \
                    twin.non_allowed_actors
                assert not result.lts_generated
            else:
                assert repr(result.signature()) == \
                    repr(twin.signature())
        assert skipped == screened.stats.screened > 0

    def test_screen_reduces_lts_generations(self):
        jobs = self._jobs()
        plain = BatchEngine(backend="serial").run(jobs)
        screened = BatchEngine(backend="serial").run(jobs, screen=True)
        assert screened.stats.lts_generations < \
            plain.stats.lts_generations

    def test_screened_results_never_poison_the_result_cache(self):
        """An unscreened run after a screened one must compute exact
        answers, not be served screened stand-ins."""
        engine = BatchEngine(backend="serial")
        jobs = self._jobs(count=6)
        first = engine.run(jobs, screen=True)
        assert first.stats.screened > 0
        second = engine.run(jobs)
        assert all(not r.detail("screened") for r in second.results)
        # Exactly the screened jobs miss the warm result cache.
        assert second.stats.result_hits == \
            len(jobs) - first.stats.screened

    def test_result_cache_hits_win_over_the_screen(self):
        engine = BatchEngine(backend="serial")
        jobs = self._jobs(count=6)
        engine.run(jobs)
        warm = engine.run(jobs, screen=True)
        assert warm.stats.screened == 0
        assert warm.stats.result_hits == len(jobs)

    def test_certificates_come_from_the_taint_cache_when_warm(self):
        engine = BatchEngine(backend="serial")
        job = self._jobs(count=1)[0]
        cold = engine.screen_certificate(job)
        before_hits = engine.taint_cache.stats.hits
        warm = engine.screen_certificate(job)
        assert engine.taint_cache.stats.hits > before_hits
        assert warm.fingerprint() == cold.fingerprint()

    def test_user_without_agreed_services_is_never_skipped(self):
        """Exact analysis raises for such users; the screen must
        preserve the raise, not convert it into a silent clean
        verdict."""
        from repro.errors import ReproError
        system = _chain()
        job = AnalysisJob(system=system,
                          user=UserProfile("u", agreed_services=[]))
        engine = BatchEngine(backend="serial")
        with pytest.raises(ReproError) as plain:
            engine.run([job])
        with pytest.raises(ReproError) as screened:
            engine.run([job], screen=True)
        assert str(screened.value) == str(plain.value)

    def test_screen_only_touches_screenable_kinds(self):
        system = build_surgery_system()
        jobs = [AnalysisJob(system=system, user=surgery_patient(),
                            kind="pseudonym")]
        batch = BatchEngine(backend="serial").run(jobs, screen=True)
        assert batch.stats.screened == 0
        assert batch.stats.screen_flagged == 0

    def test_stats_describe_reports_screen_counters(self):
        batch = BatchEngine(backend="serial").run(
            self._jobs(count=8), screen=True)
        assert "taint screen" in batch.stats.describe()
        plain = BatchEngine(backend="serial").run(self._jobs(count=2))
        assert "taint screen" not in plain.stats.describe()

    def test_fleet_report_rolls_up_screened_counts(self):
        batch = BatchEngine(backend="serial").run(
            self._jobs(), screen=True)
        report = FleetReport(batch.results, batch.stats)
        rollup = report.kind_rollups()["disclosure"]
        assert rollup["screened"] == batch.stats.screened


class TestTaintKind:
    def test_registered_and_screenable_flags(self):
        taint = get_kind("taint")
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient(), kind="taint")
        from repro.core import LtsSource
        from repro.engine import AnalyzerConfig, model_fingerprint

        class NoLts(LtsSource):
            model_fp = model_fingerprint(job.system)

            def lts_for(self, system, options):
                raise AssertionError("the taint kind reads no LTS")

        assert taint.analyse(job, NoLts(), AnalyzerConfig.build()) \
            .lts is None
        assert not taint.screenable
        assert get_kind("disclosure").screenable
        assert not get_kind("pseudonym").screenable

    def test_taint_jobs_reuse_the_runners_model_hash(self,
                                                      monkeypatch):
        """The runner hashes each model once per run, and taint jobs
        read that hash from their LTS source instead of hashing the
        model again."""
        from repro.engine import fingerprint, runner
        original = fingerprint.model_fingerprint
        calls = []

        def counting(system):
            calls.append(system)
            return original(system)

        monkeypatch.setattr(fingerprint, "model_fingerprint", counting)
        monkeypatch.setattr(runner, "model_fingerprint", counting)
        system = build_surgery_system()
        jobs = [AnalysisJob(system=system,
                            user=surgery_patient(f"p{i}"), kind="taint")
                for i in range(3)]
        batch = BatchEngine(backend="serial").run(jobs)
        assert batch.stats.executed == 3
        assert len(calls) == 1

    def test_taint_kind_runs_through_the_engine(self):
        system = build_surgery_system()
        job = AnalysisJob(system=system, user=surgery_patient(),
                          kind="taint")
        batch = BatchEngine(backend="serial").run([job])
        result = batch.results[0]
        assert result.kind == "taint"
        assert result.states == 0
        assert not result.lts_generated
        assert result.detail("clean") is False
        assert result.detail("certificate")
        assert result.max_level == "low"

    def test_taint_kind_clean_verdict(self):
        system = (SystemBuilder("quiet")
                  .schema("S", ["a"])
                  .actor("A")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "User", "A", ["a"])
                  .build())
        job = AnalysisJob(
            system=system,
            user=UserProfile("u", agreed_services=["svc"]),
            kind="taint")
        result = BatchEngine(backend="serial").run([job]).results[0]
        assert result.detail("clean") is True
        assert result.max_level == "none"
        assert result.events == ()

    def test_taint_verdict_agrees_with_exact_analysis(self):
        system = build_surgery_system()
        user = surgery_patient()
        taint_result = BatchEngine(backend="serial").run(
            [AnalysisJob(system=system, user=user, kind="taint")]
        ).results[0]
        exact = DisclosureRiskAnalyzer(system).analyse(user)
        assert taint_result.detail("clean") == \
            (len(exact.events) == 0)


class TestSoundnessProperty:
    """The screen's contract, pinned over randomized scenario fleets:
    every pair the closure marks unreachable is absent from the exact
    analysis, and taint-clear models are exactly zero-event."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           pick=st.integers(min_value=0, max_value=3),
           extra_grant=st.booleans())
    @settings(max_examples=SOUNDNESS_EXAMPLES, deadline=None)
    def test_taint_clear_implies_zero_exact_events(
            self, seed, pick, extra_grant):
        scenarios = ScenarioGenerator(seed=seed).generate(4)
        scenario = scenarios[pick % len(scenarios)]
        system = scenario.system
        if extra_grant and system.datastores and system.actors:
            # Randomly widen the policy: the screen must track it.
            store_name = sorted(system.datastores)[seed %
                                                   len(system.datastores)]
            actor_name = sorted(system.actors)[seed %
                                               len(system.actors)]
            fields = sorted(
                system.datastores[store_name].field_names())
            if fields:
                system.policy.allow(
                    actor_name, "read", store_name,
                    [fields[seed % len(fields)]])
        for job in scenario.jobs("disclosure"):
            user = job.user
            if not user.agreed_services:
                continue
            options = _options(system, user)
            report = compute_taint(system, options)
            non_allowed = tuple(sorted(
                user.non_allowed_actors(system)))
            exact = DisclosureRiskAnalyzer(system).analyse(user)
            if report.clean_for(non_allowed):
                assert exact.events == (), (
                    f"screen declared {system.name!r} clean for "
                    f"{user.name!r} but exact analysis found "
                    f"{len(exact.events)} events")
            # The stronger per-pair direction: every exact event's
            # (field, actor) is reachable in the closure.
            for event in exact.events:
                for field_name in event.fields:
                    assert report.reaches(field_name, event.actor), (
                        f"exact event {event.actor}/{field_name} "
                        f"missing from the closure on {system.name!r}")
