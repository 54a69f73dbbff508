"""The analysis-kind registry: per-kind semantics, cache keys,
mixed-kind execution and fleet aggregation."""

import pytest

from repro.casestudies import (
    RESEARCH_SERVICE,
    TABLE1_CLOSENESS_KG,
    build_research_system,
    build_scaled_system,
    build_surgery_system,
    surgery_patient,
    table1_records,
)
from repro.consent import UserProfile
from repro.core.risk import (
    DisclosureRiskAnalyzer,
    LikelihoodModel,
    RiskMatrix,
    ValueRiskPolicy,
    analyse_consent_change,
)
from repro.core.risk.pseudonym import default_policy_for
from repro.engine import (
    KINDS,
    AnalysisJob,
    AnalyzerConfig,
    BatchEngine,
    FleetReport,
    get_kind,
    kind_names,
    register_kind,
)
from repro.engine.kinds import AnalysisKind, dataset_key

TABLE1_FIELD_MAP = {"age_anon": "age", "height_anon": "height",
                    "weight_anon": "weight"}


def _researcher_policy():
    return ValueRiskPolicy("weight", closeness=TABLE1_CLOSENESS_KG,
                           confidence=0.9)


class TestRegistry:
    def test_six_first_class_kinds(self):
        assert KINDS == ("disclosure", "pseudonym", "consent_change",
                         "reidentify", "population", "taint")
        assert set(kind_names()) == set(KINDS)

    def test_get_kind_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown analysis kind"):
            get_kind("dataflow")

    def test_register_requires_name(self):
        with pytest.raises(ValueError):
            register_kind(AnalysisKind())

    def test_analyzer_keys_are_kind_scoped(self):
        """Each key leads with the kind name, so two kinds can never
        collide in the result cache even for equal configs."""
        config = AnalyzerConfig.build()
        keys = {name: get_kind(name).analyzer_key(config)
                for name in KINDS}
        assert len({key[0] for key in keys.values()}) == len(KINDS)

    def test_disclosure_config_does_not_rekey_pseudonym(self):
        """The analyzer-stage key slices the config per kind: a
        likelihood tweak must not invalidate pseudonym results."""
        base = AnalyzerConfig.build()
        tweaked = AnalyzerConfig.build(
            likelihood=LikelihoodModel([]))
        assert get_kind("disclosure").analyzer_key(base) != \
            get_kind("disclosure").analyzer_key(tweaked)
        assert get_kind("pseudonym").analyzer_key(base) == \
            get_kind("pseudonym").analyzer_key(tweaked)

    def test_dataset_enters_scoring_kind_keys(self):
        with_data = AnalyzerConfig.build(dataset=table1_records())
        without = AnalyzerConfig.build()
        assert get_kind("reidentify").analyzer_key(with_data) != \
            get_kind("reidentify").analyzer_key(without)
        assert get_kind("pseudonym").analyzer_key(with_data) != \
            get_kind("pseudonym").analyzer_key(without)

    def test_dataset_key_is_order_insensitive(self):
        records = table1_records()
        assert dataset_key(records) == \
            dataset_key(tuple(reversed(records)))
        assert dataset_key(None) is None


class TestPseudonymKind:
    def test_matches_direct_analyzer_on_table1(self):
        system = build_research_system()
        engine = BatchEngine(
            value_policy=_researcher_policy(),
            dataset=table1_records(),
            record_field_map=TABLE1_FIELD_MAP)
        job = AnalysisJob(system=system, user=surgery_patient(),
                          kind="pseudonym")
        result = engine.run([job]).results[0]
        assert result.kind == "pseudonym"
        assert result.detail("applicable") is True
        assert result.detail("sensitive_field") == "weight"
        assert result.detail("risks") > 0
        assert result.detail("scored") == result.detail("risks")
        # Table I: reading more quasi-identifiers raises violations;
        # the LTS reaches {height}, {age} and {age, height}, so some
        # scored path must violate.
        assert result.detail("violations") > 0
        assert result.max_level in ("medium", "high")

    def test_unscored_without_dataset(self):
        job = AnalysisJob(system=build_research_system(),
                          user=surgery_patient(), kind="pseudonym")
        result = BatchEngine().run([job]).results[0]
        assert result.detail("applicable") is True
        assert result.detail("scored") == 0
        assert result.max_level == "low"

    def test_inapplicable_on_plain_model(self):
        """A model that pseudonymises nothing rolls up as a no-op,
        not an error — mixed fleets must survive it."""
        system = build_scaled_system(actors=3, fields=4, stores=1,
                                     pseudonymise=False)
        job = AnalysisJob(
            system=system,
            user=UserProfile("u", agreed_services=["Intake"]),
            kind="pseudonym")
        result = BatchEngine().run([job]).results[0]
        assert result.detail("applicable") is False
        assert result.max_level == "none"

    def test_default_policy_prefers_sensitive_field(self):
        policy = default_policy_for(build_research_system())
        assert policy.sensitive_field == "weight"
        assert default_policy_for(build_scaled_system(
            pseudonymise=False)) is None


class TestPseudonymScreen:
    """ROADMAP item-4 rung: the per-kind clean predicate — pseudonym
    jobs that are statically inapplicable skip LTS generation under
    ``run(screen=True)`` and roll up in ``screened_by_kind``."""

    def _inapplicable_job(self):
        system = build_scaled_system(actors=3, fields=4, stores=1,
                                     pseudonymise=False)
        return AnalysisJob(
            system=system,
            user=UserProfile("u", agreed_services=["Intake"]),
            kind="pseudonym")

    def test_screen_outcome_decides_inapplicable_without_lts(self):
        engine = BatchEngine()
        outcome = get_kind("pseudonym").screen_outcome(
            self._inapplicable_job(), engine.config)
        assert outcome is not None
        assert outcome.max_level == "none"
        assert dict(outcome.details)["applicable"] is False

    def test_screen_outcome_defers_when_applicable(self):
        engine = BatchEngine()
        job = AnalysisJob(system=build_research_system(),
                          user=surgery_patient(), kind="pseudonym")
        assert get_kind("pseudonym").screen_outcome(
            job, engine.config) is None

    def test_base_kind_never_screens_statically(self):
        engine = BatchEngine()
        assert AnalysisKind.screen_outcome(
            get_kind("disclosure"), self._inapplicable_job(),
            engine.config) is None

    def test_screened_run_skips_lts_and_counts_by_kind(self):
        engine = BatchEngine(backend="serial")
        batch = engine.run([self._inapplicable_job()], screen=True)
        assert batch.stats.screened == 1
        assert batch.stats.screened_by_kind == {"pseudonym": 1}
        assert batch.stats.lts_generations == 0
        assert batch.stats.executed == 0
        result = batch.results[0]
        assert result.detail("screened") is True
        assert result.detail("applicable") is False

    def test_screened_result_matches_exact_run(self):
        screened = BatchEngine(backend="serial").run(
            [self._inapplicable_job()], screen=True).results[0]
        exact = BatchEngine(backend="serial").run(
            [self._inapplicable_job()]).results[0]
        assert screened.max_level == exact.max_level == "none"
        assert screened.detail("applicable") == \
            exact.detail("applicable") is False

    def test_static_screens_never_poison_the_result_cache(self):
        engine = BatchEngine(backend="serial")
        engine.run([self._inapplicable_job()], screen=True)
        exact = engine.run([self._inapplicable_job()])
        assert exact.stats.result_hits == 0
        assert not exact.results[0].detail("screened")

    def test_applicable_jobs_still_run_exactly(self):
        job = AnalysisJob(system=build_research_system(),
                          user=surgery_patient(), kind="pseudonym")
        batch = BatchEngine(backend="serial").run([job], screen=True)
        assert batch.stats.screened_by_kind.get("pseudonym", 0) == 0
        assert batch.results[0].detail("applicable") is True

    def test_stats_describe_and_wire_round_trip(self):
        from repro.service.messages import (
            stats_from_dict,
            stats_to_dict,
        )
        engine = BatchEngine(backend="serial")
        stats = engine.run([self._inapplicable_job()],
                           screen=True).stats
        clone = stats_from_dict(stats_to_dict(stats))
        assert clone.screened_by_kind == {"pseudonym": 1}
        assert clone.linted == stats.linted
        assert clone.lint_reuses == stats.lint_reuses


class TestConsentChangeKind:
    def test_default_whatif_withdraws_first_agreed_service(self):
        system = build_surgery_system()
        user = surgery_patient()
        job = AnalysisJob(system=system, user=user,
                          kind="consent_change")
        result = BatchEngine().run([job]).results[0]
        assert result.detail("withdraw") == ("MedicalService",)
        report = analyse_consent_change(system, user,
                                        withdraw=["MedicalService"])
        assert result.detail("before_level") == \
            report.before_level.value
        assert result.max_level == report.after_level.value

    def test_explicit_params_drive_the_change(self):
        system = build_surgery_system()
        job = AnalysisJob(system=system, user=surgery_patient(),
                          kind="consent_change",
                          params={"agree": [RESEARCH_SERVICE]})
        result = BatchEngine().run([job]).results[0]
        assert result.detail("agree") == (RESEARCH_SERVICE,)
        assert result.detail("withdraw") == ()
        report = analyse_consent_change(system, surgery_patient(),
                                        agree=[RESEARCH_SERVICE])
        assert result.max_level == report.after_level.value
        assert result.detail("risk_increases") == \
            report.risk_increases

    def test_params_enter_cache_identity(self):
        engine = BatchEngine()
        base = AnalysisJob(system=build_surgery_system(),
                           user=surgery_patient(),
                           kind="consent_change")
        other = AnalysisJob(system=base.system, user=base.user,
                            kind="consent_change",
                            params={"agree": [RESEARCH_SERVICE]})
        assert engine.fingerprint(base) != engine.fingerprint(other)

    def test_params_order_does_not_fork_cache(self):
        engine = BatchEngine()
        system = build_surgery_system()
        first = AnalysisJob(
            system=system, user=surgery_patient(),
            kind="consent_change",
            params={"agree": [RESEARCH_SERVICE],
                    "withdraw": ["MedicalService"]})
        second = AnalysisJob(
            system=system, user=surgery_patient(),
            kind="consent_change",
            params={"withdraw": ["MedicalService"],
                    "agree": [RESEARCH_SERVICE]})
        assert engine.fingerprint(first) == engine.fingerprint(second)

    def test_reads_the_lts_memo_and_reports_no_states(self):
        """Withdrawing the only agreed service reads one LTS (the
        "before" side; the empty "after" side reads none): cold, the
        source generates it; warm (result-cache miss, memo hit), it is
        reused. Either way the job reports 0 states."""
        system = build_surgery_system()
        engine = BatchEngine()
        cold = engine.run([AnalysisJob(system=system,
                                       user=surgery_patient(),
                                       kind="consent_change")])
        assert (cold.stats.lts_generations, cold.stats.lts_reuses) == \
            (1, 0)
        assert cold.results[0].lts_generated
        warm = engine.run([AnalysisJob(
            system=system, user=surgery_patient(),
            kind="consent_change",
            params={"withdraw": ["MedicalService"]})])
        assert warm.stats.result_hits == 0
        assert (warm.stats.lts_generations, warm.stats.lts_reuses) == \
            (0, 1)
        assert not warm.results[0].lts_generated
        for result in (cold.results[0], warm.results[0]):
            assert (result.states, result.transitions) == (0, 0)


class TestReidentifyKind:
    def test_scores_table1_release(self):
        engine = BatchEngine(dataset=table1_records(),
                             record_field_map=TABLE1_FIELD_MAP)
        job = AnalysisJob(system=build_research_system(),
                          user=surgery_patient(), kind="reidentify")
        result = engine.run([job]).results[0]
        assert result.detail("scored") is True
        assert result.detail("findings") > 0
        # The release flows expose the sensitive value alongside the
        # quasi-identifiers, so the worst equivalence class is unique.
        assert result.detail("worst_risk") == pytest.approx(1.0)
        assert result.max_level == "high"

    def test_degrades_without_dataset(self):
        job = AnalysisJob(system=build_research_system(),
                          user=surgery_patient(), kind="reidentify")
        result = BatchEngine().run([job]).results[0]
        assert result.detail("scored") is False
        assert result.max_level == "none"


class TestPopulationKind:
    def test_population_outcome_shape(self):
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient(), kind="population",
                          params={"count": 8, "seed": 3})
        result = BatchEngine().run([job]).results[0]
        # The requesting patient joins the 8 simulated users; some
        # simulated personas may consent to nothing and be skipped.
        assert result.detail("analysed") + result.detail("skipped") == 9
        assert 0.0 <= result.detail("unacceptable_fraction") <= 1.0
        histogram = dict(result.detail("histogram"))
        assert sum(histogram.values()) == result.detail("analysed")
        assert result.max_level in ("none", "low", "medium", "high")

    def test_population_is_seed_deterministic(self):
        def run_once():
            job = AnalysisJob(system=build_surgery_system(),
                              user=surgery_patient(),
                              kind="population",
                              params={"count": 6, "seed": 7})
            return BatchEngine().run([job]).results[0].signature()
        assert run_once() == run_once()

    def test_population_params_enter_cache_identity(self):
        engine = BatchEngine()
        system = build_surgery_system()
        user = surgery_patient()
        fingerprints = {
            engine.fingerprint(AnalysisJob(
                system=system, user=user, kind="population",
                params=params))
            for params in ({"count": 4, "seed": 0},
                           {"count": 4, "seed": 1},
                           {"count": 5, "seed": 0})
        }
        assert len(fingerprints) == 3

    def test_hot_spots_name_actor_field_grants(self):
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient(), kind="population",
                          params={"count": 10, "seed": 1})
        result = BatchEngine().run([job]).results[0]
        spots = result.detail("hot_spots")
        assert spots, "surgery population should expose hot spots"
        for actor, field, count in spots:
            assert isinstance(actor, str) and isinstance(field, str)
            assert count >= 1
        counts = [count for _, _, count in spots]
        assert counts == sorted(counts, reverse=True)

    def test_bad_params_are_analysis_errors(self):
        from repro.errors import AnalysisError
        kind = get_kind("population")
        with pytest.raises(AnalysisError, match="population count"):
            kind.population_of(AnalysisJob(
                system=build_surgery_system(),
                user=surgery_patient(), kind="population",
                params={"count": -1}))
        with pytest.raises(AnalysisError, match="population count"):
            # Params are wire-reachable: one request must not buy an
            # unbounded simulation.
            kind.population_of(AnalysisJob(
                system=build_surgery_system(),
                user=surgery_patient(), kind="population",
                params={"count": kind.MAX_COUNT + 1}))
        with pytest.raises(AnalysisError, match="population seed"):
            kind.population_of(AnalysisJob(
                system=build_surgery_system(),
                user=surgery_patient(), kind="population",
                params={"seed": "xyz"}))

    def test_results_carry_score_breakdowns(self):
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient(), kind="population",
                          params={"count": 6, "seed": 2})
        result = BatchEngine().run([job]).results[0]
        assert 0.0 <= result.detail("privacy_score") <= 1.0
        assert dict(result.detail("score_weights")) == {
            "semantic": 0.5, "uniqueness": 0.3, "linkability": 0.2}
        fields = result.detail("field_scores")
        assert [name for name, *_ in fields] == \
            sorted(build_surgery_system().personal_fields())
        for _, semantic, uniqueness, linkability, composite in fields:
            for sub in (semantic, uniqueness, linkability, composite):
                assert 0.0 <= sub <= 1.0

    def test_weight_params_change_score_not_outcomes(self):
        def run(params):
            job = AnalysisJob(system=build_surgery_system(),
                              user=surgery_patient(),
                              kind="population", params=params)
            return BatchEngine().run([job]).results[0]
        base = run({"count": 6, "seed": 2})
        tilted = run({"count": 6, "seed": 2,
                      "weights": {"linkability": 1.0,
                                  "semantic": 0.0,
                                  "uniqueness": 0.0}})
        assert tilted.detail("histogram") == base.detail("histogram")
        assert tilted.detail("privacy_score") != \
            base.detail("privacy_score")
        assert tilted.fingerprint != base.fingerprint

    def test_bad_weight_params_are_analysis_errors(self):
        from repro.errors import AnalysisError
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient(), kind="population",
                          params={"count": 2,
                                  "weights": {"semantic": -1}})
        with pytest.raises(AnalysisError, match="non-negative"):
            get_kind("population").analyse(
                job, None, AnalyzerConfig.build())

    def test_fleet_rollup_surfaces_skipped_and_mean_score(self):
        jobs = [AnalysisJob(system=build_surgery_system(),
                            user=surgery_patient(), kind="population",
                            params={"count": 12, "seed": seed},
                            scenario=f"s{seed}")
                for seed in (0, 1)]
        batch = BatchEngine().run(jobs)
        rollup = FleetReport(batch.results,
                             batch.stats).kind_rollups()["population"]
        assert rollup["skipped"] == sum(
            r.detail("skipped") for r in batch.results)
        assert rollup["users"] + rollup["skipped"] == 2 * (12 + 1)
        assert rollup["mean_privacy_score"] == pytest.approx(sum(
            r.detail("privacy_score")
            for r in batch.results) / 2, abs=1e-6)


class TestMixedFleets:
    def _jobs(self):
        system = build_surgery_system()
        user = surgery_patient()
        return [AnalysisJob(system=system, user=user, kind=kind,
                            scenario=f"s-{kind}", family="surgery")
                for kind in KINDS]

    def test_mixed_batch_executes_every_kind(self):
        batch = BatchEngine().run(self._jobs())
        assert [r.kind for r in batch.results] == list(KINDS)
        assert batch.stats.by_kind == {kind: 1 for kind in KINDS}

    def test_kinds_share_the_lts_memo_when_options_agree(self):
        """pseudonym and reidentify both generate over all services:
        one generation, one stage-2 reuse."""
        system = build_research_system()
        user = surgery_patient()
        jobs = [AnalysisJob(system=system, user=user, kind=kind)
                for kind in ("pseudonym", "reidentify")]
        batch = BatchEngine().run(jobs)
        assert batch.stats.lts_generations == 1
        assert batch.stats.lts_reuses == 1

    @pytest.mark.parametrize("backend,workers", [
        ("thread", 4),
        ("process", 2),
    ])
    def test_parallel_mixed_batch_matches_serial(self, backend,
                                                 workers):
        serial = BatchEngine(backend="serial").run(self._jobs())
        engine = BatchEngine(backend=backend, workers=workers)
        try:
            parallel = engine.run(self._jobs())
        finally:
            engine.close()
        assert [r.signature() for r in serial.results] == \
            [r.signature() for r in parallel.results]

    def test_mixed_results_are_cacheable(self):
        engine = BatchEngine()
        engine.run(self._jobs())
        warm = engine.run(self._jobs())
        assert warm.stats.result_hits == len(KINDS)
        assert warm.stats.executed == 0

    def test_fleet_report_rolls_up_by_kind(self):
        batch = BatchEngine().run(self._jobs())
        report = FleetReport(batch.results, batch.stats)
        assert report.kind_histogram() == {kind: 1 for kind in KINDS}
        rollups = report.kind_rollups()
        assert set(rollups) == set(KINDS)
        assert rollups["disclosure"]["events"] > 0
        assert "risk_increases" in rollups["consent_change"]
        assert "violations" in rollups["pseudonym"]
        assert "findings" in rollups["reidentify"]
        assert rollups["population"]["users"] > 0
        data = report.to_dict()
        assert data["kind_histogram"] == report.kind_histogram()
        assert "analysis kinds:" in report.describe()


def _keys_read(jobs):
    """The ``options.cache_key()`` of every LTS the jobs' kinds read,
    found by running each kind outside the engine."""
    from repro.core import LocalLtsSource
    config = AnalyzerConfig.build()
    keys = set()

    class Recording(LocalLtsSource):
        def lts_for(self, system, options):
            keys.add(options.cache_key())
            return super().lts_for(system, options)

    for job in jobs:
        get_kind(job.kind).analyse(job, Recording(), config)
    return keys


class TestOneGenerationPerKey:
    """Every kind reads its LTSs from the engine's memo: a batch of
    disclosure, consent_change and population jobs over one model and
    the same users generates each distinct (model fingerprint,
    options) pair exactly once."""

    def _jobs(self):
        from repro.casestudies import MEDICAL_SERVICE
        system = build_surgery_system()
        users = [UserProfile(f"u{i}", agreed_services=services,
                             sensitivities={"diagnosis": "high"},
                             default_sensitivity=0.1 * (i + 1))
                 for i, services in enumerate((
                     [MEDICAL_SERVICE],
                     [MEDICAL_SERVICE, RESEARCH_SERVICE],
                     [RESEARCH_SERVICE]))]
        return [AnalysisJob(system=system, user=user, kind=kind,
                            params={"count": 12, "seed": index}
                            if kind == "population" else None)
                for index, user in enumerate(users)
                for kind in ("disclosure", "consent_change",
                             "population")]

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_each_key_generates_once(self, backend, monkeypatch):
        import sys
        from collections import Counter
        from repro.core import ModelGenerator
        from repro.engine import model_fingerprint
        original = ModelGenerator.generate
        generated = []

        def recording(self, options=None):
            generated.append((model_fingerprint(self.system),
                              options.cache_key()))
            return original(self, options)

        monkeypatch.setattr(ModelGenerator, "generate", recording)
        jobs = self._jobs()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            batch = BatchEngine(backend=backend, workers=4).run(jobs)
        finally:
            sys.setswitchinterval(interval)
        assert batch.stats.executed == len(jobs)
        repeated = {key: n for key, n in Counter(generated).items()
                    if n > 1}
        assert repeated == {}
        fp = model_fingerprint(jobs[0].system)
        assert set(generated) == {(fp, key) for key in _keys_read(jobs)}
        assert batch.stats.lts_generations + batch.stats.lts_reuses == \
            len(jobs)
        assert sum(r.lts_generated for r in batch.results) == \
            batch.stats.lts_generations
        serial = BatchEngine(backend="serial").run(self._jobs())
        assert [r.signature() for r in batch.results] == \
            [r.signature() for r in serial.results]


class TestResolveOptions:
    def test_disclosure_default_mirrors_direct_analysis(self):
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient())
        options = get_kind(job.kind).options_of(job)
        assert options == DisclosureRiskAnalyzer.default_options(
            job.system, job.user)

    def test_lts_kinds_default_to_full_generation(self):
        for kind in ("pseudonym", "reidentify"):
            job = AnalysisJob(system=build_research_system(),
                              user=surgery_patient(), kind=kind)
            options = get_kind(job.kind).options_of(job)
            assert options.services is None
            assert not options.include_potential_reads

    def test_consent_change_needs_no_generation(self):
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient(),
                          kind="consent_change")
        assert get_kind(job.kind).options_of(job) is None


class TestLabelLeakGuard:
    """scenario/family/variant/job_id must never influence cache
    identity — asserted inside BatchEngine.fingerprint()."""

    def test_labels_do_not_move_fingerprints_across_kinds(self):
        engine = BatchEngine()
        system = build_surgery_system()
        user = surgery_patient()
        for kind in KINDS:
            plain = AnalysisJob(system=system, user=user, kind=kind)
            labelled = AnalysisJob(
                system=system, user=user, kind=kind,
                scenario="prod-run", family="surgery",
                variant="baseline", job_id="job-9999")
            assert engine.fingerprint(plain) == \
                engine.fingerprint(labelled)

    def test_guard_trips_on_a_leaking_recipe(self, monkeypatch):
        """If the key recipe ever starts reading labels, the engine
        refuses to run rather than silently forking the cache."""
        engine = BatchEngine()
        original = BatchEngine._fingerprint

        def leaking(self, job, model_fp, options):
            return original(self, job, model_fp, options) + job.scenario

        monkeypatch.setattr(BatchEngine, "_fingerprint", leaking)
        job = AnalysisJob(system=build_surgery_system(),
                          user=surgery_patient(), scenario="leaky")
        with pytest.raises(AssertionError, match="labels leaked"):
            engine.fingerprint(job)
