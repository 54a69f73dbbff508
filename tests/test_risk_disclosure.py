"""Unit tests for the unwanted-disclosure analyzer (paper III.A/IV.A)."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudies import (
    MEDICAL_SERVICE,
    build_surgery_system,
    surgery_patient,
    tighten_administrator_policy,
)
from repro.casestudies.synthetic import build_scaled_system
from repro.consent import UserProfile
from repro.core import (
    ActionType,
    GenerationOptions,
    ModelGenerator,
    TransitionKind,
)
from repro.core.risk import (
    DisclosureRiskAnalyzer,
    LikelihoodModel,
    RiskLevel,
    analyse_consent_change,
    analyse_disclosure,
)
from repro.dfd import SystemBuilder
from repro.errors import AnalysisError


class TestCaseStudyA:
    """Section IV.A verbatim: MEDIUM before, LOW after the ACL change."""

    def test_non_allowed_actors_identified(self, surgery_system, patient):
        report = analyse_disclosure(surgery_system, patient)
        assert report.non_allowed_actors == ("Administrator",
                                             "Researcher")
        assert report.allowed_actors == ("Doctor", "Nurse",
                                         "Receptionist")

    def test_administrator_read_is_medium(self, surgery_system, patient):
        report = analyse_disclosure(surgery_system, patient)
        assert report.max_level is RiskLevel.MEDIUM
        admin_events = report.by_actor()["Administrator"]
        assert all(e.store == "EHR" for e in admin_events)
        assert any("diagnosis" in e.fields for e in admin_events)

    def test_policy_change_reduces_to_low(self, patient):
        system = tighten_administrator_policy(build_surgery_system())
        report = analyse_disclosure(system, patient)
        assert report.max_level is RiskLevel.LOW
        for event in report.events:
            assert "diagnosis" not in event.fields

    def test_medium_event_is_high_impact_low_likelihood(
            self, surgery_system, patient):
        report = analyse_disclosure(surgery_system, patient)
        event = report.events[0]
        assert event.assessment.impact_category is RiskLevel.HIGH
        assert event.assessment.likelihood_category is RiskLevel.LOW
        assert event.assessment.impact == pytest.approx(0.9)

    def test_researcher_generates_no_events(self, surgery_system,
                                            patient):
        # AnonEHR is empty during the Medical Service, so the
        # Researcher has nothing to read.
        report = analyse_disclosure(surgery_system, patient)
        assert "Researcher" not in report.by_actor()

    def test_unacceptable_for_low_tolerance_user(self, surgery_system,
                                                 patient):
        report = analyse_disclosure(surgery_system, patient)
        assert report.unacceptable_for(patient)
        fixed = tighten_administrator_policy(build_surgery_system())
        assert not analyse_disclosure(fixed, patient) \
            .unacceptable_for(patient)


class TestAnalyzerMechanics:
    def test_requires_agreed_services(self, surgery_system):
        user = UserProfile("u")
        with pytest.raises(AnalysisError, match="agreed"):
            analyse_disclosure(surgery_system, user)

    def test_transitions_annotated_with_impact(self, surgery_system,
                                               patient):
        analyzer = DisclosureRiskAnalyzer(surgery_system)
        non_allowed = patient.non_allowed_actors(surgery_system)
        lts = ModelGenerator(surgery_system).generate(
            GenerationOptions(
                services=(MEDICAL_SERVICE,),
                include_potential_reads=True,
                potential_read_actors=frozenset(non_allowed)))
        report = analyzer.analyse(patient, lts=lts)
        assert sorted(report.annotations) == \
            [t.tid for t in lts.transitions]
        assert len(report.impacts) == len(lts.transitions)

    def test_create_gets_impact_only_annotation(self, surgery_system,
                                                patient):
        analyzer = DisclosureRiskAnalyzer(surgery_system)
        report = analyzer.analyse(patient)
        # risk events are reads only
        assert all(
            e.transition.label.action is ActionType.READ
            for e in report.events
        )

    def test_events_only_for_non_allowed_readers(self, surgery_system,
                                                 patient):
        report = analyse_disclosure(surgery_system, patient)
        assert all(e.actor in report.non_allowed_actors
                   for e in report.events)

    def test_custom_likelihood_model_changes_level(self, surgery_system,
                                                   patient):
        paranoid = LikelihoodModel([
            # everything is likely
            __import__("repro.core.risk", fromlist=["Scenario"])
            .Scenario("breach", 0.9)
        ])
        report = DisclosureRiskAnalyzer(
            surgery_system, likelihood=paranoid).analyse(patient)
        assert report.max_level is RiskLevel.HIGH

    def test_impact_measured_against_absolute_state(self):
        """A second exposure of an equally-sensitive field still has
        full impact (not zero marginal impact)."""
        system = (SystemBuilder("s")
                  .schema("S", [("x", "string", "sensitive")])
                  .schema("S2", [("x", "string", "sensitive")])
                  .actor("A").actor("Spy")
                  .datastore("D1", "S").datastore("D2", "S2")
                  .service("svc")
                  .flow(1, "User", "A", ["x"])
                  .flow(2, "A", "D1", ["x"])
                  .flow(3, "A", "D2", ["x"])
                  .allow("A", ["read", "create"], "D1")
                  .allow("A", ["read", "create"], "D2")
                  .allow("Spy", "read", "D1")
                  .allow("Spy", "read", "D2")
                  .build())
        user = UserProfile("u", agreed_services=["svc"],
                           sensitivities={"x": 0.9})
        report = analyse_disclosure(system, user)
        # Spy can read x from either store; every such read is a
        # full-impact event even after the first.
        assert report.events
        assert all(
            e.assessment.impact == pytest.approx(0.9)
            for e in report.events
        )

    def test_report_rendering(self, surgery_system, patient):
        report = analyse_disclosure(surgery_system, patient)
        table = report.summary_table()
        assert "MEDIUM" in table
        assert "Administrator" in table

    def test_report_scenario_breakdown(self, surgery_system, patient):
        report = analyse_disclosure(surgery_system, patient)
        names = [n for n, _ in report.events[0].scenario_breakdown]
        assert "accidental access" in names

    def test_empty_report_rendering(self):
        from repro.core.risk.report import DisclosureRiskReport
        report = DisclosureRiskReport("u", [], [], [])
        assert report.max_level is RiskLevel.NONE
        assert "-" in report.summary_table()

    def test_events_sorted_by_level_desc(self, surgery_system):
        user = UserProfile(
            "u", agreed_services=[MEDICAL_SERVICE],
            sensitivities={"diagnosis": 0.9, "name": 0.05},
            default_sensitivity=0.2)
        report = analyse_disclosure(surgery_system, user)
        ranks = [e.level.rank for e in report.events]
        assert ranks == sorted(ranks, reverse=True)


# -- the packed-mask analyzer against the per-transition oracle ---------------

_SIGMAS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
    st.sampled_from(["low", "medium", "high"]),
)


@st.composite
def disclosure_cases(draw):
    """A scaled model with extra read grants, and a user over it with
    drawn consents and numeric/categorical sensitivities (``_anon``
    fields included) on top of a default.

    Pseudonymised models also draw extra readers of the release, so
    non-allowed actors can come to know ``_anon`` fields and their
    inherited sensitivities decide impacts."""
    system = build_scaled_system(
        actors=draw(st.integers(2, 5)), fields=draw(st.integers(2, 6)),
        stores=draw(st.integers(1, 3)),
        pseudonymise=draw(st.booleans()))
    actors = sorted(system.actors)
    if "AnonStore" in system.datastores:
        for actor in draw(st.lists(st.sampled_from(actors), max_size=2,
                                   unique=True)):
            system.policy.allow(actor, "read", "AnonStore")
    for _ in range(draw(st.integers(0, 3))):
        store = draw(st.sampled_from(sorted(system.datastores)))
        fields = draw(st.one_of(
            st.just(["*"]),
            st.lists(st.sampled_from(
                sorted(system.datastore(store).field_names())),
                min_size=1, max_size=3, unique=True)))
        system.policy.allow(draw(st.sampled_from(actors)), "read",
                            store, fields)
    agreed = draw(st.lists(st.sampled_from(sorted(system.services)),
                           min_size=1, unique=True))
    field_names = sorted(system.personal_fields())
    user = UserProfile(
        "u", agreed_services=agreed,
        sensitivities=draw(st.dictionaries(
            st.sampled_from(field_names), _SIGMAS, max_size=6)),
        default_sensitivity=draw(st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=1.0))))
    return system, user


def _event_rows(report):
    return [
        (e.transition.tid, e.actor, e.fields, e.store,
         e.assessment.impact, e.assessment.likelihood,
         e.assessment.impact_category, e.assessment.likelihood_category,
         e.assessment.level, e.scenario_breakdown)
        for e in report.events
    ]


@given(disclosure_cases())
@settings(max_examples=100, deadline=None)
def test_mask_analyzer_matches_reference_oracle(case):
    from reference_disclosure import reference_analyse
    system, user = case
    analyzer = DisclosureRiskAnalyzer(system)
    lts = ModelGenerator(system).generate(
        analyzer.default_options(system, user))
    report = analyzer.analyse(user, lts=lts)
    expected, annotations = reference_analyse(analyzer, user, lts)
    assert _event_rows(report) == _event_rows(expected)
    assert report.allowed_actors == expected.allowed_actors
    assert report.non_allowed_actors == expected.non_allowed_actors
    assert report.max_level is expected.max_level
    table = report.annotations
    assert sorted(table) == sorted(annotations)
    for tid, annotation in annotations.items():
        assert table[tid].describe() == annotation.describe(), tid
        assert table[tid].scenario_breakdown == \
            annotation.scenario_breakdown, tid


# -- analysis reads the LTS and never writes it --------------------------------

class TestAnalysisLeavesLtsUnchanged:
    """The structural guard behind the mask speed-up: disclosure,
    consent-change and re-identification analysis read the LTS and
    return side tables, so a pickled LTS is byte-identical before and
    after, and no analysis walks state vectors bit by bit."""

    def _scaled(self):
        system = build_scaled_system(4, 5, 2, pseudonymise=True)
        user = UserProfile("u", agreed_services=["Intake"],
                           sensitivities={"attr1": "high"},
                           default_sensitivity=0.3)
        return system, user

    def test_disclosure(self):
        system, user = self._scaled()
        analyzer = DisclosureRiskAnalyzer(system)
        lts = ModelGenerator(system).generate(
            analyzer.default_options(system, user))
        before = pickle.dumps(lts)
        report = analyzer.analyse(user, lts=lts)
        assert report.events and report.annotations
        assert pickle.dumps(lts) == before

    def test_consent_change(self, monkeypatch):
        system, user = self._scaled()
        generated = []
        original = ModelGenerator.generate

        def recording(self, options=None):
            # LTS sources hand out frozen LTSs: freezing here is
            # idempotent and pickles the LTS the analysis reads.
            lts = original(self, options).freeze()
            generated.append((lts, pickle.dumps(lts)))
            return lts

        monkeypatch.setattr(ModelGenerator, "generate", recording)
        report = analyse_consent_change(system, user,
                                        agree=["Processing"])
        assert report.after is not None and len(generated) == 2
        for lts, before in generated:
            assert pickle.dumps(lts) == before

    def test_reidentify(self, research_system, table1):
        from repro.core import generate_lts
        from repro.core.risk import annotate_reidentification
        lts = generate_lts(research_system)
        before = pickle.dumps(lts)
        assert annotate_reidentification(lts, table1)
        assert pickle.dumps(lts) == before

    def test_disclosure_never_walks_state_vectors(self, monkeypatch):
        from repro.core.statevars import PrivacyVector
        system, user = self._scaled()
        analyzer = DisclosureRiskAnalyzer(system)
        lts = ModelGenerator(system).generate(
            analyzer.default_options(system, user))

        def forbidden(self):
            raise AssertionError("disclosure analysis walked the bits "
                                 "of a state vector")

        monkeypatch.setattr(PrivacyVector, "true_variables", forbidden)
        report = analyzer.analyse(user, lts=lts)
        assert report.events and report.annotations

