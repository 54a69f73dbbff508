"""Unit tests for runtime monitoring: events, tracker, alerts, runtime."""

import pytest

from repro.casestudies import (
    MEDICAL_SERVICE,
    RESEARCH_SERVICE,
    build_surgery_system,
    surgery_patient,
)
from repro.core import ActionType, GenerationOptions, generate_lts
from repro.core.risk import DisclosureRiskAnalyzer, RiskLevel
from repro.errors import MonitorError, UnknownEventError
from repro.monitor import (
    AlertSeverity,
    DivergenceAlert,
    PrivacyMonitor,
    RiskAlert,
    ServiceRuntime,
    collect_event,
    create_event,
    read_event,
)

USER_VALUES = {"name": "Ada", "dob": "1980-01-01",
               "medical_issues": "cough"}


class TestObservedEvent:
    def test_field_order_insensitive_matching(self, medical_lts):
        first = medical_lts.transitions_from(medical_lts.initial.sid)[0]
        event = collect_event("Receptionist", ["dob", "name"])
        assert event.matches(first)

    def test_wrong_actor_does_not_match(self, medical_lts):
        first = medical_lts.transitions_from(medical_lts.initial.sid)[0]
        assert not collect_event("Doctor", ["name", "dob"]).matches(first)

    def test_describe(self):
        event = read_event("Nurse", "EHR", ["name"])
        assert "read{name}" in event.describe()
        assert "EHR -> Nurse" in event.describe()

    def test_requires_fields(self):
        with pytest.raises(ValueError):
            collect_event("A", [])


class TestPrivacyMonitor:
    def test_tracks_full_session(self, surgery_system, medical_lts):
        monitor = PrivacyMonitor(medical_lts)
        runtime = ServiceRuntime(surgery_system, monitor=monitor)
        runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        assert len(monitor.trace) == 6
        assert not monitor.alerts
        # final state: nurse has treatment
        assert monitor.current_state.vector.has("Nurse", "treatment")

    def test_exposure_of(self, surgery_system, medical_lts):
        monitor = PrivacyMonitor(medical_lts)
        ServiceRuntime(surgery_system, monitor=monitor).run_service(
            MEDICAL_SERVICE, USER_VALUES)
        assert "treatment" in monitor.exposure_of("Nurse")
        assert "diagnosis" not in monitor.exposure_of("Nurse")

    def test_divergence_alert_non_strict(self, medical_lts):
        monitor = PrivacyMonitor(medical_lts, strict=False)
        result = monitor.observe(read_event("Nurse", "EHR", ["name"]))
        assert result is None
        assert len(monitor.alerts) == 1
        assert isinstance(monitor.alerts[0], DivergenceAlert)
        assert monitor.alerts[0].severity is AlertSeverity.CRITICAL

    def test_divergence_strict_raises(self, medical_lts):
        monitor = PrivacyMonitor(medical_lts, strict=True)
        with pytest.raises(UnknownEventError):
            monitor.observe(read_event("Nurse", "EHR", ["name"]))

    def test_risk_alert_on_annotated_transition(self, surgery_system):
        patient = surgery_patient()
        analyzer = DisclosureRiskAnalyzer(surgery_system)
        non_allowed = patient.non_allowed_actors(surgery_system)
        from repro.core import ModelGenerator
        lts = ModelGenerator(surgery_system).generate(
            GenerationOptions(
                services=(MEDICAL_SERVICE,),
                include_potential_reads=True,
                potential_read_actors=frozenset(non_allowed)))
        report = analyzer.analyse(patient, lts=lts)
        monitor = PrivacyMonitor(lts, acceptable_risk=RiskLevel.LOW,
                                 risks=report.annotations)
        runtime = ServiceRuntime(surgery_system, monitor=monitor)
        runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        # now the administrator actually reads the EHR
        admin_read = read_event(
            "Administrator", "EHR",
            ["diagnosis", "dob", "medical_issues", "name", "treatment"])
        matched = monitor.observe(admin_read)
        assert matched is not None
        risk_alerts = [a for a in monitor.alerts
                       if isinstance(a, RiskAlert)]
        assert len(risk_alerts) == 1
        assert risk_alerts[0].level is RiskLevel.MEDIUM
        assert risk_alerts[0].severity is AlertSeverity.CRITICAL
        assert monitor.critical_alerts()

    def test_on_alert_callback(self, medical_lts):
        seen = []
        monitor = PrivacyMonitor(medical_lts, on_alert=seen.append)
        monitor.observe(read_event("Nurse", "EHR", ["name"]))
        assert len(seen) == 1

    def test_reset(self, surgery_system, medical_lts):
        monitor = PrivacyMonitor(medical_lts)
        ServiceRuntime(surgery_system, monitor=monitor).run_service(
            MEDICAL_SERVICE, USER_VALUES)
        monitor.reset()
        assert monitor.current_state.sid == medical_lts.initial.sid
        assert not monitor.trace


class TestServiceRuntime:
    def test_event_actions_follow_extraction_rules(self, surgery_system):
        runtime = ServiceRuntime(surgery_system)
        events = runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        actions = [e.action for e in events]
        assert actions == [
            ActionType.COLLECT, ActionType.CREATE, ActionType.READ,
            ActionType.COLLECT, ActionType.CREATE, ActionType.READ,
        ]

    def test_stores_hold_real_records(self, surgery_system):
        runtime = ServiceRuntime(surgery_system)
        runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        ehr = runtime.store("EHR").snapshot()
        assert len(ehr) == 1
        assert ehr[0]["name"] == "Ada"
        assert ehr[0]["diagnosis"] == "<diagnosis by Doctor>"

    def test_originated_values_override(self, surgery_system):
        runtime = ServiceRuntime(surgery_system)
        runtime.run_service(MEDICAL_SERVICE, USER_VALUES,
                            originated_values={"diagnosis": "bronchitis"})
        ehr = runtime.store("EHR").snapshot()
        assert ehr[0]["diagnosis"] == "bronchitis"

    def test_research_service_renames_anon_fields(self, surgery_system):
        runtime = ServiceRuntime(surgery_system)
        runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        events = runtime.run_service(RESEARCH_SERVICE, {})
        anon = [e for e in events if e.action is ActionType.ANON][0]
        assert set(anon.fields) == {
            "dob_anon", "medical_issues_anon", "diagnosis_anon",
            "treatment_anon"}
        assert len(runtime.store("AnonEHR")) == 1

    def test_missing_user_values_rejected(self, surgery_system):
        runtime = ServiceRuntime(surgery_system)
        with pytest.raises(MonitorError, match="missing fields"):
            runtime.run_service(MEDICAL_SERVICE, {"name": "Ada"})

    def test_unknown_store_lookup(self, surgery_system):
        with pytest.raises(MonitorError, match="unknown datastore"):
            ServiceRuntime(surgery_system).store("Ghost")

    def test_policy_enforced_at_runtime(self):
        """A flow the ACL does not back fails at runtime with
        AccessDenied — the static 'unbacked-read' warning made real."""
        from repro.dfd import SystemBuilder
        from repro.errors import AccessDenied
        system = (SystemBuilder("s").schema("S", ["x"])
                  .actor("A").actor("B")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "User", "A", ["x"])
                  .flow(2, "A", "D", ["x"])
                  .flow(3, "D", "B", ["x"])
                  .allow("A", "create", "D")
                  .build(strict=False))
        runtime = ServiceRuntime(system)
        with pytest.raises(AccessDenied):
            runtime.run_service("svc", {"x": "v"})

    def test_enforcement_can_be_disabled(self):
        from repro.dfd import SystemBuilder
        system = (SystemBuilder("s").schema("S", ["x"])
                  .actor("A").actor("B")
                  .datastore("D", "S")
                  .service("svc")
                  .flow(1, "User", "A", ["x"])
                  .flow(2, "A", "D", ["x"])
                  .flow(3, "D", "B", ["x"])
                  .build(strict=False))
        runtime = ServiceRuntime(system, enforce_policy=False)
        events = runtime.run_service("svc", {"x": "v"})
        assert len(events) == 3

    def test_events_accumulate_across_sessions(self, surgery_system):
        runtime = ServiceRuntime(surgery_system)
        runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        assert len(runtime.events) == 12
        assert len(runtime.store("EHR")) == 2
