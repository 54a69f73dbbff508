"""Unit tests for audit-trail replay."""

import pytest

from repro.casestudies import (
    MEDICAL_SERVICE,
    build_surgery_system,
    surgery_patient,
)
from repro.core import ActionType, GenerationOptions, ModelGenerator
from repro.core.risk import DisclosureRiskAnalyzer
from repro.monitor import (
    PrivacyMonitor,
    ServiceRuntime,
    events_from_audit,
    merged_audit_events,
    replay,
)

USER_VALUES = {"name": "Ada", "dob": "1980-01-01",
               "medical_issues": "cough"}


@pytest.fixture
def ran_runtime(surgery_system):
    runtime = ServiceRuntime(surgery_system)
    runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
    return runtime


class TestEventsFromAudit:
    def test_store_operations_become_events(self, ran_runtime):
        events = events_from_audit(ran_runtime.store("EHR"))
        actions = [e.action for e in events]
        assert actions == [ActionType.CREATE, ActionType.READ]
        create, read = events
        assert create.actor == "Doctor"
        assert create.target == "EHR"
        assert read.actor == "Nurse"
        assert read.source == "EHR"

    def test_anonymised_store_writes_become_anon(self, surgery_system):
        runtime = ServiceRuntime(surgery_system)
        runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        runtime.run_service("MedicalResearchService", {})
        events = events_from_audit(runtime.store("AnonEHR"),
                                   anonymised=True)
        assert events[0].action is ActionType.ANON

    def test_merged_audit_events_order(self, ran_runtime):
        merged = merged_audit_events([
            (ran_runtime.store("Appointments"), False),
            (ran_runtime.store("EHR"), False),
        ])
        # per-store order preserved
        ehr_actions = [e.action for e in merged if "EHR" in
                       (e.source, e.target)]
        assert ehr_actions == [ActionType.CREATE, ActionType.READ]
        appt_actions = [e.action for e in merged
                        if "Appointments" in (e.source, e.target)]
        assert appt_actions == [ActionType.CREATE, ActionType.READ]


class TestReplay:
    def test_post_hoc_risk_detection(self, surgery_system):
        """Run the system unmonitored; afterwards, replay the audit of
        an Administrator EHR read against the annotated model and find
        the risk alert."""
        patient = surgery_patient()
        analyzer = DisclosureRiskAnalyzer(surgery_system)
        lts = ModelGenerator(surgery_system).generate(
            GenerationOptions(
                services=(MEDICAL_SERVICE,),
                include_potential_reads=True,
                potential_read_actors=frozenset(
                    patient.non_allowed_actors(surgery_system))))
        report = analyzer.analyse(patient, lts=lts)

        # live run without a monitor, then an admin read
        runtime = ServiceRuntime(surgery_system)
        live_events = runtime.run_service(MEDICAL_SERVICE, USER_VALUES)
        runtime.store("EHR").read_fields(
            "Administrator",
            ["diagnosis", "dob", "medical_issues", "name", "treatment"])

        # post-hoc: replay live flow events, then the admin audit read
        monitor = PrivacyMonitor(lts, risks=report.annotations)
        replay(monitor, live_events)
        audit_events = events_from_audit(runtime.store("EHR"))
        admin_reads = [e for e in audit_events
                       if e.actor == "Administrator"]
        replay(monitor, admin_reads)
        assert monitor.critical_alerts()

    def test_stop_on_divergence(self, surgery_system, medical_lts):
        from repro.monitor import read_event
        monitor = PrivacyMonitor(medical_lts)
        rogue = read_event("Nurse", "EHR", ["name"])
        collect = None  # stream: rogue first, then anything
        matches = replay(monitor, [rogue, rogue],
                         stop_on_divergence=True)
        assert matches == [None]
        assert len(monitor.alerts) == 1

    def test_replay_matches_live_tracking(self, surgery_system):
        """Replaying the live event list reproduces the live monitor's
        final state exactly."""
        from repro.core import generate_lts
        lts = generate_lts(surgery_system, GenerationOptions(
            services=(MEDICAL_SERVICE,)))
        live_monitor = PrivacyMonitor(lts)
        runtime = ServiceRuntime(surgery_system, monitor=live_monitor)
        events = runtime.run_service(MEDICAL_SERVICE, USER_VALUES)

        replay_monitor = PrivacyMonitor(lts)
        replay(replay_monitor, events)
        assert replay_monitor.current_state.sid == \
            live_monitor.current_state.sid
        assert len(replay_monitor.trace) == len(live_monitor.trace)
