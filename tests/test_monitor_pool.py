"""Unit tests for the multi-user monitor pool."""

import pytest

from repro.casestudies import (
    MEDICAL_SERVICE,
    build_surgery_system,
    surgery_patient,
)
from repro.consent import UserProfile
from repro.errors import MonitorError
from repro.monitor import MonitorPool, ServiceRuntime, read_event

USER_VALUES = {"name": "Ada", "dob": "1980-01-01",
               "medical_issues": "cough"}

ADMIN_READ = read_event(
    "Administrator", "EHR",
    ["diagnosis", "dob", "medical_issues", "name", "treatment"])


def _run_session(system, pool, user):
    monitor = pool.monitor_for(user.name)
    runtime = ServiceRuntime(system, monitor=monitor)
    runtime.run_service(MEDICAL_SERVICE, USER_VALUES)


class TestMonitorPool:
    def test_register_and_route(self, surgery_system):
        pool = MonitorPool(surgery_system)
        patient = surgery_patient("p1")
        pool.register(patient)
        _run_session(surgery_system, pool, patient)
        matched = pool.observe("p1", ADMIN_READ)
        assert matched is not None
        assert pool.users_with_critical_alerts() == ("p1",)

    def test_register_is_idempotent(self, surgery_system):
        pool = MonitorPool(surgery_system)
        patient = surgery_patient("p1")
        first = pool.register(patient)
        second = pool.register(patient)
        assert first is second
        assert len(pool) == 1

    def test_no_consent_rejected(self, surgery_system):
        pool = MonitorPool(surgery_system)
        with pytest.raises(MonitorError, match="agreed"):
            pool.register(UserProfile("nobody"))

    def test_unknown_user_rejected(self, surgery_system):
        pool = MonitorPool(surgery_system)
        with pytest.raises(MonitorError, match="no monitor"):
            pool.observe("ghost", ADMIN_READ)
        with pytest.raises(MonitorError, match="no monitor"):
            pool.monitor_for("ghost")

    def test_identical_profiles_share_lts(self, surgery_system):
        pool = MonitorPool(surgery_system)
        pool.register(surgery_patient("p1"))
        pool.register(surgery_patient("p2"))
        assert len(pool._lts_source) == 1
        assert pool.monitor_for("p1").lts is pool.monitor_for("p2").lts

    def test_pooled_lts_raises_on_write(self, surgery_system):
        """Users with the same consents share one LTS, so it is frozen:
        no monitor can write on another user's LTS."""
        from repro.errors import ModelError
        pool = MonitorPool(surgery_system)
        lts = pool.register(surgery_patient("p1")).lts
        assert lts.frozen
        initial = lts.initial
        with pytest.raises(ModelError, match="frozen"):
            lts.add_state(("extra",), initial.vector)
        with pytest.raises(ModelError, match="frozen"):
            lts.add_transition(initial.sid, initial.sid,
                               lts.transitions[0].label)
        assert pool.register(surgery_patient("p2")).lts is lts

    def test_different_sensitivities_do_not_share(self, surgery_system):
        pool = MonitorPool(surgery_system)
        pool.register(surgery_patient("p1"))
        relaxed = UserProfile("p2",
                              agreed_services=[MEDICAL_SERVICE],
                              default_sensitivity=0.05,
                              acceptable_risk="high")
        pool.register(relaxed)
        # one generation serves both; the risk tables stay per-sigma
        assert len(pool._lts_source) == 1
        assert pool.monitor_for("p1").lts is pool.monitor_for("p2").lts
        assert pool.monitor_for("p1").risks is not \
            pool.monitor_for("p2").risks

    def test_sensitivities_share_one_generation(self, surgery_system,
                                                monkeypatch):
        """Sigmas do not affect generation: two users with the same
        consents and different sensitivities cost one generation, and
        each user's alerts are graded by their own risk table."""
        from repro.core import ModelGenerator
        from repro.core.risk import RiskLevel
        from repro.monitor import AlertSeverity
        generations = []
        original = ModelGenerator.generate

        def counting(self, options=None):
            generations.append(options)
            return original(self, options)

        monkeypatch.setattr(ModelGenerator, "generate", counting)
        pool = MonitorPool(surgery_system)
        sensitive = surgery_patient("sensitive")
        relaxed = UserProfile("relaxed",
                              agreed_services=[MEDICAL_SERVICE],
                              default_sensitivity=0.05,
                              acceptable_risk=sensitive.acceptable_risk)
        pool.register(sensitive)
        pool.register(relaxed)
        assert len(generations) == 1
        _run_session(surgery_system, pool, sensitive)
        _run_session(surgery_system, pool, relaxed)
        pool.broadcast(ADMIN_READ)
        alerts = dict(pool.all_alerts())
        assert alerts["sensitive"].level is RiskLevel.MEDIUM
        assert alerts["sensitive"].severity is AlertSeverity.CRITICAL
        assert alerts["relaxed"].level is RiskLevel.LOW
        assert alerts["relaxed"].severity is AlertSeverity.WARNING

    def test_per_user_risk_grading(self, surgery_system):
        """The same admin read is CRITICAL for the sensitive user and
        only a WARNING for the relaxed one."""
        from repro.monitor import AlertSeverity
        pool = MonitorPool(surgery_system)
        sensitive = surgery_patient("sensitive")
        relaxed = UserProfile("relaxed",
                              agreed_services=[MEDICAL_SERVICE],
                              default_sensitivity=0.05,
                              acceptable_risk="high")
        pool.register(sensitive)
        pool.register(relaxed)
        _run_session(surgery_system, pool, sensitive)
        _run_session(surgery_system, pool, relaxed)
        pool.broadcast(ADMIN_READ)
        alerts = dict(pool.all_alerts())
        assert alerts["sensitive"].severity is AlertSeverity.CRITICAL
        assert alerts["relaxed"].severity is AlertSeverity.WARNING
        assert pool.users_with_critical_alerts() == ("sensitive",)

    def test_on_alert_callback_carries_user(self, surgery_system):
        seen = []
        pool = MonitorPool(
            surgery_system,
            on_alert=lambda name, alert: seen.append(name))
        patient = surgery_patient("p1")
        pool.register(patient)
        _run_session(surgery_system, pool, patient)
        pool.observe("p1", ADMIN_READ)
        assert seen == ["p1"]
