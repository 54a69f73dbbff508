"""Targeted tests for smaller paths not covered elsewhere."""

import pytest

from repro.core import ActionType, GenerationOptions, TransitionKind, \
    generate_lts
from repro.core.risk import RiskLevel
from repro.core.risk.report import RiskAnnotation
from repro.monitor import (
    AlertSeverity,
    PrivacyMonitor,
    anon_event,
    delete_event,
    disclose_event,
)
from repro.monitor.alerts import risk_alert


class TestAlertGrading:
    def _annotated_transition(self, medical_lts, level):
        transition = medical_lts.transitions[0]
        from repro.core.risk import RiskMatrix
        matrix = RiskMatrix.example()
        impact = {"low": 0.2, "medium": 0.5, "high": 0.9}[level]
        risks = {transition.tid: RiskAnnotation(
            assessment=matrix.assess(impact, 0.05))}
        return transition, risks

    def test_risk_below_acceptable_is_warning(self, medical_lts):
        transition, risks = self._annotated_transition(medical_lts, "low")
        event = disclose_event("A", "B", ["x"])
        alert = risk_alert(transition, event, RiskLevel.MEDIUM, risks)
        assert alert.severity is AlertSeverity.WARNING

    def test_risk_above_acceptable_is_critical(self, medical_lts):
        transition, risks = self._annotated_transition(medical_lts,
                                                       "high")
        event = disclose_event("A", "B", ["x"])
        alert = risk_alert(transition, event, RiskLevel.LOW, risks)
        assert alert.severity is AlertSeverity.CRITICAL
        assert alert.level is RiskLevel.MEDIUM  # high x low -> medium

    def test_alert_describe(self, medical_lts):
        transition, risks = self._annotated_transition(medical_lts,
                                                       "high")
        alert = risk_alert(transition,
                           disclose_event("A", "B", ["x"]),
                           RiskLevel.LOW, risks)
        assert "[CRITICAL]" in alert.describe()


class TestRiskAnnotationDescribe:
    def test_unscored(self):
        assert RiskAnnotation().describe() == "<unscored>"

    def test_context_only(self):
        assert RiskAnnotation(context="note").describe() == "note"

    def test_with_value_risk(self, table1, weight_policy):
        from repro.core.risk import value_risk
        result = value_risk(table1, ["age"], weight_policy)
        text = RiskAnnotation(value_risk=result).describe()
        assert "violations=2/6" in text


class TestReportFilters:
    def test_events_at_or_above(self, surgery_system, patient):
        from repro.core.risk import analyse_disclosure
        report = analyse_disclosure(surgery_system, patient)
        assert report.events_at_or_above("medium")
        assert not report.events_at_or_above("high")
        assert len(report.events_at_or_above("low")) == \
            len(report.events)


class TestEventConstructors:
    def test_anon_and_delete_events(self):
        anon = anon_event("A", "S", ["x_anon"], timestamp=1.0)
        assert anon.action is ActionType.ANON
        assert anon.timestamp == 1.0
        delete = delete_event("A", "S", ["x"])
        assert delete.action is ActionType.DELETE
        assert delete.target == "S"


class TestMonitorBatch:
    def test_observe_all(self, surgery_system, medical_lts):
        from repro.monitor import ServiceRuntime
        runtime = ServiceRuntime(surgery_system)
        events = runtime.run_service("MedicalService", {
            "name": "A", "dob": "d", "medical_issues": "m"})
        monitor = PrivacyMonitor(medical_lts)
        matches = monitor.observe_all(events)
        assert len(matches) == 6
        assert all(m is not None for m in matches)


class TestGenerationCombinations:
    def test_sequence_with_potential_reads(self, surgery_system):
        """Potential reads compose with strict flow ordering."""
        options = GenerationOptions(
            services=("MedicalService",),
            ordering="sequence",
            include_potential_reads=True,
            potential_read_actors=frozenset({"Administrator"}))
        lts = generate_lts(surgery_system, options)
        potentials = lts.transitions_of_kind(TransitionKind.POTENTIAL)
        assert potentials
        # flow transitions still form the single in-order chain
        flow_transitions = lts.transitions_of_kind(TransitionKind.FLOW)
        orders = [t.label.flow_key[1] for t in flow_transitions
                  if t.label.flow_key]
        assert sorted(orders) == orders or len(set(orders)) == 6

    def test_potential_reads_for_all_actors_default(self, tiny_system):
        options = GenerationOptions(include_potential_reads=True)
        lts = generate_lts(tiny_system, options)
        readers = {
            t.label.actor
            for t in lts.transitions_of_kind(TransitionKind.POTENTIAL)
        }
        # Alice already has/holds everything she may read (she wrote
        # it), so no state-changing potential read exists for her.
        assert readers == {"Bob"}


class TestSchemaEdgeCases:
    def test_anonymised_view_unknown_field(self):
        from repro.errors import SchemaError
        from repro.schema import DataSchema, Field
        schema = DataSchema("S", [Field("a")])
        with pytest.raises(SchemaError):
            schema.anonymised_view(["ghost"])


class TestDatastoreBatch:
    def test_insert_many(self):
        from repro.datastore import RuntimeDatastore
        from repro.schema import DataSchema, Field
        store = RuntimeDatastore("S", DataSchema("S", [Field("a")]))
        records = store.insert_many("w", [{"a": 1}, {"a": 2}])
        assert len(records) == 2
        assert len(store) == 2


class TestCategoryConversions:
    def test_sensitivity_category_values_ordered(self):
        from repro.core.risk import SensitivityCategory
        low = SensitivityCategory.LOW.to_value()
        medium = SensitivityCategory.MEDIUM.to_value()
        high = SensitivityCategory.HIGH.to_value()
        assert low < medium < high

    def test_unknown_category(self):
        from repro.core.risk import SensitivityCategory
        with pytest.raises(ValueError):
            SensitivityCategory.from_name("extreme")
